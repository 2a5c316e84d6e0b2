package check

import (
	"compisa/internal/code"
)

// BB is one recovered basic block: instructions [Start, End) of the
// program, with successor/predecessor edges expressed as block indices.
type BB struct {
	Start, End int
	Succs      []int
	Preds      []int
	// Reachable marks blocks reachable from the entry block.
	Reachable bool
}

// CFG is the control-flow graph recovered from a program's branch targets.
// Block 0 is the entry (it starts at instruction 0).
type CFG struct {
	Blocks []BB
	// blockOf maps an instruction index to the index of its containing
	// block.
	blockOf []int
}

// BlockOf returns the index of the block containing instruction i.
func (g *CFG) BlockOf(i int) int { return g.blockOf[i] }

// recoverCFG rebuilds basic blocks from branch targets: leaders are
// instruction 0, every branch target, and every instruction following a
// control transfer. It assumes branch targets are in range (the cfg rule
// checks that first; recoverCFG is only called when they are).
func recoverCFG(p *code.Program) *CFG {
	n := len(p.Instrs)
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case code.JCC, code.JMP:
			leader[in.Target] = true
			if i+1 < n {
				leader[i+1] = true
			}
		case code.RET:
			if i+1 < n {
				leader[i+1] = true
			}
		}
	}
	g := &CFG{blockOf: make([]int, n)}
	start := 0
	for i := 0; i < n; i++ {
		if i > start && leader[i] {
			g.Blocks = append(g.Blocks, BB{Start: start, End: i})
			start = i
		}
	}
	if n > 0 {
		g.Blocks = append(g.Blocks, BB{Start: start, End: n})
	}
	for bi := range g.Blocks {
		for i := g.Blocks[bi].Start; i < g.Blocks[bi].End; i++ {
			g.blockOf[i] = bi
		}
	}
	// Edges.
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		last := &p.Instrs[b.End-1]
		switch last.Op {
		case code.JMP:
			b.Succs = append(b.Succs, g.blockOf[last.Target])
		case code.JCC:
			b.Succs = append(b.Succs, g.blockOf[last.Target])
			if b.End < n {
				b.Succs = append(b.Succs, g.blockOf[b.End])
			}
		case code.RET:
			// No successors.
		default:
			if b.End < n {
				b.Succs = append(b.Succs, g.blockOf[b.End])
			}
		}
	}
	for bi := range g.Blocks {
		for _, s := range g.Blocks[bi].Succs {
			g.Blocks[s].Preds = append(g.Blocks[s].Preds, bi)
		}
	}
	// Reachability from the entry block.
	if len(g.Blocks) > 0 {
		stack := []int{0}
		g.Blocks[0].Reachable = true
		for len(stack) > 0 {
			bi := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range g.Blocks[bi].Succs {
				if !g.Blocks[s].Reachable {
					g.Blocks[s].Reachable = true
					stack = append(stack, s)
				}
			}
		}
	}
	return g
}

// postorder computes a postorder numbering of the reachable subgraph with
// an iterative DFS (explicit stack: no recursion, so kilo-block chains are
// fine).
func (g *CFG) postorder() []int {
	if len(g.Blocks) == 0 {
		return nil
	}
	type frame struct {
		b    int
		next int // next successor index to visit
	}
	seen := make([]bool, len(g.Blocks))
	order := make([]int, 0, len(g.Blocks))
	stack := []frame{{b: 0}}
	seen[0] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(g.Blocks[f.b].Succs) {
			s := g.Blocks[f.b].Succs[f.next]
			f.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		order = append(order, f.b)
		stack = stack[:len(stack)-1]
	}
	return order
}
