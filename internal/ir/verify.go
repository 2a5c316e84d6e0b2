package ir

import "fmt"

// Verify checks structural invariants of the function: every block ends in
// exactly one terminator, CFG targets are blocks of this function, operand
// registers are allocated and used type-consistently, every used virtual
// register has at least one definition, and (for reachable blocks) at least
// one definition reaches each use along some CFG path. It returns the first
// violation found.
func (f *Func) Verify() error {
	if f.Entry == nil {
		return fmt.Errorf("%s: no entry block", f.Name)
	}
	blockSet := map[*Block]bool{}
	for _, b := range f.Blocks {
		blockSet[b] = true
	}
	defined := make([]bool, f.nvregs)
	used := make([]bool, f.nvregs)
	var uses []VReg
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("%s/%s: empty block", f.Name, b.Name)
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			last := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != last {
				return fmt.Errorf("%s/%s[%d]: terminator placement (%s)", f.Name, b.Name, i, in.Op)
			}
			if d := in.Def(); d != NoReg {
				if int(d) >= f.nvregs {
					return fmt.Errorf("%s/%s[%d]: def of unallocated %v", f.Name, b.Name, i, d)
				}
				defined[d] = true
			}
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				if int(u) >= f.nvregs {
					return fmt.Errorf("%s/%s[%d]: use of unallocated %v", f.Name, b.Name, i, u)
				}
				used[u] = true
			}
			switch in.Op {
			case Br:
				if !blockSet[in.Succs[0]] {
					return fmt.Errorf("%s/%s: br to foreign block", f.Name, b.Name)
				}
			case CondBr:
				if !blockSet[in.Succs[0]] || !blockSet[in.Succs[1]] {
					return fmt.Errorf("%s/%s: condbr to foreign block", f.Name, b.Name)
				}
				if in.C == NoReg {
					return fmt.Errorf("%s/%s: condbr without condition", f.Name, b.Name)
				}
				if in.Prob < 0 || in.Prob > 1 {
					return fmt.Errorf("%s/%s: condbr probability %v out of range", f.Name, b.Name, in.Prob)
				}
			case Load, Store:
				if in.Mem.Base == NoReg {
					return fmt.Errorf("%s/%s[%d]: memory access without base", f.Name, b.Name, i)
				}
			case Select:
				if in.C == NoReg {
					return fmt.Errorf("%s/%s[%d]: select without condition", f.Name, b.Name, i)
				}
			}
		}
	}
	for v := 0; v < f.nvregs; v++ {
		if used[v] && !defined[v] {
			return fmt.Errorf("%s: v%d used but never defined", f.Name, v)
		}
	}
	return f.verifyReachingDefs(uses)
}

// verifyReachingDefs rejects any use in a reachable block that no definition
// can reach along any CFG path. The global used/defined pass above only
// proves a definition exists *somewhere* in the function, so it accepts a
// use that appears before its only definition in f.Blocks order even when
// no path delivers the value (e.g. a use in the entry block whose sole
// definition sits in a successor). A union (may) fixpoint keeps legitimate
// partially-defined joins legal: a definition on any incoming path suffices,
// matching the interpreter's zero-initialized registers.
func (f *Func) verifyReachingDefs(uses []VReg) error {
	nb := len(f.Blocks)
	idx := make(map[*Block]int, nb)
	for i, b := range f.Blocks {
		idx[b] = i
	}
	words := (f.nvregs + 63) / 64
	gen := make([][]uint64, nb) // defs within the block
	rin := make([][]uint64, nb) // defs reaching block entry (union over preds)
	for i, b := range f.Blocks {
		gen[i] = make([]uint64, words)
		rin[i] = make([]uint64, words)
		for j := range b.Instrs {
			if d := b.Instrs[j].Def(); d != NoReg {
				gen[i][d/64] |= 1 << (d % 64)
			}
		}
	}
	reachable := make([]bool, nb)
	reachable[idx[f.Entry]] = true
	stack := []*Block{f.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if j := idx[s]; !reachable[j] {
				reachable[j] = true
				stack = append(stack, s)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i, b := range f.Blocks {
			if !reachable[i] {
				continue
			}
			for _, s := range b.Succs() {
				j := idx[s]
				for w := 0; w < words; w++ {
					out := rin[i][w] | gen[i][w]
					if out&^rin[j][w] != 0 {
						rin[j][w] |= out
						changed = true
					}
				}
			}
		}
	}
	for i, b := range f.Blocks {
		if !reachable[i] {
			continue
		}
		have := append([]uint64(nil), rin[i]...)
		for j := range b.Instrs {
			in := &b.Instrs[j]
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				if have[u/64]&(1<<(u%64)) == 0 {
					return fmt.Errorf("%s/%s[%d]: %v used but no definition reaches it", f.Name, b.Name, j, u)
				}
			}
			if d := in.Def(); d != NoReg {
				have[d/64] |= 1 << (d % 64)
			}
		}
	}
	return nil
}
