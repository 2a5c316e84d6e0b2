package check

// Facts is the exported per-region analysis artifact (`compose-lint
// -facts`): what is provable about a region without running it — loop
// headers with trip-count bounds where derivable, dominance structure,
// guardable branch sites, and per-block constant facts. The encoding is
// deliberately map-free (slices ordered by block / instruction index) so
// the JSON serialization is byte-identical across runs and processes.

import (
	"fmt"

	"compisa/internal/code"
)

// Facts is the analysis summary of one compiled region.
type Facts struct {
	Program     string       `json:"program"`
	FS          string       `json:"feature_set"`
	NumInstrs   int          `json:"num_instrs"`
	Irreducible bool         `json:"irreducible,omitempty"`
	Blocks      []BlockFacts `json:"blocks"`
	Loops       []LoopFacts  `json:"loops,omitempty"`
	Guards      []GuardFacts `json:"guards,omitempty"`
}

// BlockFacts describes one basic block.
type BlockFacts struct {
	Index     int    `json:"index"`
	Start     int    `json:"start"`
	End       int    `json:"end"`
	StartPC   uint32 `json:"start_pc,omitempty"`
	Reachable bool   `json:"reachable"`
	// Idom is the immediate dominator's block index (-1 for unreachable
	// blocks; the entry is its own idom).
	Idom int `json:"idom"`
	// Frontier is the dominance frontier, ascending.
	Frontier []int `json:"frontier,omitempty"`
	// LoopDepth is the loop-nesting depth (0 outside any loop).
	LoopDepth int `json:"loop_depth,omitempty"`
	// Consts lists registers with a provably constant value at block
	// entry, ascending by register number (only registers the program
	// references; the untouched rest of the file is trivially zero).
	Consts []RegFact `json:"consts,omitempty"`
}

// RegFact is one provably constant register at a block entry.
type RegFact struct {
	Reg   string `json:"reg"`
	Value uint64 `json:"value"`
}

// LoopFacts describes one natural loop.
type LoopFacts struct {
	Header  int   `json:"header"`
	Blocks  []int `json:"blocks"`
	Latches []int `json:"latches"`
	Depth   int   `json:"depth"`
	// TripCount is the exact iteration count when the loop matches the
	// canonical counted form and its bound is derivable; 0 when unknown.
	TripCount int64 `json:"trip_count,omitempty"`
}

// GuardFacts is one guardable branch site: a conditional branch whose
// outcome is not statically constant, so its direction is decided only at
// run time.
type GuardFacts struct {
	Index     int     `json:"index"`
	PC        uint32  `json:"pc,omitempty"`
	CC        string  `json:"cc"`
	Target    int32   `json:"target"`
	LoopDepth int     `json:"loop_depth"`
	TakenProb float32 `json:"taken_prob,omitempty"`
}

// ComputeFacts runs the analysis engine over a laid-out program and
// returns its Facts. It fails only when the program is structurally broken
// (empty, or branch targets out of range) so no CFG can be recovered.
func ComputeFacts(p *code.Program) (*Facts, error) {
	if err := structural(p); err != nil {
		return nil, fmt.Errorf("check: facts for %s: %w", p.Name, err)
	}
	a := newAnalysis(p)
	return a.facts(), nil
}

func (a *analysis) facts() *Facts {
	p := a.p
	g := a.cfg
	d := a.domTree()
	li := a.loopInfo()
	ins := a.constStates()
	kinds := a.branchFacts()
	hasPC := len(p.PC) == len(p.Instrs)

	// Only registers the program references produce constant facts; the
	// rest of the file sits at its entry value and would bloat the output.
	var refInt [64]bool
	var scratch []code.Reg
	for i := range p.Instrs {
		scratch = p.Instrs[i].IntRegs(scratch[:0])
		for _, r := range scratch {
			if int(r) < len(refInt) {
				refInt[r] = true
			}
		}
	}

	f := &Facts{
		Program:     p.Name,
		FS:          p.FS.ShortName(),
		NumInstrs:   len(p.Instrs),
		Irreducible: li.Irreducible,
		Blocks:      make([]BlockFacts, len(g.Blocks)),
	}
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		bf := BlockFacts{
			Index:     bi,
			Start:     b.Start,
			End:       b.End,
			Reachable: b.Reachable,
			Idom:      d.Idom[bi],
			Frontier:  d.Frontier[bi],
			LoopDepth: li.Depth[bi],
		}
		if hasPC {
			bf.StartPC = p.PC[b.Start]
		}
		if st := ins[bi]; st != nil {
			for r := range st.reg {
				if refInt[r] && st.reg[r].isConst() {
					bf.Consts = append(bf.Consts, RegFact{Reg: "r" + itoa(r), Value: st.reg[r].Lo})
				}
			}
		}
		f.Blocks[bi] = bf
	}
	for i := range li.Loops {
		l := &li.Loops[i]
		f.Loops = append(f.Loops, LoopFacts{
			Header:    l.Header,
			Blocks:    l.Blocks,
			Latches:   l.Latches,
			Depth:     l.Depth,
			TripCount: a.deriveTripCount(i),
		})
	}
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		if !b.Reachable || kinds[bi] != branchUnknown {
			continue
		}
		last := &p.Instrs[b.End-1]
		if last.Op != code.JCC {
			continue
		}
		gf := GuardFacts{
			Index:     b.End - 1,
			CC:        last.CC.String(),
			Target:    last.Target,
			LoopDepth: li.Depth[bi],
			TakenProb: last.TakenProb,
		}
		if hasPC {
			gf.PC = p.PC[b.End-1]
		}
		f.Guards = append(f.Guards, gf)
	}
	return f
}

// tripCap bounds the trip-count recurrence simulation; loops longer than
// this simply get no static bound.
const tripCap = 1 << 20

// deriveTripCount recognizes the canonical rotated counted loop —
//
//	header: ...            ; induction register rI defined nowhere else
//	   ...
//	exit:   ...
//	        ADD rI, $step  ; step > 0, unpredicated
//	        CMP rI, $bound
//	        JCC cc         ; one edge continues the loop, one leaves it
//
// — with a constant initial value flowing in from every non-loop
// predecessor of the header, and computes the exact iteration count by
// running the recurrence under the executor's masking and flag semantics.
// Any deviation from the pattern yields 0 (unknown).
func (a *analysis) deriveTripCount(loopIdx int) int64 {
	p := a.p
	g := a.cfg
	d := a.domTree()
	li := a.loopInfo()
	l := &li.Loops[loopIdx]

	// Exactly one exiting block, ending in an unpredicated JCC with one
	// successor inside the loop and one outside.
	exit := -1
	for _, b := range l.Blocks {
		for _, s := range g.Blocks[b].Succs {
			if !l.Contains(s) {
				if exit >= 0 && exit != b {
					return 0
				}
				exit = b
			}
		}
	}
	if exit < 0 || li.LoopOf[exit] != loopIdx {
		return 0
	}
	eb := &g.Blocks[exit]
	jcc := &p.Instrs[eb.End-1]
	if jcc.Op != code.JCC || jcc.Predicated() || len(eb.Succs) != 2 {
		return 0
	}
	takenLeaves := !l.Contains(eb.Succs[0])
	fallLeaves := !l.Contains(eb.Succs[1])
	if takenLeaves == fallLeaves {
		return 0
	}
	// The exit test must run exactly once per iteration.
	for _, t := range l.Latches {
		if !d.Dominates(exit, t) {
			return 0
		}
	}

	// The flag state at the JCC must come from CMP rI, $bound with nothing
	// clobbering the flags or rI in between.
	cmpIdx := -1
	for i := eb.End - 2; i >= eb.Start; i-- {
		if p.Instrs[i].Op.WritesFlags() {
			cmpIdx = i
			break
		}
	}
	if cmpIdx < 0 {
		return 0
	}
	cmp := &p.Instrs[cmpIdx]
	if cmp.Op != code.CMP || !cmp.HasImm || cmp.Predicated() {
		return 0
	}
	ind := cmp.Src1
	var defs []int
	for i := cmpIdx + 1; i < eb.End-1; i++ {
		for _, def := range instrDefs(&p.Instrs[i], defs[:0]) {
			if def == resInt(ind) {
				return 0
			}
		}
	}

	// rI has exactly one definition in the loop: ADD rI, $step before the
	// CMP in the exit block.
	addIdx := -1
	for _, b := range l.Blocks {
		for i := g.Blocks[b].Start; i < g.Blocks[b].End; i++ {
			for _, def := range instrDefs(&p.Instrs[i], defs[:0]) {
				if def == resInt(ind) {
					if addIdx >= 0 {
						return 0
					}
					addIdx = i
				}
			}
		}
	}
	if addIdx < 0 || g.blockOf[addIdx] != exit || addIdx >= cmpIdx {
		return 0
	}
	add := &p.Instrs[addIdx]
	if add.Op != code.ADD || add.Dst != ind || add.Src1 != ind ||
		!add.HasImm || add.Imm <= 0 || add.Predicated() {
		return 0
	}

	// Constant initial value from every non-loop predecessor of the header.
	ins := a.constStates()
	haveInit := false
	var init uint64
	st := a.constDom.Entry() // scratch, overwritten per predecessor
	for _, pb := range g.Blocks[l.Header].Preds {
		if l.Contains(pb) {
			continue
		}
		if ins[pb] == nil {
			return 0
		}
		a.constDom.CopyInto(st, ins[pb])
		for i := g.Blocks[pb].Start; i < g.Blocks[pb].End; i++ {
			a.constDom.Transfer(st, i, &p.Instrs[i])
		}
		v := st.getReg(ind)
		if !v.isConst() || (haveInit && v.Lo != init) {
			return 0
		}
		init, haveInit = v.Lo, true
	}
	if !haveInit {
		return 0
	}

	// Run the recurrence under executor semantics.
	v := init
	step := uint64(add.Imm) & szMask(add.Sz)
	bound := uint64(cmp.Imm) & szMask(cmp.Sz)
	for trips := int64(1); trips <= tripCap; trips++ {
		v = (v + step) & szMask(add.Sz)
		cv := v & szMask(cmp.Sz)
		taken := condFlags(subFlags(cv, bound, cv-bound, false, cmp.Sz), jcc.CC)
		if taken == takenLeaves {
			return trips
		}
	}
	return 0
}
