package check

// The rules in this file are powered by the analysis engine (abstract
// interpretation in absint.go) rather than by per-instruction shape
// checks: dead blocks, provably constant branches, statically out-of-range
// memory accesses, redundant spill/reload pairs, and stack-height
// mismatches at join points. They only report facts that are provable in
// the abstract semantics, whose flag and width functions are the
// executor's own (internal/code), so clean compiler output stays
// finding-free.

import (
	"fmt"
	"math"

	"compisa/internal/code"
)

// Constant-branch verdicts per block (branchFacts).
const (
	branchUnknown int8 = iota
	branchAlways
	branchNever
)

// branchFacts classifies each reachable block ending in an unpredicated
// JCC: always taken, never taken, or unknown, by flowing the constant
// domain from the block's entry state to the branch and checking whether
// the flags are fully known there.
func (a *analysis) branchFacts() []int8 {
	if a.branchKind != nil {
		return a.branchKind
	}
	g := a.cfg
	kinds := make([]int8, len(g.Blocks))
	ins := a.constStates()
	st := a.constDom.Entry() // scratch, overwritten per block
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		if !b.Reachable || ins[bi] == nil {
			continue
		}
		last := &a.p.Instrs[b.End-1]
		if last.Op != code.JCC || last.Predicated() {
			continue
		}
		a.constDom.CopyInto(st, ins[bi])
		for i := b.Start; i < b.End-1; i++ {
			a.constDom.Transfer(st, i, &a.p.Instrs[i])
		}
		if !st.flags.known {
			continue
		}
		if st.flags.f.Cond(last.CC) {
			kinds[bi] = branchAlways
		} else {
			kinds[bi] = branchNever
		}
	}
	a.branchKind = kinds
	return kinds
}

// prunedReachable recomputes reachability after deleting the CFG edges a
// provably constant branch can never follow. Blocks that are structurally
// reachable but unreachable in the pruned graph are dead in every
// execution.
func (a *analysis) prunedReachable() []bool {
	g := a.cfg
	kinds := a.branchFacts()
	live := make([]bool, len(g.Blocks))
	if len(g.Blocks) == 0 {
		return live
	}
	stack := []int{0}
	live[0] = true
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succs := g.Blocks[bi].Succs
		// A constant JCC block follows exactly one of its two edges: the
		// target (Succs[0]) when always taken, the fallthrough otherwise.
		if kinds[bi] == branchAlways {
			succs = succs[:1]
		} else if kinds[bi] == branchNever && len(succs) == 2 {
			succs = succs[1:]
		}
		for _, s := range succs {
			if !live[s] {
				live[s] = true
				stack = append(stack, s)
			}
		}
	}
	return live
}

// checkDeadBlock reports blocks no execution can reach: structurally
// unreachable ones (no path of CFG edges from the entry — a SevError,
// since the encoder paid for bytes the region cannot use and upstream
// passes clearly miscompiled) and blocks reachable only through provably
// never-taken branch edges (SevWarn: the code is live in the CFG but dead
// in the abstract semantics).
func checkDeadBlock(a *analysis) []Finding {
	g := a.cfg
	var out []Finding
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		if !b.Reachable {
			out = append(out, a.finding(RuleDeadBlock, b.Start,
				fmt.Sprintf("unreachable code (block of %d instruction(s))", b.End-b.Start)))
		}
	}
	live := a.prunedReachable()
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		if b.Reachable && !live[bi] {
			f := a.finding(RuleDeadBlock, b.Start,
				fmt.Sprintf("dead code: block of %d instruction(s) reachable only through provably never-taken branches", b.End-b.Start))
			f.Severity = SevWarn
			out = append(out, f)
		}
	}
	return out
}

// checkBranch flags conditional branches whose outcome is statically
// certain: the flags at the JCC are fully known in the constant domain.
// Such a branch wastes a predictor slot and encodes a control decision
// that is not one; on compiler output it means a guard was not folded.
func checkBranch(a *analysis) []Finding {
	g := a.cfg
	kinds := a.branchFacts()
	var out []Finding
	for bi := range g.Blocks {
		if kinds[bi] == branchUnknown {
			continue
		}
		b := &g.Blocks[bi]
		way := "always"
		if kinds[bi] == branchNever {
			way = "never"
		}
		f := a.finding(RuleBranch, b.End-1,
			fmt.Sprintf("conditional branch is provably %s taken (flags constant at this point)", way))
		f.Severity = SevWarn
		out = append(out, f)
	}
	return out
}

// Legal data-access windows for checkMemRange: the workload data region
// and the pool/spill/context region (contiguous: pool at PoolBase, spills
// at SpillBase, saved context at ContextBase). ctxWindow is deliberately
// generous — the rule only ever claims an access is *provably outside*
// every window.
const ctxWindow = 1 << 20

// checkMemRange flags memory accesses whose abstract effective address
// interval is provably disjoint from every legal data window. LEA is
// exempt (it computes an address without accessing memory), as is any
// access whose address is not statically bounded.
func checkMemRange(a *analysis) []Finding {
	g := a.cfg
	ins := a.constStates()
	var out []Finding
	st := a.constDom.Entry() // scratch, overwritten per block
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		if !b.Reachable || ins[bi] == nil {
			continue
		}
		a.constDom.CopyInto(st, ins[bi])
		for i := b.Start; i < b.End; i++ {
			in := &a.p.Instrs[i]
			if in.HasMem && in.Op != code.LEA {
				ea := a.constDom.absEA(st, in.Mem)
				size := uint64(in.Sz)
				if size == 0 {
					size = 1
				}
				if ea.Hi <= math.MaxUint64-(size-1) {
					end := ea.Hi + size - 1
					disjoint := func(lo, hi uint64) bool { return end < lo || ea.Lo >= hi }
					if disjoint(code.DataBase, code.DataLimit) &&
						disjoint(code.PoolBase, code.ContextBase+ctxWindow) {
						out = append(out, a.finding(RuleMemRange, i,
							fmt.Sprintf("memory access at [%#x, %#x] is provably outside the data and pool/spill windows", ea.Lo, end)))
					}
				}
			}
			a.constDom.Transfer(st, i, in)
		}
	}
	return out
}

// checkSpillPair flags redundant spill/reload pairs inside a block: a
// reload from a spill slot whose value was stored from the same register
// earlier in the block, with neither the register nor the slot touched in
// between — the reload can only reproduce what the register already
// holds. Predicated stores or loads are exempt (the pair is conditional),
// and any store outside the spill area conservatively invalidates all
// tracked pairs (it could alias a slot through a pointer).
func checkSpillPair(a *analysis) []Finding {
	g := a.cfg
	var out []Finding
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		if !b.Reachable {
			continue
		}
		for _, k := range RedundantSpillReloads(a.p.Instrs[b.Start:b.End]) {
			i := b.Start + k
			addr, _ := spillSlotRef(&a.p.Instrs[i])
			f := a.finding(RuleSpillPair, i,
				fmt.Sprintf("redundant reload: spill slot %#x still holds the value of its destination register (the compiler's peephole removes these)", addr))
			f.Severity = SevWarn
			out = append(out, f)
		}
	}
	return out
}

// spillStoreOf maps each spill-reload opcode to its matching store.
var spillStoreOf = map[code.Op]code.Op{
	code.LD:  code.ST,
	code.FLD: code.FST,
	code.VLD: code.VST,
}

// mergeLegReload reports whether the reload at index i is the old-value leg
// of a predicated-merge spill sequence: every subsequent touch of the
// reloaded register up to the store back into the same slot is a predicated
// (or CMOV) def. That is the compiler's read-modify-write discipline for
// spilled registers defined under a predicate — the slot legitimately may
// be uninitialized on first execution, because every real consumer of the
// merged value is guarded by the same predicate.
func (a *analysis) mergeLegReload(end, i, res int, addr int32) bool {
	reg := a.p.Instrs[i].Dst
	wantStore := spillStoreOf[a.p.Instrs[i].Op]
	var scratch []int
	for j := i + 1; j < end; j++ {
		in := &a.p.Instrs[j]
		if a2, ok := spillSlotRef(in); ok && in.Op == wantStore && !in.Predicated() &&
			a2 == addr && in.Src1 == reg {
			return true
		}
		defsR := false
		for _, d := range instrDefs(in, scratch[:0]) {
			if d == res {
				defsR = true
			}
		}
		if defsR && (in.Predicated() || in.Op == code.CMOVCC) {
			continue // the merge itself may read and write the register
		}
		usesR := false
		for _, u := range instrUses(in, scratch[:0]) {
			if u == res {
				usesR = true
			}
		}
		if defsR || usesR {
			return false
		}
	}
	return false
}

// checkStackJoin flags the stack-height mismatches the may-analysis in
// checkStack cannot see: a spill refill whose slot is initialized on some
// path from the entry (so the stack rule is silent) but provably not on
// all of them. On the uninitialized path, the reload reads garbage — the
// classic diverging-spill-height-at-join miscompilation. Reloads that only
// feed a predicated merge stored back to the same slot are exempt (see
// mergeLegReload).
func checkStackJoin(a *analysis) []Finding {
	slots := a.spillSlots()
	if len(slots) == 0 {
		return nil
	}
	g := a.cfg
	mayIn := a.spillMayStoredIn()
	mustIn := a.spillMustStoredIn()
	dom := &spillMustDomain{slots: slots}
	var out []Finding
	// Scratch states, overwritten per block.
	may, must := NewBitSet(len(slots)), dom.Entry()
	for bi := range g.Blocks {
		if !g.Blocks[bi].Reachable || mustIn[bi] == nil {
			continue
		}
		copy(may, mayIn[bi])
		dom.CopyInto(must, mustIn[bi])
		for i := g.Blocks[bi].Start; i < g.Blocks[bi].End; i++ {
			in := &a.p.Instrs[i]
			if addr, ok := spillSlotRef(in); ok && isSpillLoad(in.Op) {
				s := slots[addr]
				if may.Has(s) && !must.stored.Has(s) {
					res := resInt(in.Dst)
					if in.Op != code.LD {
						res = resFP(in.Dst)
					}
					if !a.mergeLegReload(g.Blocks[bi].End, i, res, addr) {
						out = append(out, a.finding(RuleStackJoin, i,
							fmt.Sprintf("refill from spill slot %#x initialized on only some paths to this point (stack-height mismatch at a join)", addr)))
					}
				}
			}
			if addr, ok := spillSlotRef(in); ok && isSpillStore(in.Op) {
				may.Set(slots[addr])
			}
			dom.Transfer(must, i, in)
		}
	}
	return out
}
