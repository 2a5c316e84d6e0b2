package check

import (
	"fmt"
	"slices"

	"compisa/internal/code"
	"compisa/internal/isa"
)

// Stable rule identifiers. Tests and the mutation harness assert on these.
const (
	RuleCFG        = "cfg"        // CFG shape: targets, termination, reachability
	RuleDepth      = "depth"      // register numbers within the feature set's depth
	RuleWidth      = "width"      // operand sizes within the register width
	RulePred       = "pred"       // predication legality
	RuleSIMD       = "simd"       // vector-op legality
	RuleComplexity = "complexity" // memory-operand folding under microx86
	RuleImm        = "imm"        // immediate and operand-size ranges
	RuleStruct     = "struct"     // operand-shape invariants of the encoding/executor
	RuleStack      = "stack"      // spill-slot discipline (stores balance refills)
	RuleUDef       = "udef"       // use of a never-written machine resource
	RuleEncode     = "encode"     // encode → ILD-decode round-trip agreement

	// Rules powered by the analysis engine (abstract interpretation; see
	// absint.go).
	RuleDeadBlock = "deadblock" // unreachable or provably-dead blocks
	RuleBranch    = "branch"    // provably always- or never-taken conditional branches
	RuleMemRange  = "memrange"  // statically out-of-range memory accesses
	RuleSpillPair = "spillpair" // redundant spill/reload pairs
	RuleStackJoin = "stackjoin" // spill slots initialized on only some paths to a refill
)

// Rule is one registered conformance check.
type Rule struct {
	ID   string
	Desc string
	// NeedsCFG marks rules that require successful CFG recovery (they are
	// skipped, with the cfg rule reporting why, when recovery fails).
	NeedsCFG bool
	Check    func(a *analysis) []Finding
}

// Rules returns the rule registry in registration order.
func Rules() []Rule { return ruleRegistry }

// RuleIDs lists every registered rule ID.
func RuleIDs() []string {
	ids := make([]string, len(ruleRegistry))
	for i, r := range ruleRegistry {
		ids[i] = r.ID
	}
	return ids
}

// OperandRuleIDs lists the stateless per-instruction rules — the subset the
// encoding fuzzer applies to single synthesized instructions, where
// whole-program dataflow facts are meaningless.
func OperandRuleIDs() []string {
	return []string{RuleDepth, RuleWidth, RulePred, RuleSIMD, RuleComplexity, RuleImm, RuleStruct}
}

var ruleRegistry = []Rule{
	{ID: RuleCFG, Desc: "branch targets in range, no fall-off, no unreachable code", Check: checkCFGRule},
	{ID: RuleDepth, Desc: "register numbers within the register depth", Check: checkDepth},
	{ID: RuleWidth, Desc: "operand sizes within the register width", Check: checkWidth},
	{ID: RulePred, Desc: "predication legality for the feature set", Check: checkPred},
	{ID: RuleSIMD, Desc: "packed-SSE legality for the feature set", Check: checkSIMD},
	{ID: RuleComplexity, Desc: "memory-operand folding only under full x86", Check: checkComplexity},
	{ID: RuleImm, Desc: "immediate and operand-size ranges", Check: checkImm},
	{ID: RuleStruct, Desc: "operand-shape invariants", Check: checkStruct},
	{ID: RuleStack, Desc: "spill refills reached by a spill store on some path", NeedsCFG: true, Check: checkStack},
	{ID: RuleUDef, Desc: "no use of a never-written register or flag", NeedsCFG: true, Check: checkUDef},
	{ID: RuleEncode, Desc: "encode → decode round trip agrees with layout", Check: checkEncode},
	{ID: RuleDeadBlock, Desc: "no unreachable or provably dead blocks", NeedsCFG: true, Check: checkDeadBlock},
	{ID: RuleBranch, Desc: "no provably constant conditional branches", NeedsCFG: true, Check: checkBranch},
	{ID: RuleMemRange, Desc: "memory accesses stay inside the legal address windows", NeedsCFG: true, Check: checkMemRange},
	{ID: RuleSpillPair, Desc: "no redundant spill store/reload pairs", NeedsCFG: true, Check: checkSpillPair},
	{ID: RuleStackJoin, Desc: "spill refills initialized on every path, not just some", NeedsCFG: true, Check: checkStackJoin},
}

// analysis carries the program plus lazily computed artifacts shared by the
// rules.
type analysis struct {
	p      *code.Program
	cfg    *CFG
	cfgErr error

	defsIn     []BitSet
	liveInSets []BitSet

	rpo []int

	constDom *constDomain
	constIn  []*constState
	// branchKind caches the per-block constant-branch verdict (see
	// branchFacts).
	branchKind []int8

	// slotIDs numbers the distinct spill addresses in first-appearance
	// order; slotsReady distinguishes "not computed" from "no slots".
	slotIDs    map[int32]int
	slotsReady bool
	spillMayIn []BitSet
	mustIn     []*spillMustState
}

// reversePostorder lazily orders the reachable blocks in reverse
// postorder (CFG recovery must have succeeded; callers are NeedsCFG rules).
func (a *analysis) reversePostorder() []int {
	if a.rpo == nil {
		a.rpo = a.cfg.postorder()
		slices.Reverse(a.rpo)
	}
	return a.rpo
}

// constStates lazily runs the constant/value-range interpretation and
// returns per-block entry states (nil for unreachable blocks).
func (a *analysis) constStates() []*constState {
	if a.constDom == nil {
		a.constDom = newConstDomain(a.p)
		a.constIn, _ = interpret(a.p, a.cfg, a.reversePostorder(), a.constDom)
	}
	return a.constIn
}

// spillSlotRef reports whether the instruction addresses the register
// allocator's spill area (absolute addressing inside [SpillBase,
// ContextBase)) and at which address.
func spillSlotRef(in *code.Instr) (int32, bool) {
	if !in.HasMem || in.Mem.Base != code.NoReg || in.Mem.Index != code.NoReg {
		return 0, false
	}
	if in.Mem.Disp < code.SpillBase || int64(in.Mem.Disp) >= int64(code.ContextBase) {
		return 0, false
	}
	return in.Mem.Disp, true
}

func isSpillStore(op code.Op) bool { return op == code.ST || op == code.FST || op == code.VST }
func isSpillLoad(op code.Op) bool  { return op == code.LD || op == code.FLD || op == code.VLD }

// spillSlots numbers the distinct spill addresses the program touches, in
// first-appearance order (deterministic).
func (a *analysis) spillSlots() map[int32]int {
	if !a.slotsReady {
		a.slotIDs = map[int32]int{}
		for i := range a.p.Instrs {
			if addr, ok := spillSlotRef(&a.p.Instrs[i]); ok {
				if _, seen := a.slotIDs[addr]; !seen {
					a.slotIDs[addr] = len(a.slotIDs)
				}
			}
		}
		a.slotsReady = true
	}
	return a.slotIDs
}

// spillMayStoredIn lazily runs the forward may-reaching spill-store
// analysis (union meet) and returns per-block entry facts.
func (a *analysis) spillMayStoredIn() []BitSet {
	if a.spillMayIn != nil {
		return a.spillMayIn
	}
	slots := a.spillSlots()
	g := a.cfg
	tf := make([]GenKill, len(g.Blocks))
	for bi := range g.Blocks {
		gen := NewBitSet(len(slots))
		for i := g.Blocks[bi].Start; i < g.Blocks[bi].End; i++ {
			in := &a.p.Instrs[i]
			if addr, ok := spillSlotRef(in); ok && isSpillStore(in.Op) {
				gen.Set(slots[addr])
			}
		}
		tf[bi] = GenKill{Gen: gen, Kill: NewBitSet(len(slots))}
	}
	a.spillMayIn, _ = Solve(g, len(slots), Forward, tf)
	return a.spillMayIn
}

// spillMustStoredIn lazily runs the must-reaching spill-store abstract
// interpretation (intersection meet) and returns per-block entry states
// (nil for unreachable blocks).
func (a *analysis) spillMustStoredIn() []*spillMustState {
	if a.mustIn == nil {
		dom := &spillMustDomain{slots: a.spillSlots()}
		a.mustIn, _ = interpret(a.p, a.cfg, a.reversePostorder(), dom)
	}
	return a.mustIn
}

// target resolves the program's non-default encoding target, or nil when the
// program uses the default x86 encoding (whose legality the feature-set
// rules already govern) or names an unknown target (rejected by Validate).
func (a *analysis) target() *isa.Target {
	tgt, ok := isa.TargetByName(a.p.Target)
	if !ok || tgt.Default() {
		return nil
	}
	return tgt
}

func newAnalysis(p *code.Program) *analysis {
	a := &analysis{p: p}
	if err := structural(p); err != nil {
		a.cfgErr = err
		return a
	}
	a.cfg = recoverCFG(p)
	return a
}

// structural reports the program-shape problems that make CFG recovery
// impossible (the cfg rule re-derives them as findings).
func structural(p *code.Program) error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("empty program")
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op == code.JCC || in.Op == code.JMP {
			if in.Target < 0 || int(in.Target) >= len(p.Instrs) {
				return fmt.Errorf("branch target out of range")
			}
		}
	}
	return nil
}

func (a *analysis) finding(rule string, idx int, detail string) Finding {
	f := Finding{Rule: rule, Index: idx, Severity: SevError, Detail: detail}
	if idx >= 0 {
		in := &a.p.Instrs[idx]
		f.Instr = code.FormatInstr(in)
		if len(a.p.PC) == len(a.p.Instrs) {
			f.PC = a.p.PC[idx]
		}
	}
	return f
}

func checkCFGRule(a *analysis) []Finding {
	p := a.p
	var out []Finding
	if len(p.Instrs) == 0 {
		return []Finding{{Rule: RuleCFG, Index: -1, Severity: SevError, Detail: "empty program"}}
	}
	hasRet := false
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op == code.RET {
			hasRet = true
		}
		if in.Op == code.JCC || in.Op == code.JMP {
			if in.Target < 0 || int(in.Target) >= len(p.Instrs) {
				out = append(out, a.finding(RuleCFG, i,
					fmt.Sprintf("branch target %d outside [0, %d)", in.Target, len(p.Instrs))))
			}
		}
	}
	if !hasRet {
		out = append(out, Finding{Rule: RuleCFG, Index: -1, Severity: SevError, Detail: "program has no RET"})
	}
	if last := p.Instrs[len(p.Instrs)-1].Op; last != code.RET && last != code.JMP {
		out = append(out, a.finding(RuleCFG, len(p.Instrs)-1,
			fmt.Sprintf("execution can fall off the end (last op %v)", last)))
	}
	// Unreachable blocks are the deadblock rule's findings now that
	// reachability feeds the analysis engine.
	return out
}

func checkDepth(a *analysis) []Finding {
	fs := a.p.FS
	var out []Finding
	var iregs, fregs []code.Reg
	for i := range a.p.Instrs {
		in := &a.p.Instrs[i]
		iregs = in.IntRegs(iregs[:0])
		for _, r := range iregs {
			if int(r) >= fs.Depth {
				out = append(out, a.finding(RuleDepth, i,
					fmt.Sprintf("integer register r%d exceeds register depth %d", r, fs.Depth)))
			}
		}
		fregs = in.FPRegs(fregs[:0])
		for _, r := range fregs {
			if int(r) >= fs.FPRegs() {
				out = append(out, a.finding(RuleDepth, i,
					fmt.Sprintf("fp register x%d exceeds the %d xmm registers", r, fs.FPRegs())))
			}
		}
	}
	return out
}

func checkWidth(a *analysis) []Finding {
	fs := a.p.FS
	if fs.Width != 32 {
		return nil
	}
	var out []Finding
	for i := range a.p.Instrs {
		in := &a.p.Instrs[i]
		if in.Sz != 8 || in.Op.IsFP() {
			continue
		}
		switch in.Op {
		case code.FST, code.FCMP, code.CVTFI:
			// 8-byte scalar FP data is legal on 32-bit cores (SSE).
		default:
			out = append(out, a.finding(RuleWidth, i, "64-bit integer operation on a 32-bit feature set"))
		}
	}
	return out
}

func checkPred(a *analysis) []Finding {
	fs := a.p.FS
	var out []Finding
	for i := range a.p.Instrs {
		in := &a.p.Instrs[i]
		if !in.Predicated() {
			continue
		}
		if fs.Predication != isa.FullPredication {
			out = append(out, a.finding(RulePred, i,
				"predicate prefix on a partial-predication feature set (only CMOV may predicate)"))
		}
		if in.Op.IsBranch() {
			out = append(out, a.finding(RulePred, i, "branches cannot carry a predicate prefix"))
		}
	}
	return out
}

func checkSIMD(a *analysis) []Finding {
	if a.p.FS.HasSIMD() {
		return nil
	}
	var out []Finding
	for i := range a.p.Instrs {
		in := &a.p.Instrs[i]
		if in.Op.IsVector() {
			out = append(out, a.finding(RuleSIMD, i, "packed-SSE op on a feature set without SIMD"))
		} else if in.Sz == 16 {
			// A 16-byte move (fmov.16) still needs the 128-bit datapath.
			out = append(out, a.finding(RuleSIMD, i, "16-byte operand on a feature set without SIMD"))
		}
	}
	return out
}

func checkComplexity(a *analysis) []Finding {
	if a.p.FS.Complexity != isa.MicroX86 {
		return nil
	}
	var out []Finding
	for i := range a.p.Instrs {
		if a.p.Instrs[i].MemSrcALU() {
			out = append(out, a.finding(RuleComplexity, i,
				"memory-operand ALU folding under microx86 (1:1 decode discipline)"))
		}
	}
	return out
}

func checkImm(a *analysis) []Finding {
	var out []Finding
	tgt := a.target()
	for i := range a.p.Instrs {
		in := &a.p.Instrs[i]
		if tgt != nil {
			if in.HasImm && !code.ImmOK(in.Op, in.Imm, tgt) {
				out = append(out, a.finding(RuleImm, i,
					fmt.Sprintf("immediate %d exceeds the %s target's %d-bit field", in.Imm, tgt.Name, tgt.ImmBits)))
			}
			if in.HasMem && !code.DispOK(in.Mem.Disp, tgt) {
				out = append(out, a.finding(RuleImm, i,
					fmt.Sprintf("displacement %d exceeds the %s target's %d-bit field", in.Mem.Disp, tgt.Name, tgt.DispBits)))
			}
		}
		if in.HasImm {
			if in.Op == code.SHL || in.Op == code.SHR || in.Op == code.SAR {
				bits := int64(in.Sz) * 8
				if in.Imm < 0 || in.Imm >= bits {
					out = append(out, a.finding(RuleImm, i,
						fmt.Sprintf("shift count %d outside [0, %d)", in.Imm, bits)))
				}
			} else if !(in.Op == code.MOV && in.Sz == 8) {
				// Only MOV has an imm64 (movabs) form; everything else
				// encodes at most an imm32 and would silently truncate.
				// The executor masks immediates to the operand size, so a
				// 4-byte op accepts the full signed-or-unsigned 32-bit
				// range; an 8-byte op sign-extends the imm32, so values
				// past 2^31-1 would flip sign.
				lo, hi := int64(-1)<<31, int64(1)<<32-1
				switch in.Sz {
				case 8:
					hi = 1<<31 - 1
				case 1:
					lo, hi = -128, 255
				}
				if in.Imm < lo || in.Imm > hi {
					out = append(out, a.finding(RuleImm, i,
						fmt.Sprintf("immediate %d is not representable in a %d-byte operation's imm32", in.Imm, in.Sz)))
				}
			}
		}
		if sz := in.Sz; sz != 0 {
			ok := sz == 1 || sz == 4 || sz == 8 || sz == 16
			if !ok {
				out = append(out, a.finding(RuleImm, i, fmt.Sprintf("invalid operand size %d", sz)))
			}
			if sz == 16 && !in.Op.IsVector() && in.Op != code.FMOV {
				// FMOV.16 is the whole-xmm register move the compiler uses
				// to shuffle packed values; everything else is scalar.
				out = append(out, a.finding(RuleImm, i, "16-byte operand size on a non-vector op"))
			}
			if in.Op.IsVector() && sz != 16 {
				out = append(out, a.finding(RuleImm, i,
					fmt.Sprintf("vector op with %d-byte operand size (must be 16)", sz)))
			}
		}
	}
	return out
}

// memOps lists the ops for which the executor implements a memory operand
// (dedicated memory ops plus the ALU folding cases of cpu.step's
// intOp2/fpOp2 and CMOV's unconditional load).
func memLegal(op code.Op) bool {
	switch op {
	case code.LD, code.ST, code.FLD, code.FST, code.VLD, code.VST, code.LEA,
		code.ADD, code.SUB, code.IMUL, code.AND, code.OR, code.XOR,
		code.ADC, code.SBB, code.CMP, code.TEST, code.CMOVCC,
		code.FADD, code.FSUB, code.FMUL, code.FDIV,
		code.VADDF, code.VSUBF, code.VMULF, code.VADDI, code.VSUBI, code.VMULI:
		return true
	}
	return false
}

func checkStruct(a *analysis) []Finding {
	var out []Finding
	tgt := a.target()
	for i := range a.p.Instrs {
		in := &a.p.Instrs[i]
		if tgt != nil {
			if err := code.TargetShapeOK(in, tgt); err != nil {
				out = append(out, a.finding(RuleStruct, i, err.Error()))
			}
		}
		if in.HasImm && in.Src2 != code.NoReg {
			out = append(out, a.finding(RuleStruct, i, "both an immediate and a second register source"))
		}
		if in.HasMem {
			if !memLegal(in.Op) {
				out = append(out, a.finding(RuleStruct, i,
					fmt.Sprintf("%v does not support a memory operand", in.Op)))
			}
			switch in.Mem.Scale {
			case 1, 2, 4, 8:
			default:
				out = append(out, a.finding(RuleStruct, i,
					fmt.Sprintf("invalid index scale %d", in.Mem.Scale)))
			}
			if in.Mem.Base == code.NoReg && in.Mem.Index != code.NoReg {
				out = append(out, a.finding(RuleStruct, i,
					"absolute addressing with an index register is not encodable"))
			}
		}
	}
	return out
}

// checkStack enforces the spill-area discipline: every refill load from the
// register allocator's spill area must be reachable from at least one spill
// store to the same slot. It runs forward reaching-stores dataflow over the
// recovered CFG with one bit per distinct spill address.
func checkStack(a *analysis) []Finding {
	p := a.p
	slots := a.spillSlots()
	if len(slots) == 0 {
		return nil
	}
	g := a.cfg
	storedIn := a.spillMayStoredIn()
	var out []Finding
	for bi := range g.Blocks {
		if !g.Blocks[bi].Reachable {
			continue
		}
		stored := storedIn[bi].Copy()
		for i := g.Blocks[bi].Start; i < g.Blocks[bi].End; i++ {
			in := &p.Instrs[i]
			addr, ok := spillSlotRef(in)
			if !ok {
				continue
			}
			if isSpillLoad(in.Op) && !stored.Has(slots[addr]) {
				out = append(out, a.finding(RuleStack, i,
					fmt.Sprintf("refill from spill slot %#x with no reaching spill store", addr)))
			}
			if isSpillStore(in.Op) {
				stored.Set(slots[addr])
			}
		}
	}
	return out
}

// checkUDef flags uses of machine resources (registers, flags) that no
// write can reach: on every path from the entry the resource is read before
// anything defines it. This is a may-analysis — a resource written on only
// some paths is accepted — so clean if-converted and predicated code does
// not trip it.
func checkUDef(a *analysis) []Finding {
	g := a.cfg
	defsIn := a.reachingDefsIn()
	var out []Finding
	var uses, defs []int
	for bi := range g.Blocks {
		if !g.Blocks[bi].Reachable {
			continue
		}
		defined := defsIn[bi].Copy()
		for i := g.Blocks[bi].Start; i < g.Blocks[bi].End; i++ {
			in := &a.p.Instrs[i]
			uses = instrUses(in, uses[:0])
			for _, u := range uses {
				if !defined.Has(u) {
					out = append(out, a.finding(RuleUDef, i,
						fmt.Sprintf("%s is read but never written on any path from entry", resName(u))))
					defined.Set(u) // report each resource once per block
				}
			}
			defs = instrDefs(in, defs[:0])
			for _, d := range defs {
				defined.Set(d)
			}
		}
	}
	return out
}
