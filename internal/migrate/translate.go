// Package migrate implements process migration across composite-ISA cores.
// Migrations to a core whose feature set subsumes the code's are free
// ("upgrades": native execution, no state transformation). Migrations to a
// core missing features ("downgrades") apply the minimal binary translations
// of Section IV.B: reverse if-conversion for predication, long-mode
// emulation through the register context block for 64-bit code on 32-bit
// cores, register-context-block emulation of registers beyond the target's
// register depth, and addressing-mode transformation from x86 memory
// operands to microx86 load-compute-store sequences.
//
// The translations are real program rewrites: the translated binary executes
// on the functional executor and must produce the identical checksum, which
// the package's differential tests verify.
package migrate

import (
	"fmt"

	"compisa/internal/code"
	"compisa/internal/encoding"
	"compisa/internal/isa"
)

// ctxAddr returns the register-context-block slot of architectural register
// r: 16 bytes per register (low word, high word, padding).
func ctxAddr(r code.Reg) int32 { return code.ContextBase + int32(r)*16 }

// ctxHiAddr returns the slot holding the emulated high 32 bits of register r
// under long-mode emulation.
func ctxHiAddr(r code.Reg) int32 { return ctxAddr(r) + 8 }

// saveAddr returns the k-th scratch-save slot used by translated sequences
// to free an architectural register. Each translation pass owns a disjoint
// slot range: a later pass's per-instruction expansion can fall INSIDE an
// earlier pass's save/restore window, so sharing a slot would clobber the
// saved value (the differential fuzzer caught exactly that).
func saveAddr(k int) int32 { return code.ContextBase + 0x10000 + int32(k)*16 }

// Per-pass save-slot bases.
const (
	saveBaseWidth     = 0  // narrowWidth uses slots 0..3
	saveBaseDepth     = 4  // lowerDepth uses slots 4..9
	saveBaseDecompose = 10 // decompose uses slot 10
)

// Translate rewrites a program compiled for prog.FS so it executes natively
// on a core implementing feature set target. An upgrade (target subsumes the
// program) returns the program unchanged. SIMD downgrades are not
// translatable — schedulers run the precompiled scalar version instead — and
// return an error.
func Translate(prog *code.Program, target isa.FeatureSet) (*code.Program, error) {
	if err := target.Validate(); err != nil {
		return nil, err
	}
	if target.Subsumes(prog.FS) {
		return prog, nil
	}
	downs := map[isa.DowngradeKind]bool{}
	for _, d := range isa.Downgrades(prog.FS, target) {
		downs[d] = true
	}
	if downs[isa.DowngradeSIMD] && programUsesSIMD(prog) {
		return nil, fmt.Errorf("migrate: %s uses SIMD; run the scalar-compiled binary instead", prog.Name)
	}
	cur := prog
	var err error
	// Pass order matters: predication is removed first (no predicated
	// context-block traffic to reason about), then width and depth
	// emulation — which may emit x86 memory-operand forms — and finally
	// addressing-mode decomposition legalizes everything for microx86
	// targets. Intermediate programs are labeled with full-x86
	// complexity, of which microx86 code is a subset.
	if downs[isa.DowngradePredication] {
		if cur, err = reverseIfConvert(cur); err != nil {
			return nil, fmt.Errorf("migrate: %s predication downgrade: %w", prog.Name, err)
		}
	}
	lifted := cur.FS
	lifted.Complexity = isa.FullX86
	if cur, err = retarget(cur, lifted); err != nil {
		return nil, fmt.Errorf("migrate: %s: %w", prog.Name, err)
	}
	if downs[isa.DowngradeWidth] {
		// Folded 64-bit memory operands must become explicit loads first:
		// the widener emulates high words through registers' context
		// slots, which memory operands do not have.
		if cur, err = decompose(cur, true); err != nil {
			return nil, fmt.Errorf("migrate: %s width downgrade: %w", prog.Name, err)
		}
		if cur, err = narrowWidth(cur); err != nil {
			return nil, fmt.Errorf("migrate: %s width downgrade: %w", prog.Name, err)
		}
	}
	if downs[isa.DowngradeDepth] {
		if cur, err = lowerDepth(cur, target.Depth); err != nil {
			return nil, fmt.Errorf("migrate: %s depth downgrade: %w", prog.Name, err)
		}
	}
	if target.Complexity == isa.MicroX86 {
		if cur, err = decompose(cur, false); err != nil {
			return nil, fmt.Errorf("migrate: %s complexity downgrade: %w", prog.Name, err)
		}
	}
	// Final feature set: exactly the target.
	return retarget(cur, target)
}

func programUsesSIMD(p *code.Program) bool {
	for i := range p.Instrs {
		if p.Instrs[i].Op.IsVector() {
			return true
		}
	}
	return false
}

// retarget relabels and relays out a program under a new feature set,
// validating conformance.
func retarget(p *code.Program, fs isa.FeatureSet) (*code.Program, error) {
	np := &code.Program{Name: p.Name, FS: fs, Instrs: p.Instrs, Pool: p.Pool, Stats: p.Stats}
	if err := encoding.Layout(np, code.CodeBase); err != nil {
		return nil, err
	}
	if err := np.Validate(); err != nil {
		return nil, err
	}
	return np, nil
}

// rewriter builds a translated instruction stream with branch-target fixups.
type rewriter struct {
	src    *code.Program
	out    []code.Instr
	newIdx []int32 // old index -> first new index
}

func newRewriter(p *code.Program) *rewriter {
	return &rewriter{src: p, newIdx: make([]int32, len(p.Instrs))}
}

func (rw *rewriter) beginInstr(oldIdx int) { rw.newIdx[oldIdx] = int32(len(rw.out)) }

func (rw *rewriter) push(in code.Instr) { rw.out = append(rw.out, in) }

// finish remaps branch targets and produces the program under fs.
func (rw *rewriter) finish(fs isa.FeatureSet, suffix string) (*code.Program, error) {
	for i := range rw.out {
		in := &rw.out[i]
		if in.Op == code.JCC || in.Op == code.JMP {
			if in.Target >= 0 && int(in.Target) < len(rw.newIdx) {
				in.Target = rw.newIdx[in.Target]
			}
		}
	}
	np := &code.Program{Name: rw.src.Name + suffix, FS: fs, Instrs: rw.out,
		Pool: rw.src.Pool, Stats: rw.src.Stats}
	if err := encoding.Layout(np, code.CodeBase); err != nil {
		return nil, err
	}
	if err := np.Validate(); err != nil {
		return nil, err
	}
	return np, nil
}

// localTarget marks forward branches emitted inside one expansion; they are
// resolved before global remapping by storing negative offsets.
const localBranchBias = 1 << 24

func ci(op code.Op, sz uint8) code.Instr {
	return code.Instr{Op: op, Sz: sz, Dst: code.NoReg, Src1: code.NoReg,
		Src2: code.NoReg, Pred: code.NoReg, Mem: code.Mem{Base: code.NoReg, Index: code.NoReg, Scale: 1}}
}

func absMem(disp int32) code.Mem {
	return code.Mem{Base: code.NoReg, Index: code.NoReg, Scale: 1, Disp: disp}
}

// scratchPicker selects architectural registers not referenced by an
// instruction, lowest first, strictly below depth.
func scratchPicker(in *code.Instr, depth int) func() (code.Reg, error) {
	used := map[code.Reg]bool{}
	var regs []code.Reg
	regs = in.IntRegs(regs)
	for _, r := range regs {
		used[r] = true
	}
	next := code.Reg(0)
	return func() (code.Reg, error) {
		for int(next) < depth {
			r := next
			next++
			if !used[r] {
				used[r] = true
				return r, nil
			}
		}
		return 0, fmt.Errorf("no scratch register available below depth %d", depth)
	}
}

// reverseIfConvert translates fully predicated code back to control
// dependences: each maximal run of instructions sharing a predicate becomes
// a TEST + conditional branch over the unpredicated run (Section IV.B's
// "simple reverse if-conversions").
func reverseIfConvert(p *code.Program) (*code.Program, error) {
	rw := newRewriter(p)
	// Branch targets break predicate runs.
	isTarget := make([]bool, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op == code.JCC || in.Op == code.JMP {
			isTarget[in.Target] = true
		}
	}
	i := 0
	for i < len(p.Instrs) {
		in := p.Instrs[i]
		if !in.Predicated() {
			rw.beginInstr(i)
			rw.push(in)
			i++
			continue
		}
		// Collect the run of same-predicate instructions.
		pred, sense := in.Pred, in.PredSense
		j := i
		for j < len(p.Instrs) {
			nx := &p.Instrs[j]
			if nx.Pred != pred || nx.PredSense != sense {
				break
			}
			if j > i && isTarget[j] {
				break
			}
			j++
		}
		// TEST pred, pred; skip the run when the sense does not hold:
		// run executes when (pred != 0) == sense.
		rw.beginInstr(i)
		tst := ci(code.TEST, 4)
		tst.Src1, tst.Src2 = pred, pred
		rw.push(tst)
		br := ci(code.JCC, 0)
		if sense {
			br.CC = code.CCEQ // pred == 0: skip
		} else {
			br.CC = code.CCNE
		}
		br.TakenProb = 0.5
		brAt := len(rw.out)
		rw.push(br)
		for k := i; k < j; k++ {
			if k > i {
				rw.beginInstr(k)
			}
			run := p.Instrs[k]
			run.Pred = code.NoReg
			run.PredSense = false
			rw.push(run)
		}
		// The branch skips to the instruction after the run; encode as a
		// local absolute new-index (already final within rw.out).
		rw.out[brAt].Target = int32(len(rw.out)) + localBranchBias
		i = j
	}
	// Resolve local branches (marked by the bias) before global remap.
	for k := range rw.out {
		in := &rw.out[k]
		if (in.Op == code.JCC || in.Op == code.JMP) && in.Target >= localBranchBias {
			in.Target -= localBranchBias
			// Mark as already-final by pointing the remap at itself:
			// temporarily store the final index negated below.
			in.Target = -in.Target - 1
		}
	}
	fs := p.FS
	fs.Predication = isa.PartialPredication
	np, err := rw.finishWithLocal(fs, "+rpred")
	return np, err
}

// finishWithLocal is finish() for passes that mix local (already-final,
// stored negated) and global (old-index) branch targets.
func (rw *rewriter) finishWithLocal(fs isa.FeatureSet, suffix string) (*code.Program, error) {
	for i := range rw.out {
		in := &rw.out[i]
		if in.Op != code.JCC && in.Op != code.JMP {
			continue
		}
		if in.Target < 0 {
			in.Target = -(in.Target + 1) // already final
			continue
		}
		in.Target = rw.newIdx[in.Target]
	}
	np := &code.Program{Name: rw.src.Name + suffix, FS: fs, Instrs: rw.out,
		Pool: rw.src.Pool, Stats: rw.src.Stats}
	if err := encoding.Layout(np, code.CodeBase); err != nil {
		return nil, err
	}
	if err := np.Validate(); err != nil {
		return nil, err
	}
	return np, nil
}

// decompose translates x86 memory-operand ALU instructions into microx86
// load-compute-store form, freeing a register around each via the context
// block (addressing-mode transformation). With only64 set it expands only
// 64-bit memory operands — the pre-pass long-mode emulation needs, since a
// folded 8-byte memory read has no register operand whose high word could
// live in the context block.
func decompose(p *code.Program, only64 bool) (*code.Program, error) {
	rw := newRewriter(p)
	for i := range p.Instrs {
		in := p.Instrs[i]
		rw.beginInstr(i)
		if !in.MemSrcALU() || (only64 && (in.Sz != 8 || in.Op.IsFP())) {
			rw.push(in)
			continue
		}
		pick := scratchPicker(&in, p.FS.Depth)
		t, err := pick()
		if err != nil {
			return nil, err
		}
		// ST t, [save]; LD t, [mem]; OP ..., t; LD t, [save].
		sv := ci(code.ST, uint8(p.FS.Width/8))
		sv.Src1 = t
		sv.HasMem, sv.Mem = true, absMem(saveAddr(saveBaseDecompose))
		rw.push(sv)
		ld := ci(code.LD, in.Sz)
		ld.Dst = t
		ld.HasMem, ld.Mem = true, in.Mem
		rw.push(ld)
		op := in
		op.HasMem = false
		op.Mem = code.Mem{Base: code.NoReg, Index: code.NoReg, Scale: 1}
		if op.Op == code.CMOVCC {
			op.Src1 = t // CMOV's value operand is Src1
		} else {
			op.Src2 = t
		}
		rw.push(op)
		rs := ci(code.LD, uint8(p.FS.Width/8))
		rs.Dst = t
		rs.HasMem, rs.Mem = true, absMem(saveAddr(saveBaseDecompose))
		rw.push(rs)
	}
	fs := p.FS
	if !only64 {
		fs.Complexity = isa.MicroX86
	}
	return rw.finish(fs, "+ux86")
}
