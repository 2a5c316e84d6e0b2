package check

import "compisa/internal/code"

// The dataflow analyses track abstract machine resources: the 64 integer
// registers, the 16 FP/SIMD registers, and the condition flags, each mapped
// to one bit position. The use/def model below is derived independently
// from the executor's semantics (internal/cpu's step functions), NOT from
// code's operand-class table (Op.FPSources, Op.IntDst, Op.IsFP) or the
// code.Instr helper methods; TestOpsModelMatchesCodeTable compares the two,
// so the verifier cross-checks the representation rather than trusting it.
const (
	resIntBase = 0  // r0..r63
	resFPBase  = 64 // x0..x15
	resFlags   = 80
	numRes     = 81
)

func resInt(r code.Reg) int { return resIntBase + int(r) }
func resFP(r code.Reg) int  { return resFPBase + int(r) }

// resName renders a resource index for diagnostics.
func resName(res int) string {
	switch {
	case res == resFlags:
		return "flags"
	case res >= resFPBase:
		return "x" + itoa(res-resFPBase)
	default:
		return "r" + itoa(res-resIntBase)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// fpSrc reports whether the op's Src1/Src2 registers live in the FP file.
func fpSrc(op code.Op) bool {
	switch op {
	case code.FMOV, code.FST, code.VST, code.FADD, code.FSUB, code.FMUL,
		code.FDIV, code.FCMP, code.CVTFI,
		code.VADDF, code.VSUBF, code.VMULF, code.VADDI, code.VSUBI,
		code.VMULI, code.VSPLAT, code.VRSUM:
		return true
	}
	return false
}

// instrUses appends the resources the instruction reads (per the executor's
// semantics) to dst. Address registers, the predicate register, flag reads,
// and CMOV's read of its old destination are all included. Uses of a
// predicated instruction are counted unconditionally: the analyses are
// may-analyses and the predicate may hold.
func instrUses(in *code.Instr, dst []int) []int {
	addInt := func(r code.Reg) {
		if r != code.NoReg {
			dst = append(dst, resInt(r))
		}
	}
	addFP := func(r code.Reg) {
		if r != code.NoReg {
			dst = append(dst, resFP(r))
		}
	}
	addSrc := func(r code.Reg) {
		if fpSrc(in.Op) {
			addFP(r)
		} else {
			addInt(r)
		}
	}
	if in.HasMem {
		addInt(in.Mem.Base)
		addInt(in.Mem.Index)
	}
	if in.Pred != code.NoReg {
		addInt(in.Pred)
	}
	switch in.Op {
	case code.NOP, code.JMP:
	case code.MOV:
		if !in.HasImm {
			addInt(in.Src1)
		}
	case code.MOVSX, code.SHL, code.SHR, code.SAR:
		addInt(in.Src1)
	case code.LEA, code.LD, code.FLD, code.VLD:
		// Only the address registers, added above.
	case code.ST:
		addInt(in.Src1)
	case code.ADD, code.SUB, code.IMUL, code.AND, code.OR, code.XOR,
		code.CMP, code.TEST:
		addInt(in.Src1)
		if !in.HasImm && !in.MemSrcALU() {
			addInt(in.Src2)
		}
	case code.ADC, code.SBB:
		addInt(in.Src1)
		if !in.HasImm && !in.MemSrcALU() {
			addInt(in.Src2)
		}
		dst = append(dst, resFlags)
	case code.SETCC:
		dst = append(dst, resFlags)
	case code.CMOVCC:
		dst = append(dst, resFlags)
		// CMOV keeps the old destination when the condition fails: the
		// destination is a read-modify-write operand.
		addInt(in.Dst)
		if !in.HasMem {
			addInt(in.Src1)
		}
	case code.JCC:
		dst = append(dst, resFlags)
	case code.RET:
		addInt(in.Src1)
	case code.FMOV, code.FST, code.VST, code.VSPLAT, code.VRSUM, code.CVTFI:
		addSrc(in.Src1)
	case code.FADD, code.FSUB, code.FMUL, code.FDIV,
		code.VADDF, code.VSUBF, code.VMULF,
		code.VADDI, code.VSUBI, code.VMULI:
		addSrc(in.Src1)
		if !in.MemSrcALU() {
			addSrc(in.Src2)
		}
	case code.FCMP:
		addSrc(in.Src1)
		addSrc(in.Src2)
	case code.CVTIF:
		addInt(in.Src1)
	}
	return dst
}

// instrDefs appends the resources the instruction writes to dst. A
// predicated write still counts as a definition (the may-analyses ask
// whether any write can reach, not whether one must).
func instrDefs(in *code.Instr, dst []int) []int {
	switch in.Op {
	case code.MOV, code.MOVSX, code.LEA, code.LD, code.SETCC, code.CMOVCC, code.CVTFI:
		if in.Dst != code.NoReg {
			dst = append(dst, resInt(in.Dst))
		}
	case code.ADD, code.SUB, code.IMUL, code.AND, code.OR, code.XOR,
		code.SHL, code.SHR, code.SAR, code.ADC, code.SBB:
		if in.Dst != code.NoReg {
			dst = append(dst, resInt(in.Dst))
		}
		dst = append(dst, resFlags)
	case code.CMP, code.TEST, code.FCMP:
		dst = append(dst, resFlags)
	case code.FMOV, code.FLD, code.FADD, code.FSUB, code.FMUL, code.FDIV,
		code.CVTIF, code.VLD, code.VADDF, code.VSUBF, code.VMULF,
		code.VADDI, code.VSUBI, code.VMULI, code.VSPLAT, code.VRSUM:
		if in.Dst != code.NoReg {
			dst = append(dst, resFP(in.Dst))
		}
	}
	return dst
}
