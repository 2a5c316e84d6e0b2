// Package code defines the machine-code representation shared by the
// compiler backend (which produces it), the encoder (which lays it out), the
// functional executor and timing simulators (which run it), and the binary
// translator (which rewrites it during feature downgrades).
//
// The instruction set is the superset ISA of the paper: x86-like macro-ops
// with optional memory source operands and complex addressing (full x86
// complexity), a load-compute-store subset (microx86), SSE scalar/vector
// operations, CMOV partial predication, and full predication of any
// instruction on any general-purpose register via the predicate prefix.
package code

import "fmt"

// Reg names an architectural register. Integer registers are r0..r63 and
// FP/SIMD registers are x0..x15; the register class is implied by the
// instruction operand slot. NoReg marks an absent operand.
type Reg uint8

// NoReg is the absent-register marker.
const NoReg Reg = 0xff

// Op enumerates superset-ISA machine operations.
type Op uint8

const (
	NOP Op = iota

	// Integer moves and address arithmetic.
	MOV   // Dst = Src1 | Imm
	MOVSX // Dst(64) = sign-extended Src1(32) (movsxd)
	LEA   // Dst = effective address of Mem
	LD    // Dst = mem[ea] (Sz bytes, zero-extended if narrower than width)
	ST    // mem[ea] = Src1 (Sz bytes)

	// Integer ALU. With a memory source operand (HasMem, full x86 only)
	// the instruction reads mem[ea] as the second operand and decodes
	// into load+op micro-ops.
	ADD
	SUB
	IMUL
	AND
	OR
	XOR
	SHL // shift counts come from Imm
	SHR
	SAR
	ADC // add with carry (64-on-32 lowering)
	SBB // subtract with borrow

	// Flag producers/consumers.
	CMP    // set flags from Src1 - Src2/Imm/mem
	TEST   // set flags from Src1 & Src2
	SETCC  // Dst = CC(flags) ? 1 : 0
	CMOVCC // Dst = CC(flags) ? Src1 : Dst (partial predication)

	// Control flow. Targets are instruction indices in the program.
	JCC // conditional jump on CC(flags)
	JMP
	RET // region end; Src1 holds the checksum result

	// Scalar FP (SSE scalar: xmm registers, Sz 4 or 8).
	FMOV // FDst = FSrc1
	FLD  // FDst = mem[ea]
	FST  // mem[ea] = FSrc1
	FADD // with optional memory source operand on full x86
	FSUB
	FMUL
	FDIV
	FCMP  // UCOMISS/SD: set integer flags from FP compare
	CVTIF // FDst = float(Src1)  (cvtsi2ss/sd)
	CVTFI // Dst = int(FSrc1), truncating (cvttss/sd2si)

	// Packed SSE (128-bit, four 32-bit lanes; Sz = 16).
	VLD   // FDst = mem[ea..ea+15]
	VST   // mem[ea..ea+15] = FSrc1
	VADDF // lane-wise float32
	VSUBF
	VMULF
	VADDI // lane-wise int32 (PADDD)
	VSUBI
	VMULI  // PMULLD
	VSPLAT // FDst = broadcast of FSrc1's low lane (shufps; 2 micro-ops)
	VRSUM  // FDst = horizontal sum of FSrc1's four float lanes (3 micro-ops)
)

var opNames = [...]string{
	NOP: "nop", MOV: "mov", MOVSX: "movsx", LEA: "lea", LD: "ld", ST: "st",
	ADD: "add", SUB: "sub", IMUL: "imul", AND: "and", OR: "or", XOR: "xor",
	SHL: "shl", SHR: "shr", SAR: "sar", ADC: "adc", SBB: "sbb",
	CMP: "cmp", TEST: "test", SETCC: "setcc", CMOVCC: "cmov",
	JCC: "jcc", JMP: "jmp", RET: "ret",
	FMOV: "fmov", FLD: "fld", FST: "fst",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FCMP: "fcmp",
	CVTIF: "cvtif", CVTFI: "cvtfi",
	VLD: "vld", VST: "vst",
	VADDF: "vaddf", VSUBF: "vsubf", VMULF: "vmulf",
	VADDI: "vaddi", VSUBI: "vsubi", VMULI: "vmuli",
	VSPLAT: "vsplat", VRSUM: "vrsum",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// The methods below are the superset ISA's one table of operand classes:
// the compiler, executor, timing model, verifier and translator all read
// them, so every layer agrees on what each op reads and writes.

// IsFP reports whether the op writes its destination register Dst, and
// that register is an FP/SIMD register.
func (o Op) IsFP() bool {
	switch o {
	case FMOV, FLD, FADD, FSUB, FMUL, FDIV, CVTIF, VLD, VADDF, VSUBF, VMULF, VADDI, VSUBI, VMULI, VSPLAT, VRSUM:
		return true
	}
	return false
}

// IntDst reports whether the op writes its destination register Dst, and
// that register is an integer register. An op for which neither IntDst nor
// IsFP holds writes no register (CMP, TEST and FCMP write only the flags);
// the compiler and the translator leave its Dst at NoReg.
func (o Op) IntDst() bool {
	switch o {
	case MOV, MOVSX, LEA, LD, ADD, SUB, IMUL, AND, OR, XOR, SHL, SHR, SAR, ADC, SBB,
		SETCC, CMOVCC, CVTFI:
		return true
	}
	return false
}

// FPSources reports whether the op's register sources Src1 and Src2 are
// FP/SIMD registers; otherwise they are integer registers (CVTIF converts
// an integer source). Address and predicate registers are always integer.
func (o Op) FPSources() bool {
	switch o {
	case FMOV, FST, VST, FADD, FSUB, FMUL, FDIV, FCMP, CVTFI,
		VADDF, VSUBF, VMULF, VADDI, VSUBI, VMULI, VSPLAT, VRSUM:
		return true
	}
	return false
}

// IsVector reports whether the op is a 128-bit packed SSE operation.
func (o Op) IsVector() bool { return o >= VLD }

// IsBranch reports whether the op redirects control flow.
func (o Op) IsBranch() bool { return o == JCC || o == JMP || o == RET }

// ReadsFlags reports whether the op consumes condition flags.
func (o Op) ReadsFlags() bool {
	switch o {
	case SETCC, CMOVCC, JCC, ADC, SBB:
		return true
	}
	return false
}

// WritesFlags reports whether the op produces condition flags.
func (o Op) WritesFlags() bool {
	switch o {
	case ADD, SUB, ADC, SBB, AND, OR, XOR, SHL, SHR, SAR, IMUL, CMP, TEST, FCMP:
		return true
	}
	return false
}

// TwoAddress reports whether the op uses the destructive two-address form
// (Dst == Src1): both the x86 and alpha64 encoders carry no separate
// first-source field for these, so the encodings imply Src1 = Dst.
func (o Op) TwoAddress() bool {
	switch o {
	case ADD, SUB, IMUL, AND, OR, XOR, SHL, SHR, SAR, ADC, SBB,
		FADD, FSUB, FMUL, FDIV,
		VADDF, VSUBF, VMULF, VADDI, VSUBI, VMULI:
		return true
	}
	return false
}

// CC is an x86-style condition code evaluated against the flags register.
type CC uint8

const (
	CCEQ CC = iota // ZF
	CCNE
	CCLT // signed: SF != OF
	CCLE
	CCGT
	CCGE
	CCB // unsigned below: CF
	CCBE
	CCA
	CCAE
)

func (c CC) String() string {
	return [...]string{"e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae"}[c]
}

// Negate returns the opposite condition.
func (c CC) Negate() CC {
	switch c {
	case CCEQ:
		return CCNE
	case CCNE:
		return CCEQ
	case CCLT:
		return CCGE
	case CCLE:
		return CCGT
	case CCGT:
		return CCLE
	case CCGE:
		return CCLT
	case CCB:
		return CCAE
	case CCBE:
		return CCA
	case CCA:
		return CCBE
	case CCAE:
		return CCB
	}
	return c
}

// Flags is the x86 condition-code state. Its functions below are the one
// definition of the superset ISA's flag semantics: the executor keeps a
// Flags as architectural state and the verifier's constant domain computes
// one from constant operands, so a branch the verifier proves constant goes
// the way the executor takes it.
type Flags struct {
	ZF, SF, OF, CF bool
}

// SzMask returns the mask of an operand of sz bytes: 1 and 4 bytes mask
// to their width, every other size to 64 bits.
func SzMask(sz uint8) uint64 {
	switch sz {
	case 1:
		return 0xff
	case 4:
		return 0xffff_ffff
	default:
		return 1<<64 - 1
	}
}

// signBit reports whether v's sign bit at operand size sz is set.
func signBit(v uint64, sz uint8) bool {
	switch sz {
	case 1:
		return v&0x80 != 0
	case 4:
		return v&0x8000_0000 != 0
	default:
		return v&(1<<63) != 0
	}
}

// AddFlags returns the flags of r = a + b (+ carryIn) at width sz.
func AddFlags(a, b, r uint64, carryIn bool, sz uint8) Flags {
	m := SzMask(sz)
	a, b, r = a&m, b&m, r&m
	f := Flags{ZF: r == 0, SF: signBit(r, sz)}
	cin := uint64(0)
	if carryIn {
		cin = 1
	}
	if sz == 8 {
		s1 := a + b
		f.CF = s1 < a || s1+cin < s1
	} else {
		f.CF = (a+b+cin)&^m != 0
	}
	// Classic hardware formula; exact including carry-in.
	f.OF = signBit(^(a^b)&(a^r), sz)
	return f
}

// SubFlags returns the flags of r = a - b (- borrowIn) at width sz.
func SubFlags(a, b, r uint64, borrowIn bool, sz uint8) Flags {
	m := SzMask(sz)
	a, b, r = a&m, b&m, r&m
	f := Flags{ZF: r == 0, SF: signBit(r, sz)}
	if borrowIn {
		f.CF = a <= b // borrows iff a < b + 1
	} else {
		f.CF = a < b
	}
	// Classic hardware formula; exact including borrow-in.
	f.OF = signBit((a^b)&(a^r), sz)
	return f
}

// LogicFlags returns the flags of a logic or shift result r at width sz:
// ZF and SF from r, CF and OF clear. IMUL sets its flags this way too.
func LogicFlags(r uint64, sz uint8) Flags {
	r &= SzMask(sz)
	return Flags{ZF: r == 0, SF: signBit(r, sz)}
}

// Cond evaluates condition code cc against the flags.
func (f Flags) Cond(cc CC) bool {
	switch cc {
	case CCEQ:
		return f.ZF
	case CCNE:
		return !f.ZF
	case CCLT:
		return f.SF != f.OF
	case CCGE:
		return f.SF == f.OF
	case CCLE:
		return f.ZF || f.SF != f.OF
	case CCGT:
		return !f.ZF && f.SF == f.OF
	case CCB:
		return f.CF
	case CCAE:
		return !f.CF
	case CCBE:
		return f.CF || f.ZF
	case CCA:
		return !f.CF && !f.ZF
	}
	return false
}

// Mem is a base + index*scale + disp memory operand. Base/Index are integer
// registers; Index may be NoReg. Scale is 1, 2, 4, or 8.
type Mem struct {
	Base  Reg
	Index Reg
	Scale uint8
	Disp  int32
}

// Instr is one superset-ISA macro-op.
type Instr struct {
	Op   Op
	Sz   uint8 // operand size in bytes: 1, 4, 8, or 16 (packed)
	Dst  Reg   // destination register (class implied by Op), NoReg if none
	Src1 Reg
	Src2 Reg
	Imm  int64
	// HasImm marks an immediate second operand (Src2 must be NoReg).
	HasImm bool
	// HasMem marks a memory operand: the address source for LD/ST/FLD/
	// FST/VLD/VST/LEA, or a memory *source* operand folded into an ALU op
	// (full-x86 complexity only).
	HasMem bool
	Mem    Mem
	CC     CC
	// Target is the branch-target instruction index (JCC/JMP).
	Target int32
	// Pred predicates the instruction on integer register Pred: it
	// commits its result only when (rPred != 0) == PredSense. Requires
	// full predication in the feature set.
	Pred      Reg
	PredSense bool
	// TakenProb is compiler profile metadata on JCC (for tests/stats).
	TakenProb float32
}

// Predicated reports whether the instruction carries a predicate prefix.
func (in *Instr) Predicated() bool { return in.Pred != NoReg }

// MemSrcALU reports whether the instruction is an ALU op with a folded
// memory source operand (the 1:n decode case that microx86 excludes).
func (in *Instr) MemSrcALU() bool {
	if !in.HasMem {
		return false
	}
	switch in.Op {
	case LD, ST, FLD, FST, VLD, VST, LEA:
		return false
	}
	return true
}

// NumUops returns the number of micro-ops the macro-op decodes into.
func (in *Instr) NumUops() int {
	switch in.Op {
	case VSPLAT:
		return 2 // movss + shufps
	case VRSUM:
		return 3 // haddps x2 + extract
	}
	if in.MemSrcALU() {
		return 2 // load + compute
	}
	return 1
}

// IntRegs appends every integer register the instruction references
// (including predicate and address registers) to dst.
func (in *Instr) IntRegs(dst []Reg) []Reg {
	if in.Dst != NoReg && !in.Op.IsFP() {
		dst = append(dst, in.Dst)
	}
	if !in.Op.FPSources() {
		if in.Src1 != NoReg {
			dst = append(dst, in.Src1)
		}
		if in.Src2 != NoReg {
			dst = append(dst, in.Src2)
		}
	}
	if in.HasMem {
		if in.Mem.Base != NoReg {
			dst = append(dst, in.Mem.Base)
		}
		if in.Mem.Index != NoReg {
			dst = append(dst, in.Mem.Index)
		}
	}
	if in.Pred != NoReg {
		dst = append(dst, in.Pred)
	}
	return dst
}

// FPRegs appends every FP/SIMD register the instruction references to dst.
func (in *Instr) FPRegs(dst []Reg) []Reg {
	if in.Op.IsFP() && in.Dst != NoReg {
		dst = append(dst, in.Dst)
	}
	if in.Op.FPSources() {
		if in.Src1 != NoReg {
			dst = append(dst, in.Src1)
		}
		if in.Src2 != NoReg {
			dst = append(dst, in.Src2)
		}
	}
	return dst
}
