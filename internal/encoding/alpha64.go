package encoding

import (
	"encoding/binary"
	"fmt"

	"compisa/internal/code"
	"compisa/internal/isa"
)

// alpha64: the fixed-length 32-bit RISC encoding standing in for the Alpha
// vendor ISA (Table II). Every instruction is one little-endian word:
//
//	[31:26] op      raw code.Op number
//	[25]    I       immediate-form flag
//	[24:22] sz      operand size code (0,1,2,4,8,16)
//	[21:0]  payload format-specific
//
// Payload formats (register fields are 5 bits — 32 integer / 16 FP regs):
//
//	R  a[21:17] b[16:12] c[11:7] cc[6:3]   register ops
//	I  reg[21:17] imm16[15:0]              sign- or zero-extended immediate
//	M  reg[21:17] base[16:12] disp12[11:0] loads/stores, base+disp only
//	B  cc[21:18] target18[17:0]            branches (raw instruction index,
//	                                       matching the x86 encoder's bytes)
//
// Two-address discipline is structural: ALU forms carry no first-source
// field, so decode reconstructs Src1 = Dst. There is no predicate field, no
// index/absolute addressing, and no vector encodings; wide constants are
// built by ld-imm splitting in the compiler (MOV/SHL/OR chains).
const (
	alpha64WordLen   = 4
	alpha64MaxTarget = 1<<18 - 1
)

// alpha64SzCodes maps operand sizes to the 3-bit sz field and back.
var alpha64SzCodes = [6]uint8{0, 1, 2, 4, 8, 16}

func alpha64SzCode(sz uint8) (uint32, error) {
	for c, s := range alpha64SzCodes {
		if s == sz {
			return uint32(c), nil
		}
	}
	return 0, fmt.Errorf("alpha64: unencodable operand size %d", sz)
}

// alpha64ZeroExtImm reports whether the op's immediate field is
// zero-extended (logical ops and shift counts); all others sign-extend.
func alpha64ZeroExtImm(op code.Op) bool {
	switch op {
	case code.AND, code.OR, code.XOR, code.TEST, code.SHL, code.SHR, code.SAR:
		return true
	}
	return false
}

func alpha64ImmOK(op code.Op, imm int64) bool {
	if alpha64ZeroExtImm(op) {
		return imm >= 0 && imm <= 0xffff
	}
	return imm >= -0x8000 && imm <= 0x7fff
}

func alpha64Reg(r code.Reg, fp bool, what string) (uint32, error) {
	lim := code.Reg(isa.Alpha64Target.IntRegs)
	if fp {
		lim = code.Reg(isa.Alpha64Target.FPRegs)
	}
	if r >= lim {
		return 0, fmt.Errorf("alpha64: %s register %d exceeds the register file", what, r)
	}
	return uint32(r), nil
}

// alpha64Encode encodes one instruction into its 32-bit word.
func alpha64Encode(in *code.Instr) (uint32, error) {
	if in.Predicated() {
		return 0, fmt.Errorf("alpha64: no predicate field")
	}
	if in.Op.IsVector() {
		return 0, fmt.Errorf("alpha64: no vector encodings")
	}
	szc, err := alpha64SzCode(in.Sz)
	if err != nil {
		return 0, err
	}
	w := uint32(in.Op)<<26 | szc<<22

	reg := func(slot uint, r code.Reg, fp bool, what string) error {
		v, err := alpha64Reg(r, fp, what)
		if err != nil {
			return err
		}
		w |= v << slot
		return nil
	}
	imm16 := func() error {
		if in.Src2 != code.NoReg {
			return fmt.Errorf("alpha64: both immediate and Src2")
		}
		if !alpha64ImmOK(in.Op, in.Imm) {
			return fmt.Errorf("alpha64: immediate %d exceeds 16 bits", in.Imm)
		}
		w |= 1 << 25
		w |= uint32(uint16(in.Imm))
		return nil
	}
	cc4 := func(slot uint) error {
		if in.CC > 0xf {
			return fmt.Errorf("alpha64: condition code %d exceeds 4 bits", in.CC)
		}
		w |= uint32(in.CC) << slot
		return nil
	}

	switch op := in.Op; op {
	case code.NOP:
		return w, nil

	case code.LD, code.ST, code.FLD, code.FST: // M-format
		if !in.HasMem {
			return 0, fmt.Errorf("alpha64: %v without memory operand", op)
		}
		m := in.Mem
		if m.Base == code.NoReg {
			return 0, fmt.Errorf("alpha64: no absolute addressing")
		}
		if m.Index != code.NoReg {
			return 0, fmt.Errorf("alpha64: no indexed addressing")
		}
		if m.Disp < -0x800 || m.Disp > 0x7ff {
			return 0, fmt.Errorf("alpha64: displacement %d exceeds 12 bits", m.Disp)
		}
		r, fp := in.Dst, op == code.FLD
		if op == code.ST || op == code.FST {
			r, fp = in.Src1, op == code.FST
		}
		if err := reg(17, r, fp, "data"); err != nil {
			return 0, err
		}
		if err := reg(12, m.Base, false, "base"); err != nil {
			return 0, err
		}
		w |= uint32(m.Disp) & 0xfff
		return w, nil

	case code.JCC, code.JMP: // B-format
		if in.Target < 0 || in.Target > alpha64MaxTarget {
			return 0, fmt.Errorf("alpha64: branch target %d exceeds 18 bits", in.Target)
		}
		if op == code.JCC {
			if err := cc4(18); err != nil {
				return 0, err
			}
		}
		w |= uint32(in.Target)
		return w, nil

	case code.RET:
		if err := reg(12, in.Src1, false, "result"); err != nil {
			return 0, err
		}
		return w, nil

	case code.MOV:
		if in.HasImm {
			if err := reg(17, in.Dst, false, "dst"); err != nil {
				return 0, err
			}
			if err := imm16(); err != nil {
				return 0, err
			}
			return w, nil
		}
		if err := reg(17, in.Dst, false, "dst"); err != nil {
			return 0, err
		}
		if err := reg(12, in.Src1, false, "src"); err != nil {
			return 0, err
		}
		return w, nil

	case code.MOVSX:
		if err := reg(17, in.Dst, false, "dst"); err != nil {
			return 0, err
		}
		return w, reg(12, in.Src1, false, "src")

	case code.ADD, code.SUB, code.IMUL, code.AND, code.OR, code.XOR,
		code.ADC, code.SBB, code.SHL, code.SHR, code.SAR,
		code.FADD, code.FSUB, code.FMUL, code.FDIV: // two-address ALU
		if in.HasMem {
			return 0, fmt.Errorf("alpha64: %v with memory operand (load/store only)", op)
		}
		if in.Src1 != in.Dst {
			return 0, fmt.Errorf("alpha64: %v needs destructive form (dst=%d src1=%d)", op, in.Dst, in.Src1)
		}
		fp := op.IsFP()
		if err := reg(17, in.Dst, fp, "dst"); err != nil {
			return 0, err
		}
		if in.HasImm {
			if fp {
				return 0, fmt.Errorf("alpha64: FP op with immediate")
			}
			return w, imm16()
		}
		return w, reg(7, in.Src2, fp, "src2")

	case code.CMP, code.TEST, code.FCMP: // flag producers: a=Src1 c=Src2
		fp := op == code.FCMP
		if in.HasMem {
			return 0, fmt.Errorf("alpha64: %v with memory operand (load/store only)", op)
		}
		if err := reg(17, in.Src1, fp, "src1"); err != nil {
			return 0, err
		}
		if in.HasImm {
			if fp {
				return 0, fmt.Errorf("alpha64: FP compare with immediate")
			}
			return w, imm16()
		}
		return w, reg(7, in.Src2, fp, "src2")

	case code.SETCC:
		if err := reg(17, in.Dst, false, "dst"); err != nil {
			return 0, err
		}
		return w, cc4(3)

	case code.CMOVCC:
		if in.HasMem {
			return 0, fmt.Errorf("alpha64: cmov with memory operand")
		}
		if err := reg(17, in.Dst, false, "dst"); err != nil {
			return 0, err
		}
		if err := reg(12, in.Src1, false, "src"); err != nil {
			return 0, err
		}
		return w, cc4(3)

	case code.FMOV:
		if err := reg(17, in.Dst, true, "dst"); err != nil {
			return 0, err
		}
		return w, reg(12, in.Src1, true, "src")

	case code.CVTIF:
		if err := reg(17, in.Dst, true, "dst"); err != nil {
			return 0, err
		}
		return w, reg(12, in.Src1, false, "src")

	case code.CVTFI:
		if err := reg(17, in.Dst, false, "dst"); err != nil {
			return 0, err
		}
		return w, reg(12, in.Src1, true, "src")
	}
	return 0, fmt.Errorf("alpha64: unencodable op %v", in.Op)
}

// alpha64DecodeWord decodes one word into its canonical instruction form.
func alpha64DecodeWord(w uint32) (code.Instr, error) {
	op := code.Op(w >> 26 & 0x3f)
	if op > code.VRSUM {
		return code.Instr{}, fmt.Errorf("alpha64: unknown opcode %d", op)
	}
	szc := w >> 22 & 0x7
	if int(szc) >= len(alpha64SzCodes) {
		return code.Instr{}, fmt.Errorf("alpha64: bad size code %d", szc)
	}
	in := code.Instr{
		Op: op, Sz: alpha64SzCodes[szc],
		Dst: code.NoReg, Src1: code.NoReg, Src2: code.NoReg, Pred: code.NoReg,
	}
	hasImm := w>>25&1 == 1
	a := code.Reg(w >> 17 & 0x1f)
	b := code.Reg(w >> 12 & 0x1f)
	c := code.Reg(w >> 7 & 0x1f)
	rcc := code.CC(w >> 3 & 0xf)
	decImm := func() {
		in.HasImm = true
		if alpha64ZeroExtImm(op) {
			in.Imm = int64(w & 0xffff)
		} else {
			in.Imm = int64(int16(w & 0xffff))
		}
	}

	switch op {
	case code.NOP:
	case code.LD, code.ST, code.FLD, code.FST:
		in.HasMem = true
		in.Mem = code.Mem{Base: b, Index: code.NoReg, Scale: 1, Disp: int32(w&0xfff) << 20 >> 20}
		if op == code.ST || op == code.FST {
			in.Src1 = a
		} else {
			in.Dst = a
		}
	case code.JCC, code.JMP:
		in.Target = int32(w & 0x3ffff)
		if op == code.JCC {
			in.CC = code.CC(w >> 18 & 0xf)
		}
	case code.RET:
		in.Src1 = b
	case code.MOV:
		in.Dst = a
		if hasImm {
			decImm()
		} else {
			in.Src1 = b
		}
	case code.MOVSX, code.FMOV, code.CVTIF, code.CVTFI:
		in.Dst, in.Src1 = a, b
	case code.ADD, code.SUB, code.IMUL, code.AND, code.OR, code.XOR,
		code.ADC, code.SBB, code.SHL, code.SHR, code.SAR,
		code.FADD, code.FSUB, code.FMUL, code.FDIV:
		in.Dst, in.Src1 = a, a // two-address: first source is implied
		if hasImm {
			decImm()
		} else {
			in.Src2 = c
		}
	case code.CMP, code.TEST, code.FCMP:
		in.Src1 = a
		if hasImm {
			decImm()
		} else {
			in.Src2 = c
		}
	case code.SETCC:
		in.Dst, in.CC = a, rcc
	case code.CMOVCC:
		in.Dst, in.Src1, in.CC = a, b, rcc
	default:
		return code.Instr{}, fmt.Errorf("alpha64: undecodable op %v", op)
	}
	return in, nil
}

// Alpha64Normalize returns the canonical form the alpha64 word round-trips:
// fields the encoding does not carry (profile hints, implied first sources,
// unused slots) forced to their decoded values. Programs whose instructions
// differ from their normalization in a semantically meaningful way are
// rejected by alpha64Encode or the target legality rules instead.
func Alpha64Normalize(in *code.Instr) code.Instr {
	q := *in
	q.TakenProb = 0
	if !q.Predicated() {
		q.Pred, q.PredSense = code.NoReg, false
	}
	if q.Op != code.JCC && q.Op != code.JMP {
		q.Target = 0
	}
	if q.Op != code.JCC && q.Op != code.SETCC && q.Op != code.CMOVCC {
		q.CC = 0
	}
	if q.HasMem {
		q.Mem.Index, q.Mem.Scale = code.NoReg, 1
	} else {
		q.Mem = code.Mem{}
	}
	if !q.HasImm {
		q.Imm = 0
	}
	if q.Op.TwoAddress() {
		q.Src1 = q.Dst
	}
	if q.Op == code.MOV && q.HasImm {
		q.Src1 = code.NoReg
	}
	if q.HasImm {
		q.Src2 = code.NoReg
	}
	return q
}

type alpha64Coder struct{}

func (alpha64Coder) Target() *isa.Target { return &isa.Alpha64Target }

func (alpha64Coder) Layout(p *code.Program, base uint32) error {
	n := len(p.Instrs)
	if n > alpha64MaxTarget {
		return fmt.Errorf("alpha64: program %s has %d instructions, exceeding branch reach", p.Name, n)
	}
	p.PC = make([]uint32, n)
	for i := range p.Instrs {
		p.PC[i] = base + uint32(alpha64WordLen*i)
	}
	p.Size = alpha64WordLen * n
	p.Base = base
	return nil
}

func (alpha64Coder) EncodeInstr(in *code.Instr, length int, compact bool) ([]byte, error) {
	if length != alpha64WordLen {
		return nil, fmt.Errorf("alpha64: layout says %d bytes for a %d-byte word", length, alpha64WordLen)
	}
	w, err := alpha64Encode(in)
	if err != nil {
		return nil, err
	}
	var out [alpha64WordLen]byte
	binary.LittleEndian.PutUint32(out[:], w)
	return out[:], nil
}

// DecodeLength is the one-step decoder: a fixed-length word needs no
// length-decode stage, so this only validates that the word decodes.
func (alpha64Coder) DecodeLength(buf []byte, compact bool) (int, error) {
	if len(buf) < alpha64WordLen {
		return 0, fmt.Errorf("alpha64: truncated word (%d bytes)", len(buf))
	}
	if _, err := alpha64DecodeWord(binary.LittleEndian.Uint32(buf)); err != nil {
		return 0, err
	}
	return alpha64WordLen, nil
}

func (alpha64Coder) DecodeInstr(buf []byte) (code.Instr, error) {
	if len(buf) < alpha64WordLen {
		return code.Instr{}, fmt.Errorf("alpha64: truncated word (%d bytes)", len(buf))
	}
	return alpha64DecodeWord(binary.LittleEndian.Uint32(buf))
}

func (alpha64Coder) Normalize(in *code.Instr) code.Instr { return Alpha64Normalize(in) }

func (alpha64Coder) Boundaries(img []byte, compact bool) ([]int, error) {
	if len(img)%alpha64WordLen != 0 {
		return nil, fmt.Errorf("alpha64: %d-byte image is not a whole number of %d-byte words", len(img), alpha64WordLen)
	}
	b := make([]int, len(img)/alpha64WordLen)
	for i := range b {
		b[i] = alpha64WordLen * i
	}
	return b, nil
}

func (alpha64Coder) InstrLen(p *code.Program, i int) int { return alpha64WordLen }
func (alpha64Coder) MaxLen() int                         { return alpha64WordLen }
