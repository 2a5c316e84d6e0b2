package encoding

import (
	"compisa/internal/code"
	"compisa/internal/isa"
)

// Coder is the byte-level backend of one guest-ISA target: layout,
// instruction encoding, and length (boundary) decoding. The x86 coder wraps
// this package's variable-length encoder and instruction-length decoder;
// the alpha64 coder implements the fixed 32-bit word format. Package-level
// Layout/Image/Length dispatch on Program.Target through ForProgram, so
// every existing call site follows the program's target automatically.
type Coder interface {
	// Target returns the descriptor of the target this coder implements.
	Target() *isa.Target
	// Layout assigns byte addresses to the program (fills PC, Size, Base).
	Layout(p *code.Program, base uint32) error
	// EncodeInstr encodes one instruction; length is its laid-out length.
	EncodeInstr(in *code.Instr, length int, compact bool) ([]byte, error)
	// DecodeLength parses the instruction at the start of buf and returns
	// its encoded length. For one-step-decode targets this only validates
	// the word — the length is known without a length-decode stage.
	DecodeLength(buf []byte, compact bool) (int, error)
	// InstrLen returns instruction i's final encoded length in a laid-out
	// program — the seam Predecode consumes.
	InstrLen(p *code.Program, i int) int
	// MaxLen bounds any encodable instruction's length.
	MaxLen() int
	// Boundaries returns the byte offset of every instruction start in a
	// code image, found the way the target's fetch stage finds them: the
	// ILD's instruction-marker scan on x86, the fixed stride on
	// fixed-length targets.
	Boundaries(img []byte, compact bool) ([]int, error)
}

// InstrDecoder is implemented by targets whose single decode step recovers
// the full instruction, not just its length (fixed-length targets). The
// conformance verifier uses it for a full encode → decode → compare round
// trip: Normalize gives the canonical form the word format preserves
// (profile hints and implied fields zeroed), which the decoded instruction
// must match exactly.
type InstrDecoder interface {
	DecodeInstr(buf []byte) (code.Instr, error)
	Normalize(in *code.Instr) code.Instr
}

type x86Coder struct{}

func (x86Coder) Target() *isa.Target                       { return &isa.X86Target }
func (x86Coder) Layout(p *code.Program, base uint32) error { return layoutX86(p, base) }
func (x86Coder) InstrLen(p *code.Program, i int) int       { return Length(p, i) }
func (x86Coder) MaxLen() int                               { return MaxInstrLen }
func (x86Coder) EncodeInstr(in *code.Instr, length int, compact bool) ([]byte, error) {
	return EncodeInstr(in, length, compact)
}
func (x86Coder) DecodeLength(buf []byte, compact bool) (int, error) {
	return NewILD(compact).DecodeLength(buf)
}
func (x86Coder) Boundaries(img []byte, compact bool) ([]int, error) {
	m, err := NewILD(compact).Mark(img)
	if err != nil {
		return nil, err
	}
	return m.Boundaries, nil
}

var (
	coderX86     Coder = x86Coder{}
	coderAlpha64 Coder = alpha64Coder{}
)

// ForTarget resolves the coder for a target name ("" and "x86" are the
// default x86 encoding).
func ForTarget(name string) (Coder, error) {
	switch name {
	case "", "x86":
		return coderX86, nil
	case "alpha64":
		return coderAlpha64, nil
	}
	_, err := isa.ResolveTarget(name) // uniform error text
	return nil, err
}

// ForProgram returns the coder for the program's target. Unknown names fall
// back to the x86 coder; Program.Validate rejects them before any layout or
// execution, so the fallback only affects diagnostics on invalid programs.
func ForProgram(p *code.Program) Coder {
	if c, err := ForTarget(p.Target); err == nil {
		return c
	}
	return coderX86
}
