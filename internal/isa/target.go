package isa

import "fmt"

// Target describes a guest-ISA encoding family: the machine-code container a
// feature set's programs are encoded into. Where FeatureSet captures the
// paper's composite dimensions (complexity, width, depth, predication), a
// Target captures the *vendor* encoding properties that used to be analytic
// fudge factors on VendorISA: instruction length discipline, register-file
// geometry, addressing and operand legality, and immediate widths.
//
// Target is a data-only descriptor so it can live in this package without
// importing the code or encoding packages (which import isa). The byte-level
// encoder/decoder for each target is registered in internal/encoding; the
// compiler's lowering, the checker's legality rules, and the power model all
// key off the fields here.
type Target struct {
	// Name identifies the target. The empty name and "x86" both denote the
	// default variable-length x86 superset encoding.
	Name string

	// FixedLen is the instruction length in bytes for fixed-length targets;
	// 0 means variable-length.
	FixedLen int
	// OneStepDecode reports that instruction boundaries are known without a
	// length-decode pipeline stage, so the instruction-length decoder (and
	// its power/area term) disappears.
	OneStepDecode bool

	// Register-file geometry the encoding can name.
	IntRegs int
	FPRegs  int

	// TwoAddress requires destructive ALU forms (Dst == Src1); the encoding
	// carries no separate first-source field for ALU operations.
	TwoAddress bool
	// MemOperands permits ALU instructions with memory source operands
	// (x86 folding). Without it the target is load/store only.
	MemOperands bool
	// MemIndex permits base+index*scale addressing.
	MemIndex bool
	// MemAbsolute permits base-less absolute-displacement addressing.
	MemAbsolute bool
	// Vector permits packed-SSE encodings.
	Vector bool
	// Predication permits the full-predication prefix.
	Predication bool

	// ImmBits is the widest inline immediate (signed for arithmetic,
	// zero-extended for logical ops on narrow targets). DispBits is the
	// widest signed memory displacement.
	ImmBits  int
	DispBits int
}

// X86Target is the default variable-length x86 superset encoding
// (internal/encoding's byte encoder and instruction-length decoder).
var X86Target = Target{
	Name:          "x86",
	FixedLen:      0,
	OneStepDecode: false,
	IntRegs:       64,
	FPRegs:        16,
	TwoAddress:    true,
	MemOperands:   true,
	MemIndex:      true,
	MemAbsolute:   true,
	Vector:        true,
	Predication:   true,
	ImmBits:       32,
	DispBits:      32,
}

// Alpha64Target is the fixed-length 32-bit RISC encoding standing in for the
// Alpha vendor ISA of the paper's multi-vendor baseline (Table II): two-
// address register operations, load/store-only memory access with
// base+displacement addressing, 16-bit immediates built up by ld-imm
// splitting, and one-step decode (no ILD).
var Alpha64Target = Target{
	Name:          "alpha64",
	FixedLen:      4,
	OneStepDecode: true,
	IntRegs:       32,
	FPRegs:        16,
	TwoAddress:    true,
	MemOperands:   false,
	MemIndex:      false,
	MemAbsolute:   false,
	Vector:        false,
	Predication:   false,
	ImmBits:       16,
	DispBits:      12,
}

var targets = []*Target{&X86Target, &Alpha64Target}

// Targets returns the registered targets.
func Targets() []*Target { return targets }

// TargetByName resolves a target name; "" and "x86" both resolve to the
// default x86 target.
func TargetByName(name string) (*Target, bool) {
	if name == "" {
		return &X86Target, true
	}
	for _, t := range targets {
		if t.Name == name {
			return t, true
		}
	}
	return nil, false
}

// ResolveTarget is TargetByName with an error for unknown names.
func ResolveTarget(name string) (*Target, error) {
	t, ok := TargetByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown target %q (have x86, alpha64)", name)
	}
	return t, nil
}

// Default reports whether t is the default x86 encoding, for which the
// feature-set rules alone govern legality.
func (t *Target) Default() bool { return t == nil || t.Name == "" || t.Name == "x86" }

// ProgTarget returns the value stored in a program's Target field: the empty
// string for the default x86 encoding, the target name otherwise.
func (t *Target) ProgTarget() string {
	if t.Default() {
		return ""
	}
	return t.Name
}

// SupportsFS reports whether the target can encode programs compiled for the
// feature set. The alpha64 target encodes the "x86-ized Alpha" point of
// Table II and its neighbors: microx86 complexity (load/store only), 64-bit
// width (no 64-on-32 carry pairs, whose flag chains the ld-imm splitter
// cannot preserve), register depth within the 5-bit register fields, and no
// full predication (a fixed 32-bit word has no predicate field).
func (t *Target) SupportsFS(fs FeatureSet) error {
	if t.Default() {
		return nil
	}
	if !t.MemOperands && fs.Complexity == FullX86 {
		return fmt.Errorf("target %s: full-x86 complexity needs memory operands", t.Name)
	}
	if !t.Vector && fs.HasSIMD() {
		return fmt.Errorf("target %s: feature set has SIMD but target has no vector encodings", t.Name)
	}
	if !t.Predication && fs.Predication == FullPredication {
		return fmt.Errorf("target %s: full predication is not encodable", t.Name)
	}
	if fs.Depth > t.IntRegs {
		return fmt.Errorf("target %s: register depth %d exceeds the %d-register file", t.Name, fs.Depth, t.IntRegs)
	}
	if fs.FPRegs() > t.FPRegs {
		return fmt.Errorf("target %s: %d FP registers exceed the %d-register file", t.Name, fs.FPRegs(), t.FPRegs)
	}
	if t.ImmBits < 32 && fs.Width != 64 {
		return fmt.Errorf("target %s: width %d needs carry pairs with wide immediates", t.Name, fs.Width)
	}
	return nil
}
