// Package isa defines the superset ISA of the composite-ISA architecture and
// the derivation of custom feature sets from it.
//
// The superset ISA resembles x86 augmented with extensions that make five
// dimensions customizable: register depth (8/16/32/64 programmable registers),
// register width (32/64 bits), instruction complexity (the load-compute-store
// "microx86" micro-op subset versus the full CISC x86 with memory operands),
// predication (partial CMOV-style versus full predication on any GPR), and
// data-parallel execution (scalar versus 128-bit SSE vectors). Pruning the
// permutations that are not viable yields the paper's 26 composite feature
// sets (Figure 1).
package isa

import (
	"fmt"
	"strconv"
)

// Complexity selects the opcode/addressing-mode richness of a feature set.
type Complexity uint8

const (
	// MicroX86 restricts the instruction set to opcodes and addressing
	// modes that decode into exactly one micro-op, following the
	// load-compute-store discipline of RISC architectures (but keeping
	// x86's variable-length encoding).
	MicroX86 Complexity = iota
	// FullX86 is the full CISC instruction set: memory operands, complex
	// addressing modes, and 1:n macro-op to micro-op decoding. FullX86
	// feature sets always include the SSE2 vector extension.
	FullX86
)

func (c Complexity) String() string {
	if c == MicroX86 {
		return "microx86"
	}
	return "x86"
}

// Predication selects the predication model of a feature set.
type Predication uint8

const (
	// PartialPredication is x86's existing CMOVxx support: only moves may
	// be predicated, on condition codes.
	PartialPredication Predication = iota
	// FullPredication allows any instruction to be predicated on any
	// general-purpose register via the predicate prefix (Figure 3).
	FullPredication
)

func (p Predication) String() string {
	if p == FullPredication {
		return "full"
	}
	return "partial"
}

// FeatureSet is one composite ISA carved out of the superset ISA. The zero
// value is not meaningful; use New or one of the predefined sets.
type FeatureSet struct {
	// Complexity is microx86 (1:1 decode) or full x86 (1:n decode).
	Complexity Complexity
	// Width is the general-purpose register width in bits: 32 or 64.
	Width int
	// Depth is the number of programmable general-purpose registers
	// exposed to the compiler: 8, 16, 32, or 64.
	Depth int
	// Predication is partial (CMOV) or full.
	Predication Predication
}

// ValidDepths are the register depths the superset ISA can expose.
var ValidDepths = [4]int{8, 16, 32, 64}

// ValidWidths are the register widths the superset ISA can expose.
var ValidWidths = [2]int{32, 64}

// New validates and returns a feature set. It enforces the derivation rules
// of Section III: 64-bit feature sets require a register depth of at least
// 16, and 32-bit feature sets with only 8 registers cannot enable full
// predication (register pressure makes it unprofitable).
func New(c Complexity, width, depth int, p Predication) (FeatureSet, error) {
	fs := FeatureSet{Complexity: c, Width: width, Depth: depth, Predication: p}
	if err := fs.Validate(); err != nil {
		return FeatureSet{}, err
	}
	return fs, nil
}

// ParseFeatureSet is New over the command-line spellings of complexity
// ("x86" or "microx86") and predication ("partial" or "full"). An unknown
// spelling is an error, like an invalid combination.
func ParseFeatureSet(complexity string, width, depth int, pred string) (FeatureSet, error) {
	var c Complexity
	switch complexity {
	case "x86":
		c = FullX86
	case "microx86":
		c = MicroX86
	default:
		return FeatureSet{}, fmt.Errorf("isa: unknown complexity %q (have x86, microx86)", complexity)
	}
	var p Predication
	switch pred {
	case "partial":
		p = PartialPredication
	case "full":
		p = FullPredication
	default:
		return FeatureSet{}, fmt.Errorf("isa: unknown predication %q (have partial, full)", pred)
	}
	return New(c, width, depth, p)
}

// InvariantError is the typed panic value raised by MustNew when a
// known-good literal turns out to be invalid. It exists so recovery layers
// (the exploration pipeline recovers per-evaluation panics) can classify
// the failure with errors.As instead of matching panic strings.
type InvariantError struct {
	FS  FeatureSet
	Err error
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("isa: invalid feature-set literal %+v: %v", e.FS, e.Err)
}

func (e *InvariantError) Unwrap() error { return e.Err }

// MustNew is New for known-good literals. Passing an invalid combination is
// a programming error (the literal itself is wrong), so it is a documented
// invariant check: it panics with a typed *InvariantError rather than
// returning. Code paths with runtime-derived feature sets must use New.
func MustNew(c Complexity, width, depth int, p Predication) FeatureSet {
	fs, err := New(c, width, depth, p)
	if err != nil {
		panic(&InvariantError{FS: FeatureSet{Complexity: c, Width: width, Depth: depth, Predication: p}, Err: err})
	}
	return fs
}

// Validate reports whether the feature set is one of the viable combinations.
func (f FeatureSet) Validate() error {
	switch f.Width {
	case 32, 64:
	default:
		return fmt.Errorf("isa: invalid register width %d", f.Width)
	}
	switch f.Depth {
	case 8, 16, 32, 64:
	default:
		return fmt.Errorf("isa: invalid register depth %d", f.Depth)
	}
	if f.Width == 64 && f.Depth < 16 {
		return fmt.Errorf("isa: 64-bit feature sets require register depth >= 16 (got %d)", f.Depth)
	}
	if f.Width == 32 && f.Depth == 8 && f.Predication == FullPredication {
		return fmt.Errorf("isa: full predication is excluded from 32-bit feature sets with 8 registers")
	}
	return nil
}

// HasSIMD reports whether the feature set implements SSE2. SIMD rides on
// instruction complexity: more than half of SIMD operations rely on 1:n
// macro-op to micro-op decoding, so microx86 feature sets exclude SSE2.
func (f FeatureSet) HasSIMD() bool { return f.Complexity == FullX86 }

// FPRegs is the number of architectural FP/SIMD (xmm) registers. The narrow
// 8-register feature sets expose 8 xmm registers; all others expose 16.
func (f FeatureSet) FPRegs() int {
	if f.Depth == 8 {
		return 8
	}
	return 16
}

// Name returns the paper-style name, e.g. "microx86-8D-32W (partial)".
func (f FeatureSet) Name() string {
	return fmt.Sprintf("%s-%dD-%dW (%s)", f.Complexity, f.Depth, f.Width, f.Predication)
}

// ShortName returns a compact identifier usable in tables, e.g. "ux86-8D-32W-P".
func (f FeatureSet) ShortName() string {
	c := "x86"
	if f.Complexity == MicroX86 {
		c = "ux86"
	}
	p := "P"
	if f.Predication == FullPredication {
		p = "F"
	}
	return c + "-" + strconv.Itoa(f.Depth) + "D-" + strconv.Itoa(f.Width) + "W-" + p
}

func (f FeatureSet) String() string { return f.Name() }

// Superset is the full superset ISA: every customizable feature enabled.
var Superset = FeatureSet{Complexity: FullX86, Width: 64, Depth: 64, Predication: FullPredication}

// X8664 is the unmodified x86-64 + SSE baseline ISA (16 registers, 64-bit,
// partial predication, full CISC complexity).
var X8664 = FeatureSet{Complexity: FullX86, Width: 64, Depth: 16, Predication: PartialPredication}

// MicroX86Min is the smallest feature set in the exploration:
// the 32-bit microx86 with a register depth of 8 and no additional features.
var MicroX86Min = FeatureSet{Complexity: MicroX86, Width: 32, Depth: 8, Predication: PartialPredication}

// X86izedThumb is the x86-ized version of ARM Thumb from Table II:
// a load/store architecture with 8 registers, 32-bit width, no SIMD.
var X86izedThumb = MicroX86Min

// X86izedAlpha is the x86-ized version of Alpha from Table II: a load/store
// architecture with 32 registers, 64-bit width, no SIMD.
var X86izedAlpha = FeatureSet{Complexity: MicroX86, Width: 64, Depth: 32, Predication: PartialPredication}

// XIzedFixedSets are the three x86-based fixed feature sets that resemble the
// vendor-specific ISAs (Table II); the limited-diversity composite-ISA CMP
// chooses among exactly these.
func XIzedFixedSets() []FeatureSet {
	return []FeatureSet{X86izedThumb, X86izedAlpha, X8664}
}

// Derive enumerates all viable composite feature sets in deterministic order.
// With the pruning rules of Section III this yields exactly 26 sets.
func Derive() []FeatureSet {
	var out []FeatureSet
	for _, c := range []Complexity{MicroX86, FullX86} {
		for _, w := range ValidWidths {
			for _, d := range ValidDepths {
				for _, p := range []Predication{PartialPredication, FullPredication} {
					fs := FeatureSet{Complexity: c, Width: w, Depth: d, Predication: p}
					if fs.Validate() == nil {
						out = append(out, fs)
					}
				}
			}
		}
	}
	return out
}

// Subsumes reports whether code compiled for target set b can execute
// natively on a core implementing feature set f (an "upgrade" migration:
// zero binary-translation or state-transformation cost). f subsumes b when
// f offers at least b's capability along every dimension.
func (f FeatureSet) Subsumes(b FeatureSet) bool {
	if f.Complexity == MicroX86 && b.Complexity == FullX86 {
		return false
	}
	if f.Width < b.Width {
		return false
	}
	if f.Depth < b.Depth {
		return false
	}
	if f.Predication == PartialPredication && b.Predication == FullPredication {
		return false
	}
	if !f.HasSIMD() && b.HasSIMD() {
		return false
	}
	return true
}

// DowngradeKind identifies one category of feature downgrade that requires
// binary translation when migrating code to a core missing that feature.
type DowngradeKind uint8

const (
	// DowngradeWidth: 64-bit code on a 32-bit core (long-mode emulation
	// with fat pointers held in xmm registers).
	DowngradeWidth DowngradeKind = iota
	// DowngradeDepth: code using more registers than the core implements
	// (higher registers become memory operands in a register context block).
	DowngradeDepth
	// DowngradeComplexity: x86 code on a microx86 core (addressing-mode
	// transformation into ld-compute-st sequences).
	DowngradeComplexity
	// DowngradePredication: fully predicated code on a partial-predication
	// core (reverse if-conversion back to control dependences).
	DowngradePredication
	// DowngradeSIMD: vector code on a core without SIMD units (execute the
	// precompiled scalarized version; a scheduler avoids this).
	DowngradeSIMD
)

func (k DowngradeKind) String() string {
	switch k {
	case DowngradeWidth:
		return "width"
	case DowngradeDepth:
		return "register depth"
	case DowngradeComplexity:
		return "instruction complexity"
	case DowngradePredication:
		return "predication"
	case DowngradeSIMD:
		return "simd"
	}
	return "unknown"
}

// Downgrades lists the feature downgrades required to migrate code compiled
// for feature set from onto a core implementing feature set to. An empty
// slice means the migration is an upgrade (native execution).
func Downgrades(from, to FeatureSet) []DowngradeKind {
	var ks []DowngradeKind
	if from.Width == 64 && to.Width == 32 {
		ks = append(ks, DowngradeWidth)
	}
	if from.Depth > to.Depth {
		ks = append(ks, DowngradeDepth)
	}
	if from.Complexity == FullX86 && to.Complexity == MicroX86 {
		ks = append(ks, DowngradeComplexity)
	}
	if from.Predication == FullPredication && to.Predication == PartialPredication {
		ks = append(ks, DowngradePredication)
	}
	if from.HasSIMD() && !to.HasSIMD() {
		ks = append(ks, DowngradeSIMD)
	}
	return ks
}
