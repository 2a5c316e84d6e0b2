package compiler

import (
	"fmt"

	"compisa/internal/check"
	"compisa/internal/code"
	"compisa/internal/ir"
	"compisa/internal/isa"
)

// VerifyMode controls the post-compile conformance gate (internal/check).
type VerifyMode uint8

const (
	// VerifyDefault runs the gate.
	VerifyDefault VerifyMode = iota
	// VerifyOff skips it, for callers that check the program themselves:
	// the evaluation pipeline has its own verification stage with fault
	// accounting, and compose-lint reports findings instead of failing.
	VerifyOff
)

// Options tunes the backend.
type Options struct {
	// IfConvert overrides the if-conversion heuristic; nil uses defaults.
	IfConvert *ifConvertOptions
	// DisableFolding turns off x86 memory-operand folding (for ablation).
	DisableFolding bool
	// CompactEncoding lays the program out under the hypothetical
	// from-scratch superset encoding (1-byte REXBC/predicate prefixes),
	// the tighter-encoding variant the paper sketches in Section V.A.
	CompactEncoding bool
	// Target selects the guest-ISA encoding backend the program is lowered
	// and laid out for: "" or "x86" for the default variable-length x86
	// encoding, "alpha64" for the fixed-length 32-bit RISC target. The
	// backend adapts lowering to the target's legality: memory-operand
	// folding off, load/store-only addressing, and fixed-width immediates
	// built by ld-imm splitting.
	Target string
	// FaultHook, if non-nil, is consulted before compilation; a non-nil
	// return aborts the compile with that error. The exploration layer
	// uses it to inject compile failures through the real pipeline so
	// recovery paths stay exercised.
	FaultHook func() error
	// Verify selects whether the emitted program is gated through the
	// internal/check conformance verifier before being returned.
	Verify VerifyMode
}

// stripNops removes NOP placeholders left by memory-operand folding so later
// passes (notably if-conversion's predicability check) see clean blocks.
func stripNops(mf *mFunc) {
	for _, b := range mf.blocks {
		k := 0
		for i := range b.instrs {
			if b.instrs[i].Op == code.NOP {
				continue
			}
			b.instrs[k] = b.instrs[i]
			k++
		}
		b.instrs = b.instrs[:k]
	}
}

// Compile lowers an IR region to machine code for the given composite
// feature set. The function is consumed: passes mutate it, so callers must
// regenerate the IR for each compilation (the workload generators are cheap
// and deterministic).
func Compile(f *ir.Func, fs isa.FeatureSet, opts Options) (*code.Program, error) {
	if err := fs.Validate(); err != nil {
		return nil, err
	}
	if opts.FaultHook != nil {
		if err := opts.FaultHook(); err != nil {
			return nil, fmt.Errorf("compile %s for %s: %w", f.Name, fs.ShortName(), err)
		}
	}
	tgt, err := isa.ResolveTarget(opts.Target)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", f.Name, err)
	}
	if err := tgt.SupportsFS(fs); err != nil {
		return nil, fmt.Errorf("compile %s for %s: target %s: %w", f.Name, fs.ShortName(), tgt.Name, err)
	}
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("compile %s: %w", f.Name, err)
	}
	mf := newMFunc(f.Name)

	runVectorize(f, fs, &mf.stats)

	// Targets without memory operands never fold loads into ALU ops; the
	// legalization pass then only has to rewrite the remaining LD/ST forms.
	if err := runISel(f, fs, mf, opts.DisableFolding || !tgt.MemOperands); err != nil {
		return nil, fmt.Errorf("compile %s for %s: isel: %w", f.Name, fs.ShortName(), err)
	}

	stripNops(mf)

	ico := defaultIfConvertOptions()
	if opts.IfConvert != nil {
		ico = *opts.IfConvert
	}
	runIfConvert(mf, fs, ico, &mf.stats)

	runDCE(mf)

	if err := mf.verify(); err != nil {
		return nil, fmt.Errorf("compile %s for %s: %w", f.Name, fs.ShortName(), err)
	}

	alloc := runRegAlloc(mf, fs, tgt)

	prog, err := emitProgram(mf, fs, alloc, f.Name, opts.CompactEncoding, tgt)
	if err != nil {
		return nil, fmt.Errorf("compile %s for %s: %w", f.Name, fs.ShortName(), err)
	}
	if opts.Verify != VerifyOff {
		if err := check.Verify(prog); err != nil {
			return nil, fmt.Errorf("compile %s for %s: %w", f.Name, fs.ShortName(), err)
		}
	}
	return prog, nil
}
