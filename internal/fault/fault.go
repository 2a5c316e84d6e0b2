// Package fault provides the typed failure taxonomy and the deterministic
// fault injector used by the design-space-exploration pipeline.
//
// A production-scale exploration evaluates hundreds of (region, ISA)
// profiles and thousands of design points; individual evaluation failures
// must be isolated, classified, and accounted for rather than aborting the
// whole run. This package supplies the vocabulary for that: every failure
// on the evaluate path is wrapped in a *fault.Error carrying the pipeline
// stage it arose in, the (region, ISA) pair it belongs to, and whether a
// retry may succeed. The injector makes those failure paths testable by
// forcing them deterministically at a configured rate.
package fault

import (
	"errors"
	"fmt"
)

// Stage identifies where in the evaluate pipeline a failure occurred.
type Stage uint8

const (
	// StageCompile covers failures lowering IR to machine code.
	StageCompile Stage = iota
	// StageExec covers functional-execution failures: unimplemented
	// opcodes, PC out of range, the instruction-budget watchdog, and
	// recovered panics.
	StageExec
	// StageModel covers timing/power model failures on a valid profile.
	StageModel
	// StageVerify covers static-conformance failures: the compiled region
	// carries machine code illegal for its composite feature set
	// (internal/check found violations before execution).
	StageVerify
	// StageStore covers durable-tier failures: the profile store
	// (internal/store) could not write, sync or rename a record file.
	// Store faults never invalidate an in-memory evaluation —
	// they degrade durability, so they are typically marked Transient
	// (the disk may come back) and a serving layer answers from memory.
	StageStore
)

func (s Stage) String() string {
	switch s {
	case StageCompile:
		return "compile"
	case StageExec:
		return "exec"
	case StageModel:
		return "model"
	case StageVerify:
		return "verify"
	case StageStore:
		return "store"
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// ErrInjected is the sentinel every injected fault wraps, so tests and
// callers can distinguish injected failures from organic ones with
// errors.Is(err, fault.ErrInjected).
var ErrInjected = errors.New("injected fault")

// Error is the typed evaluation failure for one (region, ISA) pair.
// It wraps the underlying cause, so errors.Is/errors.As reach sentinel
// errors like cpu.ErrInstrBudget through it.
type Error struct {
	Stage  Stage
	Region string // region name, e.g. "hmmer.0"
	ISA    string // ISA choice key, e.g. "x86-32D-Full"
	// Transient marks failures a bounded retry may clear (injected
	// transient faults, timeouts on a loaded machine).
	Transient bool
	Err       error
}

func (e *Error) Error() string {
	if e.Region == "" && e.ISA == "" {
		// Store faults are not tied to a (region, ISA) pair.
		return fmt.Sprintf("%s: %v", e.Stage, e.Err)
	}
	return fmt.Sprintf("%s %s for %s: %v", e.Stage, e.Region, e.ISA, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Is makes errors.Is(err, &fault.Error{Stage: s}) match on stage alone,
// and supports matching any *fault.Error via a zero value with stage
// comparison; the common path is errors.As.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	if !ok {
		return false
	}
	return t.Stage == e.Stage &&
		(t.Region == "" || t.Region == e.Region) &&
		(t.ISA == "" || t.ISA == e.ISA)
}

// Wrap builds a stage-classified error for a (region, ISA) pair. It returns
// nil for a nil cause. If the cause is already a *fault.Error it is
// returned unchanged (the first classification wins).
func Wrap(stage Stage, region, isaKey string, err error) error {
	if err == nil {
		return nil
	}
	var fe *Error
	if errors.As(err, &fe) {
		return err
	}
	return &Error{Stage: stage, Region: region, ISA: isaKey, Err: err}
}

// IsTransient reports whether err (or any error it wraps) is a transient
// fault worth retrying.
func IsTransient(err error) bool {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Transient
	}
	return false
}
