// Package check is the machine-code conformance verifier: a static-analysis
// layer that proves a compiled region legal for the composite feature set it
// was compiled for.
//
// The design-space exploration rests on the claim that each composite
// feature set is a strict subset of the superset ISA — a region compiled for
// {microx86, 32-bit, depth-8, partial-pred} must never touch r8+, fold
// memory operands, or emit full predication, or its simulated cycles and
// energy are fiction. The compiler's own Program.Validate is part of the
// pipeline being verified; this package is the independent gate, in the
// spirit of translation validation: it recovers the control-flow graph from
// branch targets and layout PCs, runs forward/backward dataflow (reaching
// definitions and spill-slot reaching stores) over it, and applies a
// registry of per-feature-set conformance rules, including an
// encode→decode round trip through the target's real encoder and decoder.
//
// The constant domain that proves branches constant (absint.go) computes
// widths and flags with code's SzMask, AddFlags, SubFlags, LogicFlags and
// Flags.Cond, the functions the executor runs, so its verdicts cannot drift
// from execution. The use/def model in ops.go is the exception: it is
// derived independently from the executor's semantics, and a test compares
// it with code's operand-class table, so the verifier cross-checks the
// representation rather than trusting it.
//
// Diagnostics are structured (Finding{Rule, PC, Instr, Severity, Detail})
// so tests and the compose-lint CLI can assert on exact rule hits. The
// seeded mutation harness in mutate.go flips legal programs into illegal
// ones and asserts each violation class is caught, measuring the verifier's
// detection power rather than just its false-negative rate on clean code.
package check

import (
	"fmt"
	"sort"
	"strings"

	"compisa/internal/code"
)

// Severity grades a finding.
type Severity uint8

const (
	// SevError marks a conformance violation: the program is illegal for
	// its feature set (or structurally broken) and its simulation results
	// cannot be trusted.
	SevError Severity = iota
	// SevWarn marks a suspicious construct that does not invalidate the
	// simulation (none of the built-in rules emit warnings on clean
	// compiler output; the level exists for downstream policy).
	SevWarn
)

func (s Severity) String() string {
	if s == SevWarn {
		return "warn"
	}
	return "error"
}

// Finding is one structured diagnostic.
type Finding struct {
	// Rule is the stable rule identifier (one of the Rule* constants).
	Rule string
	// PC is the byte address of the offending instruction (0 when the
	// finding is not tied to one instruction or the program has no layout).
	PC uint32
	// Index is the instruction index, -1 when program-level.
	Index int
	// Instr is the disassembled instruction for context.
	Instr string
	// Severity grades the finding.
	Severity Severity
	// Detail is the human-readable explanation.
	Detail string
}

func (f Finding) String() string {
	loc := ""
	if f.Index >= 0 {
		loc = fmt.Sprintf("%#x [%d] %s: ", f.PC, f.Index, f.Instr)
	}
	return fmt.Sprintf("%s(%s): %s%s", f.Rule, f.Severity, loc, f.Detail)
}

// Report is the result of analyzing one program.
type Report struct {
	Program  string
	FS       string
	Findings []Finding
}

// Errors counts SevError findings.
func (r *Report) Errors() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == SevError {
			n++
		}
	}
	return n
}

// ByRule groups finding counts by rule ID.
func (r *Report) ByRule() map[string]int {
	m := map[string]int{}
	for _, f := range r.Findings {
		m[f.Rule]++
	}
	return m
}

func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s for %s: %d finding(s)\n", r.Program, r.FS, len(r.Findings))
	for _, f := range r.Findings {
		sb.WriteString("  ")
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Options selects which rules run.
type Options struct {
	// Rules restricts the analysis to the listed rule IDs; nil runs all
	// registered rules.
	Rules []string
}

// Analyze runs every registered conformance rule over the program and
// returns the structured report. The program must be laid out
// (encoding.Layout filled PC/Size); Analyze reports a structural finding
// and skips layout-dependent rules otherwise.
func Analyze(p *code.Program) *Report { return AnalyzeOpts(p, Options{}) }

// AnalyzeOpts is Analyze with rule selection.
func AnalyzeOpts(p *code.Program, opts Options) *Report {
	rep := &Report{Program: p.Name, FS: p.FS.ShortName()}
	a := newAnalysis(p)
	selected := map[string]bool{}
	for _, id := range opts.Rules {
		selected[id] = true
	}
	for _, r := range Rules() {
		if opts.Rules != nil && !selected[r.ID] {
			continue
		}
		if r.NeedsCFG && a.cfgErr != nil {
			// CFG recovery failed; the cfg rule itself reports why.
			continue
		}
		rep.Findings = append(rep.Findings, r.Check(a)...)
	}
	sortFindings(rep.Findings)
	return rep
}

// sortFindings orders findings by instruction index then rule ID, so
// reports are deterministic regardless of rule registration order.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Index != fs[j].Index {
			return fs[i].Index < fs[j].Index
		}
		return fs[i].Rule < fs[j].Rule
	})
}

// Verify analyzes the program and returns an error summarizing the first
// few violations when any SevError finding exists. It is the boolean gate
// the compiler and the evaluation pipeline wire in.
func Verify(p *code.Program) error { return Analyze(p).Err() }

// Err summarizes the report's error-severity findings as a single error,
// nil when there are none.
func (r *Report) Err() error {
	if r.Errors() == 0 {
		return nil
	}
	const maxShown = 3
	var sb strings.Builder
	fmt.Fprintf(&sb, "check: %s for %s: %d conformance violation(s)", r.Program, r.FS, r.Errors())
	shown := 0
	for _, f := range r.Findings {
		if f.Severity != SevError {
			continue
		}
		if shown == maxShown {
			sb.WriteString("; ...")
			break
		}
		sb.WriteString("; ")
		sb.WriteString(f.String())
		shown++
	}
	return fmt.Errorf("%s", sb.String())
}
