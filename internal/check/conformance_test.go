package check_test

import (
	"fmt"
	"strings"
	"testing"

	"compisa/internal/check"
	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/isa"
	"compisa/internal/workload"
)

// TestCleanCompilerOutput is the acceptance criterion: the verifier reports
// zero findings for every (feature set, region) pair the compiler can
// produce. In -short mode it samples one region per benchmark.
func TestCleanCompilerOutput(t *testing.T) {
	regions := workload.Regions()
	if testing.Short() {
		var sample []workload.Region
		seen := map[string]bool{}
		for _, r := range regions {
			if !seen[r.Benchmark] {
				seen[r.Benchmark] = true
				sample = append(sample, r)
			}
		}
		regions = sample
	}
	for _, fs := range isa.Derive() {
		fs := fs
		t.Run(fs.ShortName(), func(t *testing.T) {
			t.Parallel()
			for _, r := range regions {
				f, _, err := r.Build(fs.Width)
				if err != nil {
					t.Fatalf("%s: build: %v", r.Name, err)
				}
				prog, err := compiler.Compile(f, fs, compiler.Options{})
				if err != nil {
					t.Fatalf("%s: compile: %v", r.Name, err)
				}
				prog.Name = r.Name
				rep := check.Analyze(prog)
				if len(rep.Findings) != 0 {
					t.Errorf("%s: %d finding(s) on clean output:\n%s", r.Name, len(rep.Findings), rep.String())
				}
				checkOperandClasses(t, prog)
			}
		})
	}
}

// checkOperandClasses asserts that the compiler names a register only in
// an operand slot its op uses, per the code table: a Dst only on an op that
// writes a register (IntDst or IsFP; CMP, TEST, FCMP, ST, FST, VST and the
// branches carry NoReg), no register source on FLD and VLD, which read only
// their address, and no second source on CVTIF. Every layer that reads the
// table for these ops (the timing model's destinations, the translator's
// write-back, IntRegs) relies on it.
func checkOperandClasses(t *testing.T, p *code.Program) {
	t.Helper()
	for i := range p.Instrs {
		in := &p.Instrs[i]
		bad := in.Dst != code.NoReg && !in.Op.IntDst() && !in.Op.IsFP()
		switch in.Op {
		case code.FLD, code.VLD:
			bad = bad || in.Src1 != code.NoReg || in.Src2 != code.NoReg
		case code.CVTIF:
			bad = bad || in.Src2 != code.NoReg
		}
		if bad {
			t.Errorf("%s[%d] %s: register in an operand slot the op does not use", p.Name, i, code.FormatInstr(in))
		}
	}
}

// TestCleanCompilerOutputAlpha64 extends the conformance matrix to the
// alpha64 target: for every derived feature set within the alpha64 encoding
// envelope, every region must compile to a program with zero findings —
// including the target-parameterized imm/struct rules and the fixed-length
// encode → one-step-decode → compare round trip.
func TestCleanCompilerOutputAlpha64(t *testing.T) {
	regions := workload.Regions()
	if testing.Short() {
		var sample []workload.Region
		seen := map[string]bool{}
		for _, r := range regions {
			if !seen[r.Benchmark] {
				seen[r.Benchmark] = true
				sample = append(sample, r)
			}
		}
		regions = sample
	}
	covered := 0
	for _, fs := range isa.Derive() {
		if isa.Alpha64Target.SupportsFS(fs) != nil {
			continue
		}
		covered++
		fs := fs
		t.Run(fs.ShortName(), func(t *testing.T) {
			t.Parallel()
			for _, r := range regions {
				f, _, err := r.Build(fs.Width)
				if err != nil {
					t.Fatalf("%s: build: %v", r.Name, err)
				}
				prog, err := compiler.Compile(f, fs, compiler.Options{Target: "alpha64"})
				if err != nil {
					t.Fatalf("%s: compile: %v", r.Name, err)
				}
				prog.Name = r.Name
				rep := check.Analyze(prog)
				if len(rep.Findings) != 0 {
					t.Errorf("%s: %d finding(s) on clean alpha64 output:\n%s", r.Name, len(rep.Findings), rep.String())
				}
				checkOperandClasses(t, prog)
			}
		})
	}
	if covered == 0 {
		t.Fatal("no derived feature set fits the alpha64 envelope — matrix not extended")
	}
}

// TestMutationDetectionAlpha64 runs the mutation sweep on an alpha64-encoded
// program: every applicable class must still be caught through the
// target-parameterized rules, and the encode and imm classes must apply.
func TestMutationDetectionAlpha64(t *testing.T) {
	fs := isa.X86izedAlpha
	bench, err := workload.ByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	r := bench.Regions[0]
	f, _, err := r.Build(fs.Width)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(f, fs, compiler.Options{Target: "alpha64"})
	if err != nil {
		t.Fatal(err)
	}
	prog.Name = r.Name
	for seed := uint64(1); seed <= 3; seed++ {
		applied := map[string]bool{}
		for _, d := range check.MutationSweep(prog, seed) {
			applied[d.Class] = d.Applied
			if d.Applied && !d.Caught {
				t.Errorf("seed %d: class %s not caught (%s); rules: %v", seed, d.Class, d.Desc, d.Rules)
			}
		}
		for _, class := range []string{check.RuleImm, check.RuleEncode, check.RuleDepth} {
			if !applied[class] {
				t.Errorf("seed %d: class %s should apply to an alpha64 program", seed, class)
			}
		}
	}
	if rep := check.Analyze(prog); len(rep.Findings) != 0 {
		t.Errorf("sweep mutated the original program:\n%s", rep.String())
	}
}

// TestMutationDetection asserts the verifier's detection power: every
// violation class the harness can seed into a program is caught by the rule
// that owns it. The microx86/32-bit/depth-8/partial feature set makes all
// nine classes applicable (given a region that spills, which hmmer's
// register pressure guarantees).
func TestMutationDetection(t *testing.T) {
	fs := isa.MustNew(isa.MicroX86, 32, 8, isa.PartialPredication)
	bench, err := workload.ByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	r := bench.Regions[0]
	f, _, err := r.Build(fs.Width)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(f, fs, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog.Name = r.Name

	const seed = 1
	dets := check.MutationSweep(prog, seed)
	if len(dets) != len(check.MutationClasses()) {
		t.Fatalf("sweep covered %d classes, want %d", len(dets), len(check.MutationClasses()))
	}
	for _, d := range dets {
		if !d.Applied {
			t.Errorf("class %s should be applicable on %s/%s", d.Class, r.Name, fs.ShortName())
			continue
		}
		if !d.Caught {
			t.Errorf("class %s NOT caught (%s); findings by rule: %v", d.Class, d.Desc, d.Rules)
		}
	}

	// The original program must be untouched by the sweep.
	if rep := check.Analyze(prog); len(rep.Findings) != 0 {
		t.Errorf("sweep mutated the original program:\n%s", rep.String())
	}
}

// TestMutationDetectionAcrossFeatureSets runs the sweep for one region under
// every feature set: whatever classes apply must be caught, and several
// seeds shuffle the mutation sites.
func TestMutationDetectionAcrossFeatureSets(t *testing.T) {
	bench, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	r := bench.Regions[0]
	for _, fs := range isa.Derive() {
		fs := fs
		t.Run(fs.ShortName(), func(t *testing.T) {
			t.Parallel()
			f, _, err := r.Build(fs.Width)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := compiler.Compile(f, fs, compiler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			prog.Name = r.Name
			for seed := uint64(1); seed <= 3; seed++ {
				for _, d := range check.MutationSweep(prog, seed) {
					if d.Applied && !d.Caught {
						t.Errorf("seed %d: class %s not caught (%s); rules: %v",
							seed, d.Class, d.Desc, d.Rules)
					}
				}
			}
		})
	}
}

// TestVerifyMatchesAnalyze pins the gate to the report: Verify errors
// exactly when Analyze has an error-severity finding.
func TestVerifyMatchesAnalyze(t *testing.T) {
	fs := isa.MustNew(isa.FullX86, 64, 64, isa.FullPredication)
	r := workload.Regions()[0]
	f, _, err := r.Build(fs.Width)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(f, fs, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog.Name = r.Name
	if err := check.Verify(prog); err != nil {
		t.Fatalf("clean program rejected: %v", err)
	}
	mut := check.Clone(prog)
	if _, ok := check.Mutate(mut, check.RuleUDef, 1); !ok {
		t.Fatal("udef mutation should always apply")
	}
	err = check.Verify(mut)
	if err == nil {
		t.Fatal("mutant accepted")
	}
	if want := fmt.Sprintf("%s for %s", r.Name, fs.ShortName()); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q should identify %q", err, want)
	}
}
