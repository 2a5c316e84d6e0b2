package workload

import (
	"testing"

	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/ir"
	"compisa/internal/isa"
	"compisa/internal/mem"
)

// mustBuild builds a region, failing the test on generator errors.
func mustBuild(t *testing.T, r Region, width int) (*ir.Func, *mem.Memory) {
	t.Helper()
	f, m, err := r.Build(width)
	if err != nil {
		t.Fatalf("%s (w%d): %v", r.Name, width, err)
	}
	return f, m
}

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 8 {
		t.Fatalf("expected 8 benchmarks, got %d", len(suite))
	}
	total := 0
	for _, b := range suite {
		total += len(b.Regions)
		sum := 0.0
		for _, r := range b.Regions {
			sum += r.Weight
			if r.Benchmark != b.Name {
				t.Errorf("%s: region labeled %q", b.Name, r.Benchmark)
			}
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: weights sum to %f", b.Name, sum)
		}
	}
	if total != 49 {
		t.Fatalf("suite has %d regions, paper uses 49", total)
	}
}

func TestRegionsVerifyAndInterpret(t *testing.T) {
	for _, r := range Regions() {
		for _, width := range []int{32, 64} {
			f, m := mustBuild(t, r, width)
			if err := f.Verify(); err != nil {
				t.Fatalf("%s (w%d): %v", r.Name, width, err)
			}
			res, err := ir.Interp(f, m, width/8, 20_000_000)
			if err != nil {
				t.Fatalf("%s (w%d): %v", r.Name, width, err)
			}
			if res.Steps < 5_000 {
				t.Errorf("%s (w%d): only %d IR steps; regions should do real work", r.Name, width, res.Steps)
			}
			if res.Steps > 3_000_000 {
				t.Errorf("%s (w%d): %d IR steps; too heavy for the DSE", r.Name, width, res.Steps)
			}
		}
	}
}

func TestRegionsDeterministic(t *testing.T) {
	for _, r := range Regions()[:10] {
		f1, m1 := mustBuild(t, r, 64)
		f2, m2 := mustBuild(t, r, 64)
		r1, err1 := ir.Interp(f1, m1, 8, 20_000_000)
		r2, err2 := ir.Interp(f2, m2, 8, 20_000_000)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1.Ret != r2.Ret {
			t.Errorf("%s: nondeterministic build", r.Name)
		}
	}
}

// TestChecksumAcrossFeatureSets compiles a sample of regions for every
// derived feature set and checks the executed checksum against the IR
// reference — the suite-level version of the compiler's differential test.
func TestChecksumAcrossFeatureSets(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross-ISA sweep in long mode only")
	}
	sample := []int{0, 6, 14, 19, 25, 28, 30, 35, 40, 44, 48} // across benchmarks
	regions := Regions()
	for _, ri := range sample {
		r := regions[ri]
		var want [2]uint64
		for wi, width := range []int{32, 64} {
			f, m := mustBuild(t, r, width)
			res, err := ir.Interp(f, m, width/8, 30_000_000)
			if err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			want[wi] = res.Ret & 0xffffffff
		}
		for _, fs := range isa.Derive() {
			f, m := mustBuild(t, r, fs.Width)
			prog, err := compiler.Compile(f, fs, compiler.Options{})
			if err != nil {
				t.Fatalf("%s for %s: %v", r.Name, fs.ShortName(), err)
			}
			st := cpu.NewState(m)
			res, err := cpu.Run(prog, st, 30_000_000, nil)
			if err != nil {
				t.Fatalf("%s for %s: %v", r.Name, fs.ShortName(), err)
			}
			w := want[1]
			if fs.Width == 32 {
				w = want[0]
			}
			if res.Ret&0xffffffff != w {
				t.Errorf("%s on %s: checksum %#x want %#x", r.Name, fs.ShortName(), res.Ret, w)
			}
		}
	}
}

// TestBenchmarkCharacteristics verifies the paper's per-benchmark traits
// hold mechanistically in the generated code.
func TestBenchmarkCharacteristics(t *testing.T) {
	pressure := func(name string) int {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		max := 0
		for _, r := range b.Regions {
			f, _ := mustBuild(t, r, 64)
			if p := f.MaxLivePressure(false); p > max {
				max = p
			}
		}
		return max
	}
	if hp, lp := pressure("hmmer"), pressure("lbm"); hp <= lp+10 {
		t.Errorf("hmmer (%d live) must have far higher register pressure than lbm (%d)", hp, lp)
	}
	if pressure("hmmer") < 32 {
		t.Errorf("hmmer pressure %d should exceed 32 registers", pressure("hmmer"))
	}

	// lbm/milc must vectorize; sjeng/gobmk must not.
	vecLoops := func(name string) int {
		b, _ := ByName(name)
		n := 0
		for _, r := range b.Regions {
			f, _ := mustBuild(t, r, 64)
			prog, err := compiler.Compile(f, isa.X8664, compiler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			n += prog.Stats.VectorLoops
		}
		return n
	}
	if vecLoops("lbm") == 0 || vecLoops("milc") == 0 {
		t.Error("lbm and milc must contain vectorizable loops")
	}
	if vecLoops("sjeng") != 0 {
		t.Error("sjeng should not vectorize")
	}

	// sjeng/gobmk: full predication removes branches in most regions.
	ifconv := func(name string) int {
		b, _ := ByName(name)
		n := 0
		for _, r := range b.Regions {
			f, _ := mustBuild(t, r, 64)
			prog, err := compiler.Compile(f, isa.Superset, compiler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			n += prog.Stats.IfConversions
		}
		return n
	}
	if ifconv("sjeng") < 3 || ifconv("gobmk") < 3 {
		t.Errorf("sjeng/gobmk should if-convert: %d / %d", ifconv("sjeng"), ifconv("gobmk"))
	}
	if ifconv("hmmer") != 0 {
		t.Errorf("hmmer is branch-free DP; got %d if-conversions", ifconv("hmmer"))
	}
}

// TestMcfFootprintDependsOnWidth: 64-bit pointers must inflate mcf's
// resident data set (Section III's cache working set effect).
func TestMcfFootprintDependsOnWidth(t *testing.T) {
	b, _ := ByName("mcf")
	r := b.Regions[2] // large chase
	_, m32 := mustBuild(t, r, 32)
	_, m64 := mustBuild(t, r, 64)
	if m64.Pages() <= m32.Pages() {
		t.Errorf("64-bit mcf image (%d pages) should exceed 32-bit (%d pages)",
			m64.Pages(), m32.Pages())
	}
}

// TestRegionByName: every suite region is found under its own name, and an
// unknown name is reported as missing.
func TestRegionByName(t *testing.T) {
	for _, want := range Regions() {
		got, ok := RegionByName(want.Name)
		if !ok || got.Benchmark != want.Benchmark || got.Index != want.Index {
			t.Fatalf("RegionByName(%q) = %s/%d, %v", want.Name, got.Benchmark, got.Index, ok)
		}
	}
	if _, ok := RegionByName("hmmer.99"); ok {
		t.Error("RegionByName found a region that does not exist")
	}
}

// TestImageMatchesBuild: Image generates, for every region and width, the
// memory image Build does, byte for byte, and fails where Build fails.
func TestImageMatchesBuild(t *testing.T) {
	for _, r := range Regions() {
		for _, width := range []int{32, 64} {
			_, want, err := r.Build(width)
			got, ierr := r.Image(width)
			if (err == nil) != (ierr == nil) {
				t.Fatalf("%s (w%d): Build error %v, Image error %v", r.Name, width, err, ierr)
			}
			if err == nil && !got.Equal(want) {
				t.Errorf("%s (w%d): Image's memory differs from Build's (%d vs %d pages)", r.Name, width, got.Pages(), want.Pages())
			}
		}
	}
}

// TestCodeMatchesBuild: Code generates, for every region and width, the IR
// Build does, and fails where Build fails.
func TestCodeMatchesBuild(t *testing.T) {
	for _, r := range Regions() {
		for _, width := range []int{32, 64} {
			f, _, err := r.Build(width)
			g, cerr := r.Code(width)
			if (err == nil) != (cerr == nil) {
				t.Fatalf("%s (w%d): Build error %v, Code error %v", r.Name, width, err, cerr)
			}
			if err == nil && f.String() != g.String() {
				t.Errorf("%s (w%d): Code's IR differs from Build's", r.Name, width)
			}
		}
	}
}
