package isa

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestDeriveCount(t *testing.T) {
	sets := Derive()
	if len(sets) != 26 {
		t.Fatalf("Derive() produced %d feature sets, paper derives 26", len(sets))
	}
}

func TestDeriveAllValid(t *testing.T) {
	for _, fs := range Derive() {
		if err := fs.Validate(); err != nil {
			t.Errorf("%s: %v", fs.Name(), err)
		}
	}
}

func TestDeriveUnique(t *testing.T) {
	seen := map[FeatureSet]bool{}
	for _, fs := range Derive() {
		if seen[fs] {
			t.Errorf("duplicate feature set %s", fs.Name())
		}
		seen[fs] = true
	}
}

func TestDeriveDeterministic(t *testing.T) {
	a, b := Derive(), Derive()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Derive not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDeriveContainsNamedSets(t *testing.T) {
	want := []FeatureSet{Superset, X8664, MicroX86Min, X86izedAlpha}
	sets := Derive()
	for _, w := range want {
		found := false
		for _, fs := range sets {
			if fs == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Derive() missing %s", w.Name())
		}
	}
}

func TestPruningRules(t *testing.T) {
	if _, err := New(FullX86, 64, 8, PartialPredication); err == nil {
		t.Error("64-bit with depth 8 should be invalid")
	}
	if _, err := New(MicroX86, 32, 8, FullPredication); err == nil {
		t.Error("32-bit depth-8 full predication should be invalid")
	}
	if _, err := New(FullX86, 32, 8, PartialPredication); err != nil {
		t.Errorf("32-bit depth-8 partial should be valid: %v", err)
	}
	if _, err := New(FullX86, 16, 16, PartialPredication); err == nil {
		t.Error("width 16 should be invalid")
	}
	if _, err := New(FullX86, 64, 24, PartialPredication); err == nil {
		t.Error("depth 24 should be invalid")
	}
}

func TestSIMDRidesOnComplexity(t *testing.T) {
	for _, fs := range Derive() {
		if fs.HasSIMD() != (fs.Complexity == FullX86) {
			t.Errorf("%s: SIMD must be present exactly on full-x86 sets", fs.Name())
		}
	}
}

func TestSupersetSubsumesAll(t *testing.T) {
	for _, fs := range Derive() {
		if !Superset.Subsumes(fs) {
			t.Errorf("superset must subsume %s", fs.Name())
		}
	}
}

func TestSubsumesReflexive(t *testing.T) {
	for _, fs := range Derive() {
		if !fs.Subsumes(fs) {
			t.Errorf("%s must subsume itself", fs.Name())
		}
	}
}

func TestSubsumesAntisymmetricUnlessEqual(t *testing.T) {
	sets := Derive()
	for _, a := range sets {
		for _, b := range sets {
			if a != b && a.Subsumes(b) && b.Subsumes(a) {
				t.Errorf("distinct sets mutually subsume: %s and %s", a.Name(), b.Name())
			}
		}
	}
}

func TestSubsumesMatchesEmptyDowngrades(t *testing.T) {
	sets := Derive()
	for _, from := range sets {
		for _, to := range sets {
			native := to.Subsumes(from)
			downs := Downgrades(from, to)
			if native && len(downs) != 0 {
				t.Errorf("%s -> %s: native migration but downgrades %v", from.ShortName(), to.ShortName(), downs)
			}
			if !native && len(downs) == 0 {
				t.Errorf("%s -> %s: not native but no downgrades reported", from.ShortName(), to.ShortName())
			}
		}
	}
}

func TestDowngradeKinds(t *testing.T) {
	from := Superset
	to := MicroX86Min
	ks := Downgrades(from, to)
	want := map[DowngradeKind]bool{
		DowngradeWidth: true, DowngradeDepth: true, DowngradeComplexity: true,
		DowngradePredication: true, DowngradeSIMD: true,
	}
	if len(ks) != len(want) {
		t.Fatalf("superset -> minimal should need every downgrade, got %v", ks)
	}
	for _, k := range ks {
		if !want[k] {
			t.Errorf("unexpected downgrade %v", k)
		}
	}
}

func TestSubsumesTransitive(t *testing.T) {
	sets := Derive()
	for _, a := range sets {
		for _, b := range sets {
			if !a.Subsumes(b) {
				continue
			}
			for _, c := range sets {
				if b.Subsumes(c) && !a.Subsumes(c) {
					t.Errorf("subsumption not transitive: %s ⊇ %s ⊇ %s", a.ShortName(), b.ShortName(), c.ShortName())
				}
			}
		}
	}
}

func TestFPRegs(t *testing.T) {
	if got := MicroX86Min.FPRegs(); got != 8 {
		t.Errorf("depth-8 set should expose 8 xmm registers, got %d", got)
	}
	if got := X8664.FPRegs(); got != 16 {
		t.Errorf("x86-64 should expose 16 xmm registers, got %d", got)
	}
}

func TestNames(t *testing.T) {
	if MicroX86Min.Name() != "microx86-8D-32W (partial)" {
		t.Errorf("unexpected name %q", MicroX86Min.Name())
	}
	if Superset.ShortName() != "x86-64D-64W-F" {
		t.Errorf("unexpected short name %q", Superset.ShortName())
	}
	names := map[string]bool{}
	for _, fs := range Derive() {
		if names[fs.ShortName()] {
			t.Errorf("duplicate short name %q", fs.ShortName())
		}
		names[fs.ShortName()] = true
	}
}

// TestShortNameMatchesSprintf: ShortName spells every feature set the
// exploration names exactly as the Sprintf form it replaced, so cache,
// saved-run and store keys built from it do not move.
func TestShortNameMatchesSprintf(t *testing.T) {
	sets := append(Derive(), XIzedFixedSets()...)
	for _, v := range VendorISAs() {
		sets = append(sets, v.Features)
	}
	sets = append(sets, X8664, Superset, MicroX86Min)
	for _, f := range sets {
		c, p := "x86", "P"
		if f.Complexity == MicroX86 {
			c = "ux86"
		}
		if f.Predication == FullPredication {
			p = "F"
		}
		want := fmt.Sprintf("%s-%dD-%dW-%s", c, f.Depth, f.Width, p)
		if got := f.ShortName(); got != want {
			t.Errorf("%+v: ShortName %q, want %q", f, got, want)
		}
	}
}

func TestParseFeatureSet(t *testing.T) {
	cases := []struct {
		complexity   string
		width, depth int
		pred         string
		want         FeatureSet
		wantErr      bool
	}{
		{"x86", 64, 16, "partial", X8664, false},
		{"microx86", 32, 8, "partial", MicroX86Min, false},
		{"x86", 64, 64, "full", Superset, false},
		{"microx86", 64, 32, "partial", X86izedAlpha, false},
		{"x68", 64, 16, "partial", FeatureSet{}, true},
		{"X86", 64, 16, "partial", FeatureSet{}, true},
		{"", 64, 16, "partial", FeatureSet{}, true},
		{"x86", 64, 16, "ful", FeatureSet{}, true},
		{"x86", 64, 16, "", FeatureSet{}, true},
		{"microx86", 32, 8, "full", FeatureSet{}, true}, // pruned combination
		{"x86", 48, 16, "partial", FeatureSet{}, true},
	}
	for _, c := range cases {
		got, err := ParseFeatureSet(c.complexity, c.width, c.depth, c.pred)
		if (err != nil) != c.wantErr || got != c.want {
			t.Errorf("ParseFeatureSet(%q, %d, %d, %q) = %v, %v; want %v, error %v",
				c.complexity, c.width, c.depth, c.pred, got, err, c.want, c.wantErr)
		}
	}
}

func TestRegPrefixBytes(t *testing.T) {
	cases := []struct {
		regs []int
		want int
	}{
		{[]int{0}, 0},
		{[]int{7}, 0},
		{[]int{8}, 1},
		{[]int{15}, 1},
		{[]int{16}, 2},
		{[]int{63}, 2},
		{[]int{3, 9}, 1},
		{[]int{3, 9, 40}, 2},
		{[]int{0, 1, 2}, 0},
	}
	for _, c := range cases {
		if got := RegPrefixBytes(c.regs...); got != c.want {
			t.Errorf("RegPrefixBytes(%v) = %d, want %d", c.regs, got, c.want)
		}
	}
}

func TestRegPrefixMonotonic(t *testing.T) {
	// Property: adding a register operand never shrinks the prefix cost.
	f := func(a, b uint8) bool {
		ra, rb := int(a%64), int(b%64)
		return RegPrefixBytes(ra, rb) >= RegPrefixBytes(ra)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVendorISAs(t *testing.T) {
	vs := VendorISAs()
	if len(vs) != 3 {
		t.Fatalf("expected 3 vendor ISAs, got %d", len(vs))
	}
	if !VendorThumb.CrossISA || !VendorAlpha.CrossISA {
		t.Error("Thumb and Alpha migrations must be cross-ISA")
	}
	if VendorThumb.CodeDensity >= 1.0 {
		t.Error("Thumb must model code compression (density < 1)")
	}
	if !VendorThumb.FixedLength || !VendorAlpha.FixedLength {
		t.Error("Thumb and Alpha are fixed-length ISAs")
	}
	if VendorX8664.FixedLength {
		t.Error("x86-64 is variable-length")
	}
	if VendorAlpha.FPRegs <= VendorX8664.FPRegs {
		t.Error("Alpha models more FP registers than x86 (Table II)")
	}
}

func TestXIzedFixedSets(t *testing.T) {
	sets := XIzedFixedSets()
	if len(sets) != 3 {
		t.Fatalf("expected 3 x86-ized fixed sets, got %d", len(sets))
	}
	derived := Derive()
	for _, fs := range sets {
		found := false
		for _, d := range derived {
			if d == fs {
				found = true
			}
		}
		if !found {
			t.Errorf("x86-ized set %s must be one of the 26 derived sets", fs.Name())
		}
	}
}
