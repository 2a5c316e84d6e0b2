package eval

import (
	"reflect"
	"testing"

	"compisa/internal/code"
	"compisa/internal/isa"
	"compisa/internal/workload"
)

// simKeyBase is a synthetic program with every keyed field set to a
// non-default value, so each mutation below moves a value the key must see.
func simKeyBase() *code.Program {
	return &code.Program{
		Name: "bench.region",
		FS:   isa.FeatureSet{Complexity: isa.FullX86, Width: 64, Depth: 16, Predication: isa.FullPredication},
		Instrs: []code.Instr{
			{Op: code.ADD, Sz: 8, Dst: 1, Src1: 1, Src2: 2, Imm: 5, HasImm: true, HasMem: true,
				Mem: code.Mem{Base: 3, Index: 4, Scale: 2, Disp: 16},
				CC:  code.CCNE, Target: 1, Pred: 5, PredSense: true, TakenProb: 0.5},
			{Op: code.RET, Dst: code.NoReg, Src1: 1, Src2: code.NoReg, Pred: code.NoReg},
		},
		PC:     []uint32{code.CodeBase, code.CodeBase + 9},
		Size:   10,
		Base:   code.CodeBase,
		Pool:   []code.PoolConst{{Addr: code.PoolBase, Size: 8, Bits: 0x4000_0000_0000_0000}},
		Target: "x86",
		Stats:  code.CompileStats{Remats: 1, StaticInstrs: 2, CodeBytes: 10},
	}
}

// keyMutation changes one input of simKeyOf in place.
type keyMutation func(region *string, p *code.Program)

// simKeyed maps every input the simulation key covers (as Type.Field, or
// "region" for the region name) to a mutation of it.
var simKeyed = map[string]keyMutation{
	"region":                  func(r *string, _ *code.Program) { *r += "x" },
	"FeatureSet.Width":        func(_ *string, p *code.Program) { p.FS.Width = 32 },
	"FeatureSet.Complexity":   func(_ *string, p *code.Program) { p.FS.Complexity = isa.MicroX86 },
	"Program.Target":          func(_ *string, p *code.Program) { p.Target = "alpha64" },
	"Program.CompactEncoding": func(_ *string, p *code.Program) { p.CompactEncoding = true },
	"Program.Instrs":          func(_ *string, p *code.Program) { p.Instrs = p.Instrs[:1] },
	"Program.PC":              func(_ *string, p *code.Program) { p.PC[1]++ },
	"Program.Size":            func(_ *string, p *code.Program) { p.Size++ },
	"Program.Base":            func(_ *string, p *code.Program) { p.Base++ },
	"Program.Pool":            func(_ *string, p *code.Program) { p.Pool = nil },
	"PoolConst.Addr":          func(_ *string, p *code.Program) { p.Pool[0].Addr += 8 },
	"PoolConst.Size":          func(_ *string, p *code.Program) { p.Pool[0].Size = 4 },
	"PoolConst.Bits":          func(_ *string, p *code.Program) { p.Pool[0].Bits++ },
	"Instr.Op":                func(_ *string, p *code.Program) { p.Instrs[0].Op = code.SUB },
	"Instr.Sz":                func(_ *string, p *code.Program) { p.Instrs[0].Sz = 4 },
	"Instr.Dst":               func(_ *string, p *code.Program) { p.Instrs[0].Dst++ },
	"Instr.Src1":              func(_ *string, p *code.Program) { p.Instrs[0].Src1++ },
	"Instr.Src2":              func(_ *string, p *code.Program) { p.Instrs[0].Src2++ },
	"Instr.Imm":               func(_ *string, p *code.Program) { p.Instrs[0].Imm++ },
	"Instr.HasImm":            func(_ *string, p *code.Program) { p.Instrs[0].HasImm = false },
	"Instr.HasMem":            func(_ *string, p *code.Program) { p.Instrs[0].HasMem = false },
	"Mem.Base":                func(_ *string, p *code.Program) { p.Instrs[0].Mem.Base++ },
	"Mem.Index":               func(_ *string, p *code.Program) { p.Instrs[0].Mem.Index++ },
	"Mem.Scale":               func(_ *string, p *code.Program) { p.Instrs[0].Mem.Scale = 4 },
	"Mem.Disp":                func(_ *string, p *code.Program) { p.Instrs[0].Mem.Disp++ },
	"Instr.CC":                func(_ *string, p *code.Program) { p.Instrs[0].CC = code.CCEQ },
	"Instr.Target":            func(_ *string, p *code.Program) { p.Instrs[0].Target = 0 },
	"Instr.Pred":              func(_ *string, p *code.Program) { p.Instrs[0].Pred++ },
	"Instr.PredSense":         func(_ *string, p *code.Program) { p.Instrs[0].PredSense = false },
}

// simKeyExcluded maps every input the key deliberately leaves out to a
// mutation of it: the simulation never reads these.
var simKeyExcluded = map[string]keyMutation{
	"Program.Name":           func(_ *string, p *code.Program) { p.Name = "other.region" },
	"Program.Stats":          func(_ *string, p *code.Program) { p.Stats.Remats++ },
	"FeatureSet.Depth":       func(_ *string, p *code.Program) { p.FS.Depth = 64 },
	"FeatureSet.Predication": func(_ *string, p *code.Program) { p.FS.Predication = isa.PartialPredication },
	"Instr.TakenProb":        func(_ *string, p *code.Program) { p.Instrs[0].TakenProb = 0.25 },
}

// TestSimKeyCoversInputs: mutating any keyed input changes the simulation
// key, and mutating any excluded input does not.
func TestSimKeyCoversInputs(t *testing.T) {
	const region = "bench.region"
	base := simKeyOf(region, 64, simKeyBase())
	if simKeyOf(region, 32, simKeyBase()) == base {
		t.Error("mutating the build width: key unchanged")
	}
	for _, tc := range []struct {
		muts    map[string]keyMutation
		changes bool
	}{{simKeyed, true}, {simKeyExcluded, false}} {
		for name, mut := range tc.muts {
			r, p := region, simKeyBase()
			mut(&r, p)
			if got := simKeyOf(r, 64, p) != base; got != tc.changes {
				t.Errorf("mutating %s: key changed = %v, want %v", name, got, tc.changes)
			}
		}
	}
}

// TestSimKeyFieldCoverage guards the two tables above against new fields:
// every field reachable from code.Program must be either keyed or excluded
// (struct-typed fields that are not excluded are checked field by field),
// and every table entry must name a real field. A field added to
// code.Program, code.Instr, code.Mem, code.PoolConst or isa.FeatureSet
// fails here until simKeyOf and one of the tables account for it.
func TestSimKeyFieldCoverage(t *testing.T) {
	seen := map[string]bool{"region": true}
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			path := typ.Name() + "." + f.Name
			seen[path] = true
			if simKeyExcluded[path] != nil {
				continue
			}
			ft := f.Type
			if ft.Kind() == reflect.Slice {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				walk(ft)
				continue
			}
			if simKeyed[path] == nil {
				t.Errorf("%s (%s) is neither keyed nor excluded from the simulation key", path, f.Type)
			}
		}
	}
	walk(reflect.TypeOf(code.Program{}))
	for _, tab := range []map[string]keyMutation{simKeyed, simKeyExcluded} {
		for name := range tab {
			if !seen[name] {
				t.Errorf("table entry %s names no field of code.Program", name)
			}
		}
	}
}

// TestRegionBuildDeterministic: the simulation key hashes the region name
// and width instead of the initial memory image, which is sound only if
// Region.Build returns the same image every time for a fixed (region,
// width).
func TestRegionBuildDeterministic(t *testing.T) {
	for _, r := range workload.Regions() {
		for _, w := range isa.ValidWidths {
			_, m1, err1 := r.Build(w)
			_, m2, err2 := r.Build(w)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s/%d: Build errors differ: %v vs %v", r.Name, w, err1, err2)
			}
			if err1 != nil {
				continue
			}
			// Clone drops the lookaside, leaving only the resident pages.
			if !reflect.DeepEqual(m1.Clone(), m2.Clone()) {
				t.Errorf("%s/%d: two builds produced different memory images", r.Name, w)
			}
		}
	}
}
