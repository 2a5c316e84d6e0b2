package migrate

import (
	"testing"

	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/isa"
	"compisa/internal/workload"
)

// TestFuzzTranslateRandomPrograms compiles random regions for feature-rich
// sources and translates them down every viable ladder, checking checksum
// preservation at every rung.
func TestFuzzTranslateRandomPrograms(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	sources := []isa.FeatureSet{
		isa.MustNew(isa.MicroX86, 64, 64, isa.FullPredication),
		isa.MustNew(isa.FullX86, 64, 32, isa.FullPredication),
		isa.MustNew(isa.MicroX86, 32, 64, isa.FullPredication),
	}
	targets := []isa.FeatureSet{
		isa.MicroX86Min,
		isa.MustNew(isa.MicroX86, 32, 16, isa.PartialPredication),
		isa.MustNew(isa.MicroX86, 32, 32, isa.FullPredication),
		isa.MustNew(isa.MicroX86, 64, 16, isa.PartialPredication),
	}
	for seed := 1; seed <= seeds; seed++ {
		r := workload.RandomRegion(uint64(seed))
		for _, src := range sources {
			f, m, err := r.Build(src.Width)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := compiler.Compile(f, src, compiler.Options{})
			if err != nil {
				t.Fatalf("seed %d src %s: %v", seed, src.ShortName(), err)
			}
			prog.Name = r.Name
			res, err := cpu.Run(prog, cpu.NewState(m.Clone()), 10_000_000, nil)
			if err != nil {
				t.Fatalf("seed %d src %s: %v", seed, src.ShortName(), err)
			}
			want := res.Ret & 0xffffffff
			for _, dst := range targets {
				if dst.Width == 64 && src.Width == 32 {
					continue // upgrades are covered elsewhere
				}
				trans, err := Translate(prog, dst)
				if err != nil {
					t.Fatalf("seed %d %s->%s: %v", seed, src.ShortName(), dst.ShortName(), err)
				}
				// lowerDepth writes a remapped register back only when the
				// code table says the op writes it, so no translated op may
				// carry a Dst it does not write.
				for j := range trans.Instrs {
					if in := &trans.Instrs[j]; in.Dst != code.NoReg && !in.Op.IntDst() && !in.Op.IsFP() {
						t.Errorf("seed %d %s->%s: [%d] %s carries a Dst it does not write",
							seed, src.ShortName(), dst.ShortName(), j, code.FormatInstr(in))
					}
				}
				_, m2, err := r.Build(src.Width)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cpu.Run(trans, cpu.NewState(m2), 30_000_000, nil)
				if err != nil {
					t.Fatalf("seed %d %s->%s: %v", seed, src.ShortName(), dst.ShortName(), err)
				}
				if got.Ret&0xffffffff != want {
					t.Errorf("seed %d %s->%s: checksum %#x want %#x",
						seed, src.ShortName(), dst.ShortName(), got.Ret, want)
				}
			}
		}
	}
}
