package eval

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"compisa/internal/cpu"
	"compisa/internal/isa"
	"compisa/internal/power"
)

// ISAChoice is the instruction set of one core: a composite feature set, or
// a vendor ISA (for the heterogeneous-ISA baseline), which carries extra
// traits a composite set cannot express (Thumb's code compression, fixed-
// length decoding).
type ISAChoice struct {
	FS     isa.FeatureSet
	Vendor *isa.VendorISA
}

// Key identifies the choice for caching and display.
func (c ISAChoice) Key() string {
	if c.Vendor != nil {
		return "vendor:" + c.Vendor.Name
	}
	return c.FS.ShortName()
}

// Traits returns the hardware-model traits. For vendors with a real
// encoding backend, fixed-length decode is derived from the target
// descriptor (one-step decode drops the ILD from the power model); the
// VendorISA.FixedLength scalar remains only for backend-less vendors.
func (c ISAChoice) Traits() power.Traits {
	t := power.Traits{FS: c.FS}
	if c.Vendor != nil {
		if tgt, ok := isa.TargetByName(c.Vendor.Target); ok && c.Vendor.HasBackend() {
			t.FixedLength = tgt.OneStepDecode
		} else {
			t.FixedLength = c.Vendor.FixedLength
		}
	}
	return t
}

// DesignPoint is one single-core design: an ISA choice plus a
// microarchitectural configuration.
type DesignPoint struct {
	ISA ISAChoice
	Cfg cpu.CoreConfig
}

func (d DesignPoint) String() string {
	return fmt.Sprintf("%s @ %s", d.ISA.Key(), d.Cfg.Name())
}

// CacheKey canonically identifies the design point for the candidate cache
// tier. cpu.CoreConfig.Name() abbreviates (it omits fields that are coupled
// within the pruned 180-config space), so the key spells out every
// configuration field instead — explicitly, field by field, rather than
// through reflective formatting. A process that warm-starts from a saved
// run (compose-explore's store directory opened by compose-serve) recomputes
// the keys of the restored points and compares them with keys of requests,
// so the derivation must depend only on field values — never on map
// iteration, pointer formatting, or struct declaration order.
func (d DesignPoint) CacheKey() string {
	c := d.Cfg
	b := make([]byte, 0, 192)
	b = append(b, d.ISA.Key()...)
	b = append(b, "|ooo="...)
	b = strconv.AppendBool(b, c.OoO)
	b = appendKeyInt(b, ",w=", c.Width)
	b = append(b, ",bp="...)
	b = append(b, c.Predictor.ShortString()...)
	b = appendKeyInt(b, ",iq=", c.IQ)
	b = appendKeyInt(b, ",rob=", c.ROB)
	b = appendKeyInt(b, ",prfi=", c.PRFInt)
	b = appendKeyInt(b, ",prff=", c.PRFFP)
	b = appendKeyInt(b, ",alu=", c.IntALU)
	b = appendKeyInt(b, ",mul=", c.IntMul)
	b = appendKeyInt(b, ",fpu=", c.FPALU)
	b = appendKeyInt(b, ",lsq=", c.LSQ)
	b = appendCacheCfgKey(b, ",l1i=", c.L1I)
	b = appendCacheCfgKey(b, ",l1d=", c.L1D)
	b = appendCacheCfgKey(b, ",l2=", c.L2)
	b = append(b, ",uop="...)
	b = strconv.AppendBool(b, c.UopCache)
	b = append(b, ",fuse="...)
	b = strconv.AppendBool(b, c.Fusion)
	return string(b)
}

// appendKeyInt appends one "name=value" integer field of CacheKey.
func appendKeyInt(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

// appendCacheCfgKey canonically renders one cache configuration for
// CacheKey as size "k/" assoc "/" banks.
func appendCacheCfgKey(b []byte, name string, c cpu.CacheCfg) []byte {
	b = appendKeyInt(b, name, c.SizeKB)
	b = appendKeyInt(b, "k/", c.Assoc)
	return appendKeyInt(b, "/", c.Banks)
}

// Area returns the core's total area (mm², including cache shares).
func (d DesignPoint) Area() float64 {
	return power.Area(d.ISA.Traits(), d.Cfg).Total()
}

// Peak returns the core's peak power (W): the core plus its private caches.
// The shared L2's power is not charged against per-core peak budgets (only
// one L2 exists per CMP).
func (d DesignPoint) Peak() float64 {
	b := power.Peak(d.ISA.Traits(), d.Cfg)
	return b.Total() - b.L2
}

// CompositeChoices returns the 26 composite feature sets as ISA choices.
func CompositeChoices() []ISAChoice {
	var out []ISAChoice
	for _, fs := range isa.Derive() {
		out = append(out, ISAChoice{FS: fs})
	}
	return out
}

// XIzedChoices returns the three x86-ized fixed feature sets (limited-
// diversity composite baseline).
func XIzedChoices() []ISAChoice {
	var out []ISAChoice
	for _, fs := range isa.XIzedFixedSets() {
		out = append(out, ISAChoice{FS: fs})
	}
	return out
}

// VendorChoices returns the heterogeneous-ISA baseline's vendor ISAs.
func VendorChoices() []ISAChoice {
	vs := isa.VendorISAs()
	out := make([]ISAChoice, len(vs))
	for i := range vs {
		v := vs[i]
		out[i] = ISAChoice{FS: v.Features, Vendor: &v}
	}
	return out
}

// X8664Choice is the single-ISA baseline.
func X8664Choice() ISAChoice { return ISAChoice{FS: isa.X8664} }

// AllChoices enumerates every ISA choice the pipeline can evaluate, in
// deterministic order: the x86-64 reference, the 26 composite feature sets,
// the x86-ized fixed sets, and the vendor ISAs.
func AllChoices() []ISAChoice {
	out := []ISAChoice{X8664Choice()}
	out = append(out, CompositeChoices()...)
	out = append(out, XIzedChoices()...)
	out = append(out, VendorChoices()...)
	return out
}

// choiceIndex maps every ISA key to its choice, the first in AllChoices
// order winning where keys repeat (the x86-ized sets overlap the
// composites), and lists the distinct keys in that order. It is built once:
// the choice space is fixed.
var choiceIndex = sync.OnceValues(func() (map[string]ISAChoice, []string) {
	all := AllChoices()
	byKey := make(map[string]ISAChoice, len(all))
	var keys []string
	for _, c := range all {
		k := c.Key()
		if _, dup := byKey[k]; !dup {
			byKey[k] = c
			keys = append(keys, k)
		}
	}
	return byKey, keys
})

// ChoiceByKey resolves an ISA key (as produced by ISAChoice.Key, e.g.
// "x86-16D-64W-P" or "vendor:thumb") back to its choice. It is the parsing
// seam of the serving layer: requests name ISAs by key, and the key
// vocabulary is exactly the enumerable choice space.
func ChoiceByKey(key string) (ISAChoice, bool) {
	byKey, _ := choiceIndex()
	c, ok := byKey[key]
	return c, ok
}

// ChoiceKeys lists every valid ISA key in AllChoices order, duplicates
// removed. The slice is the caller's own.
func ChoiceKeys() []string {
	_, keys := choiceIndex()
	return slices.Clone(keys)
}

// ReferenceConfig is the normalization core: the largest out-of-order
// configuration with 64KB caches and the 8MB L2.
func ReferenceConfig() cpu.CoreConfig {
	return cpu.CoreConfig{
		OoO: true, Width: 4, Predictor: cpu.PredTournament,
		IQ: 64, ROB: 128, PRFInt: 192, PRFFP: 160,
		IntALU: 6, IntMul: 2, FPALU: 4, LSQ: 32,
		L1I: cpu.L1Cfg64k, L1D: cpu.L1Cfg64k, L2: cpu.L2Cfg8M,
		UopCache: true, Fusion: true,
	}
}
