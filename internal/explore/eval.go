// Facade over the evaluation layer: type aliases and forwarding
// constructors keep explore's public API stable (cmd/compose-explore, the
// benchmarks, and the examples all speak explore.DB) while the pipeline's
// profiling and scoring stages live in internal/eval.

package explore

import (
	"compisa/internal/cpu"
	"compisa/internal/eval"
)

// Aliases into the evaluation layer. These are aliases, not definitions:
// an explore.DB is an eval.DB, so the two layers share one identity and
// saved runs restore across them without conversion.
type (
	DB              = eval.DB
	Stats           = eval.Stats
	StatsSnapshot   = eval.StatsSnapshot
	ISAChoice       = eval.ISAChoice
	DesignPoint     = eval.DesignPoint
	Candidate       = eval.Candidate
	Metric          = eval.Metric
	Coverage        = eval.Coverage
	QuarantinedPair = eval.QuarantinedPair
)

// NewDB builds an evaluation database over the full 49-region suite.
func NewDB() *DB { return eval.NewDB() }

// ReferenceConfig is the normalization core: the largest out-of-order
// configuration with 64KB caches and the 8MB L2.
func ReferenceConfig() cpu.CoreConfig { return eval.ReferenceConfig() }

// CompositeChoices returns the 26 composite feature sets as ISA choices.
func CompositeChoices() []ISAChoice { return eval.CompositeChoices() }

// XIzedChoices returns the three x86-ized fixed feature sets (limited-
// diversity composite baseline).
func XIzedChoices() []ISAChoice { return eval.XIzedChoices() }

// VendorChoices returns the heterogeneous-ISA baseline's vendor ISAs.
func VendorChoices() []ISAChoice { return eval.VendorChoices() }

// X8664Choice is the single-ISA baseline.
func X8664Choice() ISAChoice { return eval.X8664Choice() }
