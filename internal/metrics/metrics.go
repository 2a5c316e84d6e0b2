// Package metrics provides the lock-free instrumentation primitives of the
// evaluation pipeline: atomic counters and exponential-bucket duration
// histograms. Both are safe for concurrent use, cheap enough to sit on hot
// paths (one atomic add per event), and snapshot into plain serializable
// values so pipeline statistics can be printed (`compose-explore -stats`)
// and carried across a saved and resumed run.
//
// A stats struct declares each metric once, as a Counter or Histogram field
// tagged with its Prometheus family (metric), help text (help) and optional
// labels (labels:"k=v,k=v"). Snapshot, Merge and PromWriter.Struct walk
// those fields, so no other list of the metrics exists; updates stay direct
// field operations.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use. Counters must not be copied after first use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters are monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// numBuckets spans 1µs..~8.6s in powers of two, plus an overflow bucket.
const numBuckets = 24

// bucketFloor is the lower bound of the histogram's first bucket.
const bucketFloor = time.Microsecond

// Histogram is a lock-free duration histogram with exponential buckets:
// bucket i counts observations in [1µs<<i, 1µs<<(i+1)), with everything
// below 1µs in bucket 0 and everything past the last bound in the overflow
// bucket. The zero value is ready to use; must not be copied after first use.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d < bucketFloor {
		return 0
	}
	i := 0
	for b := bucketFloor; b <= d && i < numBuckets; b <<= 1 {
		i++
	}
	return i - 1
}

// BucketUpper returns the exclusive upper bound of bucket i (the last
// bucket is unbounded and reports the largest finite bound).
func BucketUpper(i int) time.Duration {
	if i >= numBuckets-1 {
		i = numBuckets - 1
	}
	return bucketFloor << uint(i+1)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	h.buckets[bucketOf(d)].Add(1)
}

// Since records the time elapsed from start; `defer h.Since(time.Now())`
// times a whole function body.
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// HistogramSnapshot is a point-in-time copy of a histogram, serializable
// for -stats output and saved run records.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	// Buckets holds per-bucket counts, trailing zeros trimmed.
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), SumNS: h.sumNS.Load()}
	last := -1
	var b [numBuckets]int64
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		if b[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append(s.Buckets, b[:last+1]...)
	}
	return s
}

// Merge adds a snapshot's counts into the histogram (a resumed run
// accumulates the prior run's statistics this way). Buckets past the last
// fold into the overflow bucket, so the buckets still sum to the count.
func (h *Histogram) Merge(s HistogramSnapshot) {
	h.count.Add(s.Count)
	h.sumNS.Add(s.SumNS)
	for i, n := range s.Buckets {
		h.buckets[min(i, numBuckets-1)].Add(n)
	}
}

// Mean returns the average observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// Sum returns the total observed duration.
func (s HistogramSnapshot) Sum() time.Duration { return time.Duration(s.SumNS) }

// Quantile estimates the q-th quantile (0 < q <= 1) as the upper bound of
// the bucket containing it — an upper estimate, which is the conservative
// direction for latency reporting.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	// The q-th quantile is the ceil(q·N)-th smallest observation.
	rank := int64(math.Ceil(q * float64(s.Count)))
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(numBuckets - 1)
}

// String renders "count=N mean=... p50=... p99=... total=...".
func (s HistogramSnapshot) String() string {
	if s.Count == 0 {
		return "count=0"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "count=%d mean=%v p50=%v p99=%v total=%v",
		s.Count, s.Mean().Round(time.Microsecond),
		s.Quantile(0.50), s.Quantile(0.99), s.Sum().Round(time.Millisecond))
	return sb.String()
}

// Rate renders hits/(hits+misses) as a percentage string, "-" when no
// lookups happened. Shared by every cache tier's -stats line.
func Rate(hits, misses int64) string {
	total := hits + misses
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(total))
}
