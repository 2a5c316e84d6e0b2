package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 50; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Inc()
			}
			c.Add(5)
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 50*105 {
		t.Fatalf("Load = %d, want %d", got, 50*105)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2*time.Microsecond - 1, 0},
		{2 * time.Microsecond, 1},
		{time.Millisecond, 9},
		{time.Second, 19},
		{time.Hour, numBuckets - 1}, // overflow lands in the last bucket
	}
	for _, tc := range cases {
		if got := bucketOf(tc.d); got != tc.want {
			t.Errorf("bucketOf(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	for i := 0; i < numBuckets-1; i++ {
		// Every bucket's upper bound is exclusive: it belongs to bucket i+1.
		if got := bucketOf(BucketUpper(i)); got != i+1 {
			t.Errorf("bucketOf(BucketUpper(%d)) = %d, want %d", i, got, i+1)
		}
	}
}

func TestHistogramObserveAndStats(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(-time.Second) // clamped to 0
	s := h.Snapshot()
	if s.Count != 11 {
		t.Fatalf("Count = %d, want 11", s.Count)
	}
	if want := 10 * time.Millisecond; s.Sum() != want {
		t.Fatalf("Sum = %v, want %v", s.Sum(), want)
	}
	if mean := s.Mean(); mean != 10*time.Millisecond/11 {
		t.Fatalf("Mean = %v", mean)
	}
	// p99 sits in the 1ms bucket; the estimate is that bucket's upper bound.
	if q := s.Quantile(0.99); q != BucketUpper(bucketOf(time.Millisecond)) {
		t.Fatalf("Quantile(0.99) = %v", q)
	}
	if s.Quantile(0) != 0 {
		t.Fatal("Quantile(0) should be 0")
	}
	if (HistogramSnapshot{}).Mean() != 0 || (HistogramSnapshot{}).String() != "count=0" {
		t.Fatal("empty snapshot should report zero values")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 20; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.Observe(time.Microsecond << uint(i%12))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 20*200 {
		t.Fatalf("Count = %d, want %d", s.Count, 20*200)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
}

func TestHistogramMergeAndJSON(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Microsecond)
	a.Observe(time.Second)
	b.Observe(time.Millisecond)

	// Snapshot → JSON → snapshot → merge must preserve counts (the
	// saved-run roundtrip path).
	data, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var restored HistogramSnapshot
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	b.Merge(restored)
	s := b.Snapshot()
	if s.Count != 3 {
		t.Fatalf("merged Count = %d, want 3", s.Count)
	}
	if want := time.Second + time.Millisecond + time.Microsecond; s.Sum() != want {
		t.Fatalf("merged Sum = %v, want %v", s.Sum(), want)
	}
	// Over-long bucket slices (a future format with more buckets) must not
	// panic; extra buckets fold into the overflow bucket, so the buckets
	// still sum to the count.
	over := HistogramSnapshot{Count: numBuckets + 6, SumNS: 1, Buckets: make([]int64, numBuckets+6)}
	for i := range over.Buckets {
		over.Buckets[i] = 1
	}
	var c Histogram
	c.Merge(over)
	cs := c.Snapshot()
	var total int64
	for _, n := range cs.Buckets {
		total += n
	}
	if cs.Count != over.Count || total != cs.Count || cs.Buckets[numBuckets-1] != 7 {
		t.Fatalf("merged oversized snapshot: count=%d bucket sum=%d buckets=%v", cs.Count, total, cs.Buckets)
	}
}

// TestQuantileRank: the q-th quantile is the ceil(q·N)-th observation, so
// the slowest of two observations is the p99.
func TestQuantileRank(t *testing.T) {
	up := func(d time.Duration) time.Duration { return BucketUpper(bucketOf(d)) }
	cases := []struct {
		obs           []time.Duration
		p50, p99, max time.Duration
	}{
		{[]time.Duration{2 * time.Microsecond}, 4 * time.Microsecond, 4 * time.Microsecond, 4 * time.Microsecond},
		{[]time.Duration{2 * time.Microsecond, time.Second}, 4 * time.Microsecond, up(time.Second), up(time.Second)},
		{[]time.Duration{2 * time.Microsecond, time.Millisecond, time.Second}, up(time.Millisecond), up(time.Second), up(time.Second)},
	}
	for _, tc := range cases {
		var h Histogram
		for _, d := range tc.obs {
			h.Observe(d)
		}
		s := h.Snapshot()
		if p50, p99, max := s.Quantile(0.5), s.Quantile(0.99), s.Quantile(1); p50 != tc.p50 || p99 != tc.p99 || max != tc.max {
			t.Errorf("N=%d: p50=%v p99=%v p100=%v, want %v %v %v", len(tc.obs), p50, p99, max, tc.p50, tc.p99, tc.max)
		}
	}
}

func TestSince(t *testing.T) {
	var h Histogram
	h.Since(time.Now().Add(-time.Millisecond))
	s := h.Snapshot()
	if s.Count != 1 || s.Sum() < time.Millisecond {
		t.Fatalf("Since recorded %v over %d observations", s.Sum(), s.Count)
	}
}

func TestRate(t *testing.T) {
	if got := Rate(0, 0); got != "-" {
		t.Errorf("Rate(0,0) = %q, want -", got)
	}
	if got := Rate(3, 1); got != "75.0%" {
		t.Errorf("Rate(3,1) = %q, want 75.0%%", got)
	}
	if got := Rate(0, 5); got != "0.0%" {
		t.Errorf("Rate(0,5) = %q, want 0.0%%", got)
	}
}
