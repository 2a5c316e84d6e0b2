package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (spans inside the program are not recorded).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Op     int    `json:"op"`     // spans of one operation share this id
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id for end and for children. Op 0
// takes the parent's operation.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if op == 0 && parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count       int
	Total, Self time.Duration
}

// stats returns per-name totals and self times. A span's self time is its
// duration minus the part of its interval that its children cover.
func (t *tracer) stats() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*spanStat)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Count++
		st.Total += d
		st.Self += d - time.Duration(covered(t.spans, children[i], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(spans[k].Start, lo), min(spans[k].End, hi)
		if spans[k].End >= 0 && e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	curE = -1
	for _, v := range iv {
		if v[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// report prints every span name's count, total and self time.
func (t *tracer) report(w io.Writer) {
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "%-34s %8d %12.6f %12.6f\n", n, s.Count, s.Total.Seconds(), s.Self.Seconds())
	}
}

// write stores every span as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
