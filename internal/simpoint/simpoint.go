// Package simpoint implements the SimPoint methodology the paper uses to
// split benchmarks into representative regions: basic-block-vector (BBV)
// collection over fixed-length execution intervals, k-means clustering of
// the normalized vectors, and selection of each cluster's most central
// interval as the representative phase, weighted by cluster population.
package simpoint

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"compisa/internal/code"
	"compisa/internal/cpu"
	"compisa/internal/mem"
)

// Interval is one execution interval's basic-block vector: execution counts
// per static basic-block leader, L1-normalized.
type Interval struct {
	Vector map[int32]float64
	Start  int64 // first dynamic instruction of the interval
}

// CollectBBV executes the program and gathers one BBV per intervalLen
// dynamic instructions. Basic blocks are identified by their leader
// instruction index (branch targets and fallthroughs after branches).
func CollectBBV(p *code.Program, m *mem.Memory, intervalLen int64, maxInstrs int64) ([]Interval, error) {
	if intervalLen <= 0 {
		return nil, fmt.Errorf("simpoint: interval length must be positive")
	}
	var out []Interval
	cur := map[int32]float64{}
	var count, start int64
	leader := int32(0)
	newBlock := true
	consume := func(ev *cpu.Event) {
		if newBlock {
			leader = ev.Idx
			newBlock = false
		}
		cur[leader]++
		in := &p.Instrs[ev.Idx]
		if in.Op.IsBranch() {
			newBlock = true
		}
		count++
		if count%intervalLen == 0 {
			out = append(out, Interval{Vector: normalize(cur), Start: start})
			cur = map[int32]float64{}
			start = count
		}
	}
	st := cpu.NewState(m)
	if _, err := cpu.Run(p, st, maxInstrs, consume); err != nil {
		return nil, err
	}
	if len(cur) > 0 && count-start >= intervalLen/2 {
		out = append(out, Interval{Vector: normalize(cur), Start: start})
	}
	return out, nil
}

// normalize L1-normalizes v. Like dist2, it sums in key order: a sum in
// map order varies in its last bits from run to run, enough to move a
// k-means representative.
func normalize(v map[int32]float64) map[int32]float64 {
	total := 0.0
	for _, k := range sortedKeys(v) {
		total += v[k]
	}
	out := make(map[int32]float64, len(v))
	for k, c := range v {
		out[k] = c / total
	}
	return out
}

// dist2 is the squared Euclidean distance between two sparse vectors,
// summed in key order over the union of their keys.
func dist2(a, b map[int32]float64) float64 {
	keys := sortedKeys(a)
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	d := 0.0
	for _, k := range keys {
		x := a[k] - b[k]
		d += x * x
	}
	return d
}

func sortedKeys(v map[int32]float64) []int32 {
	keys := make([]int32, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Phase is one representative region chosen by clustering.
type Phase struct {
	// Representative is the index of the chosen interval.
	Representative int
	// Weight is the fraction of intervals the phase represents.
	Weight float64
	// Members lists the assigned interval indices.
	Members []int
}

// KMeans clusters the intervals into at most k phases using deterministic
// k-means++-style seeding (farthest-point, seeded by the given value) and
// returns phases sorted by weight (descending).
func KMeans(intervals []Interval, k int, seed uint32) []Phase {
	n := len(intervals)
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	// Farthest-point seeding from a deterministic start.
	centroids := []map[int32]float64{intervals[int(seed)%n].Vector}
	for len(centroids) < k {
		bestIdx, bestD := 0, -1.0
		for i := range intervals {
			d := math.Inf(1)
			for _, c := range centroids {
				if dd := dist2(intervals[i].Vector, c); dd < d {
					d = dd
				}
			}
			if d > bestD {
				bestD, bestIdx = d, i
			}
		}
		if bestD <= 1e-12 {
			break // all remaining points coincide with centroids
		}
		centroids = append(centroids, intervals[bestIdx].Vector)
	}
	k = len(centroids)
	assign := make([]int, n)
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i := range intervals {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := dist2(intervals[i].Vector, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		sums := make([]map[int32]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = map[int32]float64{}
		}
		for i := range intervals {
			c := assign[i]
			counts[c]++
			for key, v := range intervals[i].Vector {
				sums[c][key] += v
			}
		}
		for c := range sums {
			if counts[c] == 0 {
				continue
			}
			for key := range sums[c] {
				sums[c][key] /= float64(counts[c])
			}
			centroids[c] = sums[c]
		}
	}
	// Build phases: representative = member closest to centroid.
	var phases []Phase
	for c := 0; c < k; c++ {
		var members []int
		for i := range intervals {
			if assign[i] == c {
				members = append(members, i)
			}
		}
		if len(members) == 0 {
			continue
		}
		rep, repD := members[0], math.Inf(1)
		for _, i := range members {
			if d := dist2(intervals[i].Vector, centroids[c]); d < repD {
				rep, repD = i, d
			}
		}
		phases = append(phases, Phase{
			Representative: rep,
			Weight:         float64(len(members)) / float64(n),
			Members:        members,
		})
	}
	sort.Slice(phases, func(i, j int) bool {
		if phases[i].Weight != phases[j].Weight {
			return phases[i].Weight > phases[j].Weight
		}
		return phases[i].Representative < phases[j].Representative
	})
	return phases
}
