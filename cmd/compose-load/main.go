// Command compose-load is a seeded closed-loop load generator for
// compose-serve: a fixed pool of workers issues single-point /evaluate
// requests drawn from a small set of distinct design points, so repeated
// points exercise the server's coalescing and cache path the way a fleet
// of sweep clients would.
//
// It reports throughput, client-side latency percentiles, per-status
// counts, and the cache-hit rate as JSON (-out; `make serve-smoke` writes
// it to its state directory and CI uploads it), and doubles as a CI gate:
// -min-hit-rate and -max-5xx turn quality floors into a non-zero exit
// status.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"compisa/internal/atomicfile"
	"compisa/internal/cpu"
	"compisa/internal/eval"
)

type pointSpec struct {
	ISA    string          `json:"isa"`
	Config *cpu.CoreConfig `json:"config,omitempty"`
}

type pointResult struct {
	MeanSpeedup float64 `json:"mean_speedup"`
	Cached      bool    `json:"cached"`
	Coalesced   bool    `json:"coalesced"`
	Error       string  `json:"error,omitempty"`
}

type evalResponse struct {
	Results []pointResult `json:"results"`
}

// sample is one completed request as the client observed it.
type sample struct {
	latency time.Duration
	status  int
	cached  bool
	warm    bool // served without a fresh evaluation (cached or coalesced)
}

// Report is the JSON artifact. WarmSpeedup is the headline number: mean
// cold (evaluating) latency over mean warm (cache/coalesce) latency.
type Report struct {
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	Points      int     `json:"points"`
	DurationS   float64 `json:"duration_s"`
	Throughput  float64 `json:"throughput_rps"`
	Latency     struct {
		P50  float64 `json:"p50"`
		P90  float64 `json:"p90"`
		P99  float64 `json:"p99"`
		Mean float64 `json:"mean"`
	} `json:"latency_ms"`
	Status map[string]int `json:"status"`
	Cache  struct {
		Hits    int     `json:"hits"`
		Misses  int     `json:"misses"`
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`
	ColdMSMean  float64 `json:"cold_ms_mean"`
	WarmMSMean  float64 `json:"warm_ms_mean"`
	WarmSpeedup float64 `json:"warm_speedup"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "compose-serve base URL")
	requests := flag.Int("requests", 200, "total requests to issue")
	concurrency := flag.Int("concurrency", 8, "concurrent client workers")
	points := flag.Int("points", 4, "distinct design points in the request mix")
	isas := flag.String("isas", "", "comma-separated ISA choice keys to draw from (default: the full enumerable set)")
	seed := flag.Int64("seed", 1, "request-mix seed (same seed => same request sequence)")
	reqTimeout := flag.Duration("timeout", 5*time.Minute, "per-request client timeout")
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	minHitRate := flag.Float64("min-hit-rate", -1, "fail unless cache hit rate >= this (CI gate; -1 disables)")
	max5xx := flag.Int("max-5xx", -1, "fail if more than this many 5xx responses (CI gate; -1 disables)")
	flag.Parse()
	log.SetFlags(0)

	keys := eval.ChoiceKeys()
	if *isas != "" {
		keys = strings.Split(*isas, ",")
	}
	pool := buildPool(keys, *points)
	samples, elapsed := runLoad(*addr, pool, *requests, *concurrency, *seed, *reqTimeout)
	rep := summarize(samples, elapsed, *concurrency, len(pool))

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out != "" {
		// Atomic+durable: a kill mid-write leaves the old report or the
		// new one, never a torn one.
		if err := atomicfile.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
	} else {
		os.Stdout.Write(data)
	}
	fmt.Fprintf(os.Stderr, "%d requests in %.2fs: %.1f req/s, hit rate %.3f, warm speedup %.1fx\n",
		rep.Requests, rep.DurationS, rep.Throughput, rep.Cache.HitRate, rep.WarmSpeedup)

	fail := false
	if *minHitRate >= 0 && rep.Cache.HitRate < *minHitRate {
		fmt.Fprintf(os.Stderr, "FAIL: cache hit rate %.3f below floor %.3f\n", rep.Cache.HitRate, *minHitRate)
		fail = true
	}
	if *max5xx >= 0 {
		n := 0
		for code, c := range rep.Status {
			if len(code) == 3 && code[0] == '5' {
				n += c
			}
		}
		if n > *max5xx {
			fmt.Fprintf(os.Stderr, "FAIL: %d 5xx responses exceed limit %d\n", n, *max5xx)
			fail = true
		}
	}
	if fail {
		os.Exit(1)
	}
}

// buildPool derives n distinct design points from the ISA keys: the first
// len(keys) points use the reference core, later ones vary the ROB/IQ of a
// valid out-of-order shape so keys stay canonical but distinct.
func buildPool(keys []string, n int) []pointSpec {
	if n < 1 {
		n = 1
	}
	pool := make([]pointSpec, 0, n)
	for i := 0; i < n; i++ {
		p := pointSpec{ISA: keys[i%len(keys)]}
		if variant := i / len(keys); variant > 0 {
			cfg := eval.ReferenceConfig()
			cfg.ROB = 64 * (1 + variant)
			cfg.IQ = 32 * (1 + variant)
			p.Config = &cfg
		}
		pool = append(pool, p)
	}
	return pool
}

func runLoad(addr string, pool []pointSpec, requests, concurrency int, seed int64, timeout time.Duration) ([]sample, time.Duration) {
	// Pre-draw the request mix so the sequence depends only on the seed,
	// not on worker scheduling.
	rng := rand.New(rand.NewSource(seed))
	picks := make([]int, requests)
	for i := range picks {
		picks[i] = rng.Intn(len(pool))
	}
	client := &http.Client{Timeout: timeout}
	samples := make([]sample, requests)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= requests {
					return
				}
				samples[i] = issue(client, addr, pool[picks[i]])
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

func issue(client *http.Client, addr string, p pointSpec) sample {
	body, _ := json.Marshal(p)
	start := time.Now()
	resp, err := client.Post(addr+"/evaluate", "application/json", bytes.NewReader(body))
	s := sample{latency: time.Since(start), status: 0}
	if err != nil {
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	var er evalResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&er); err == nil && len(er.Results) == 1 {
		s.cached = er.Results[0].Cached
		s.warm = er.Results[0].Cached || er.Results[0].Coalesced
	}
	s.latency = time.Since(start)
	return s
}

func summarize(samples []sample, elapsed time.Duration, concurrency, points int) Report {
	rep := Report{
		Requests:    len(samples),
		Concurrency: concurrency,
		Points:      points,
		Status:      map[string]int{},
	}
	lat := make([]float64, 0, len(samples))
	var total, cold, warm float64
	var nCold, nWarm int
	for _, s := range samples {
		ms := float64(s.latency.Microseconds()) / 1e3
		lat = append(lat, ms)
		total += ms
		key := fmt.Sprintf("%d", s.status)
		if s.status == 0 {
			key = "error"
		}
		rep.Status[key]++
		if s.status == http.StatusOK {
			if s.cached {
				rep.Cache.Hits++
			} else {
				rep.Cache.Misses++
			}
			if s.warm {
				warm += ms
				nWarm++
			} else {
				cold += ms
				nCold++
			}
		}
	}
	if n := rep.Cache.Hits + rep.Cache.Misses; n > 0 {
		rep.Cache.HitRate = float64(rep.Cache.Hits) / float64(n)
	}
	sort.Float64s(lat)
	if len(lat) > 0 {
		rep.Latency.P50 = lat[len(lat)*50/100]
		rep.Latency.P90 = lat[min(len(lat)*90/100, len(lat)-1)]
		rep.Latency.P99 = lat[min(len(lat)*99/100, len(lat)-1)]
		rep.Latency.Mean = total / float64(len(lat))
	}
	if nCold > 0 {
		rep.ColdMSMean = cold / float64(nCold)
	}
	if nWarm > 0 {
		rep.WarmMSMean = warm / float64(nWarm)
	}
	if rep.WarmMSMean > 0 && rep.ColdMSMean > 0 {
		rep.WarmSpeedup = rep.ColdMSMean / rep.WarmMSMean
	}
	rep.DurationS = elapsed.Seconds()
	if rep.DurationS > 0 {
		rep.Throughput = float64(rep.Requests) / rep.DurationS
	}
	return rep
}
