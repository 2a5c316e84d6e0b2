package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"compisa/internal/cpu"
	"compisa/internal/eval"
	"compisa/internal/explore"
	"compisa/internal/serve"
	"compisa/internal/workload"
)

const (
	// warmRequests is the warm phase of one serve-mixed pass on the full
	// suite, a few seconds on a 2-core host. A reduced suite scales it by
	// its share of the regions, which keeps the cold/warm balance: both a
	// cold profile and a warm score cost time in proportion to the regions.
	warmRequests = 20000
	// repeatShare of warm requests repeat an earlier point (cache hits);
	// the rest are fresh configurations of already profiled ISAs.
	repeatShare = 0.3
	// rateChunk is the number of warm requests per throughput sample.
	rateChunk = 1000
	// oracleSample is how many served points finish re-evaluates on a
	// fresh DB.
	oracleSample = 64
	// spanHeader carries the client's request span to the traced engine.
	spanHeader = "X-Bench-Span"
)

// clients is the closed-loop client count: two, as many as the server's
// default workers on a 2-core host, never more than the host's CPUs.
var clients = min(2, runtime.NumCPU())

// request is one /evaluate call of a pass, generated before the pass runs.
type request struct {
	key string
	dp  eval.DesignPoint
}

// reply is what the client saw.
type reply struct {
	res     serve.PointResult
	status  int
	latency time.Duration
	done    time.Duration // since the phase began
	err     error
}

// serveMixed: every pass boots a compose-serve equivalent over a fresh DB
// (set-up: NewDB, the reference metrics warmed like compose-serve -warm,
// serve.New), listens on loopback, sends the cold phase (one first request
// per ISA key, seeded order) and then warmRequests seeded warm requests
// from a closed loop of clients, and shuts the server down.
type serveMixed struct {
	db      *eval.DB
	srv     *serve.Server
	handler http.Handler
	served  []request
	replies []reply
}

func (w *serveMixed) prepare(context.Context, *bench) error { return nil }

func (w *serveMixed) setup(ctx context.Context, b *bench) error {
	w.db = b.newDB()
	if _, err := w.db.ReferenceMetrics(ctx); err != nil {
		return err
	}
	var eng serve.Engine = w.db
	if b.tr != nil {
		eng = tracedEngine{w.db, b.tr}
	}
	w.srv = serve.New(eng, serve.Config{})
	w.handler = w.srv.Handler()
	if b.tr != nil {
		w.handler = withSpan(w.handler)
	}
	return nil
}

func (w *serveMixed) pass(ctx context.Context, b *bench) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: w.handler}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	tp := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	cl := &client{http: &http.Client{Transport: tp}, url: "http://" + ln.Addr().String() + "/evaluate", tr: b.tr}
	defer func() {
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		defer cancel()
		if err := w.srv.Drain(sctx); err != nil {
			fmt.Fprintln(b.out, "serve drain:", err)
		}
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintln(b.out, "serve shutdown:", err)
		}
		wg.Wait()
		tp.CloseIdleConnections()
	}()

	nRegions := len(w.db.Regions)
	cold, warm := genRequests(b.rng, warmRequests*nRegions/len(workload.Regions()))
	coldReplies := cl.loop(ctx, cold)
	warmReplies := cl.loop(ctx, warm)
	// The warm throughput is sampled per chunk of requests: the host's
	// speed varies within a pass, and the median of many chunks is steadier.
	var prev time.Duration
	chunk := min(rateChunk, len(warmReplies))
	for i := chunk; i <= len(warmReplies); i += chunk {
		var end time.Duration
		for _, r := range warmReplies[i-chunk : i] {
			end = max(end, r.done)
		}
		b.sample("serve.warm_rps", float64(chunk)/(end-prev).Seconds())
		prev = end
	}

	w.served = append(cold, warm...)
	w.replies = append(coldReplies, warmReplies...)
	for i := range w.replies {
		r := &w.replies[i]
		switch {
		case i < len(cold):
			b.counts["serve.cold"]++
			b.sample("serve.cold", ms(r.latency))
		case r.res.Cached:
			b.counts["serve.hits"]++
			b.sample("serve.hit", ms(r.latency))
		default:
			b.counts["serve.misses"]++
			b.sample("serve.miss", ms(r.latency))
		}
		if i >= len(cold) {
			b.sample("serve.warm", ms(r.latency))
		}
		if r.status != 0 && r.status != http.StatusOK {
			b.counts["serve.non200"]++
		}
	}
	return nil
}

// verify checks every reply of the pass: HTTP 200, the requested point's
// cache key, no error and no degraded region.
func (w *serveMixed) verify(_ context.Context, b *bench) error {
	b.digests.Served = servedDigest(w.replies)
	for i, r := range w.replies {
		err := r.err
		if err == nil {
			want := w.served[i].dp.CacheKey()
			switch {
			case r.res.Error != "":
				err = errors.New(r.res.Error)
			case r.res.CacheKey != want:
				err = fmt.Errorf("cache key %q, want %q", r.res.CacheKey, want)
			case r.res.DegradedRegions != 0:
				err = fmt.Errorf("%d degraded regions", r.res.DegradedRegions)
			}
		}
		if err != nil {
			err = fmt.Errorf("request %s: %w", w.served[i].dp, err)
		}
		b.attempt(err)
	}
	return nil
}

// finish re-evaluates a seeded sample of the last pass's served points on
// a fresh DB, which shares nothing with the server's, and compares.
func (w *serveMixed) finish(ctx context.Context, b *bench) error {
	oracle := explore.NewDB()
	if b.regions != nil {
		oracle.Regions = b.regions
	}
	ref, err := oracle.ReferenceMetrics(ctx)
	if err != nil {
		return err
	}
	for _, i := range b.rng.Perm(len(w.served))[:min(oracleSample, len(w.served))] {
		dp, got := w.served[i].dp, w.replies[i].res
		c, err := oracle.Evaluate(ctx, dp, ref)
		if err == nil && (c.MeanSpeedup() != got.MeanSpeedup || c.AreaMM2 != got.AreaMM2 || c.PeakW != got.PeakW) {
			err = fmt.Errorf("served %s: speedup %v area %v peak %v, oracle %v %v %v",
				dp, got.MeanSpeedup, got.AreaMM2, got.PeakW, c.MeanSpeedup(), c.AreaMM2, c.PeakW)
		}
		b.attempt(err)
	}
	return nil
}

// genRequests builds a pass's requests: the cold phase names every ISA key
// once, in seeded order, on a seeded grid configuration; each warm request
// repeats an earlier point with probability repeatShare and otherwise asks
// for a fresh configuration of a random ISA key.
func genRequests(r *rand.Rand, nWarm int) (cold, warm []request) {
	grid := explore.Configs()
	keys := eval.ChoiceKeys()
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	choices := make(map[string]eval.ISAChoice, len(keys))
	for _, k := range keys {
		choices[k], _ = eval.ChoiceByKey(k)
	}
	mk := func(key string, cfg cpu.CoreConfig) request {
		return request{key, eval.DesignPoint{ISA: choices[key], Cfg: cfg}}
	}
	for _, k := range keys {
		cold = append(cold, mk(k, grid[r.Intn(len(grid))]))
	}
	prior := append([]request(nil), cold...)
	for i := 0; i < nWarm; i++ {
		if r.Float64() < repeatShare {
			warm = append(warm, prior[r.Intn(len(prior))])
			continue
		}
		q := mk(keys[r.Intn(len(keys))], freshConfig(r, grid))
		warm = append(warm, q)
		prior = append(prior, q)
	}
	return cold, warm
}

// freshConfig perturbs a grid configuration's queue and register-file
// sizes; the space is large enough that a draw is practically never
// repeated, so the request scores without profiling and misses the cache.
func freshConfig(r *rand.Rand, grid []cpu.CoreConfig) cpu.CoreConfig {
	c := grid[r.Intn(len(grid))]
	c.IQ = 16 + r.Intn(113)
	c.ROB = 32 + r.Intn(225)
	c.PRFInt = 64 + r.Intn(193)
	c.PRFFP = 32 + r.Intn(161)
	c.LSQ = 8 + r.Intn(57)
	return c
}

type client struct {
	http *http.Client
	url  string
	tr   *tracer
}

// loop sends the requests from a closed loop of clients: each sends its
// next request only after the previous reply.
func (cl *client) loop(ctx context.Context, reqs []request) []reply {
	out := make([]reply, len(reqs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = cl.do(ctx, reqs[i])
				out[i].done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

func (cl *client) do(ctx context.Context, q request) reply {
	id := cl.tr.begin("serve.request", -1, cl.tr.newOp())
	defer cl.tr.end(id)
	t := time.Now()
	body, err := json.Marshal(serve.EvaluateRequest{ISA: q.key, Config: &q.dp.Cfg})
	if err != nil {
		return reply{err: err}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		hreq.Header.Set(spanHeader, strconv.Itoa(id))
	}
	resp, err := cl.http.Do(hreq)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	lat := time.Since(t)
	if err != nil {
		return reply{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return reply{err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out)), status: resp.StatusCode}
	}
	var er serve.EvaluateResponse
	if err := json.Unmarshal(out, &er); err != nil {
		return reply{err: err}
	}
	if len(er.Results) != 1 {
		return reply{err: fmt.Errorf("%d results, want 1", len(er.Results))}
	}
	return reply{res: er.Results[0], status: resp.StatusCode, latency: lat}
}

type spanKey struct{}

// withSpan hands the client's request span to the engine through the
// request context, which the server keeps (without its deadline) for the
// evaluation.
func withSpan(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			r = r.WithContext(context.WithValue(r.Context(), spanKey{}, id))
		}
		h.ServeHTTP(w, r)
	})
}

// tracedEngine is the server's engine in a traced pass: the DB, with one
// serve.engine span per evaluation.
type tracedEngine struct {
	db *eval.DB
	tr *tracer
}

func (e tracedEngine) ReferenceMetrics(ctx context.Context) ([]eval.Metric, error) {
	return e.db.ReferenceMetrics(ctx)
}

func (e tracedEngine) Evaluate(ctx context.Context, dp eval.DesignPoint, ref []eval.Metric) (*eval.Candidate, error) {
	parent, ok := ctx.Value(spanKey{}).(int)
	if !ok {
		parent = -1
	}
	id := e.tr.begin("serve.engine", parent, 0)
	defer e.tr.end(id)
	return e.db.Evaluate(ctx, dp, ref)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
