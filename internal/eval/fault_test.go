package eval

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"compisa/internal/check"
	"compisa/internal/cpu"
	"compisa/internal/fault"
)

// injector builds a deterministic fault injector or fails the test.
func injector(t *testing.T, cfg fault.Config) *fault.Injector {
	t.Helper()
	in, err := fault.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// smallDB shrinks the suite to its first n regions so fault-path tests stay
// fast; the fault machinery is region-count agnostic.
func smallDB(n int, in *fault.Injector) *DB {
	db := NewDB()
	db.Regions = db.Regions[:n]
	db.Inject = in
	return db
}

// injectable returns a non-reference composite choice (subject to injection).
func injectable(t *testing.T) ISAChoice {
	t.Helper()
	for _, c := range CompositeChoices() {
		if !isReference(c) {
			return c
		}
	}
	t.Fatal("no injectable composite choice")
	return ISAChoice{}
}

// TestFaultCompileQuarantine: persistent compile faults quarantine every
// (region, ISA) pair instead of failing Profiles, and each quarantine reason
// names the region and the ISA.
func TestFaultCompileQuarantine(t *testing.T) {
	in := injector(t, fault.Config{Seed: 7, Rate: 1, Kinds: []fault.Kind{fault.KindCompile}})
	db := smallDB(3, in)
	c := injectable(t)
	ps, err := db.Profiles(context.Background(), c)
	if err != nil {
		t.Fatalf("Profiles must degrade, not fail: %v", err)
	}
	for i, p := range ps {
		if p != nil {
			t.Errorf("region %d: expected quarantined nil slot", i)
		}
	}
	cov := db.Coverage()
	if len(cov.Quarantined) != 3 || cov.Evaluated != 0 {
		t.Fatalf("coverage %s, want 0/3 with 3 quarantined", cov)
	}
	for _, q := range cov.Quarantined {
		if !strings.Contains(q.Reason, q.Region) || !strings.Contains(q.Reason, c.Key()) {
			t.Errorf("reason %q should name region %q and ISA %q", q.Reason, q.Region, c.Key())
		}
		if !strings.Contains(q.Reason, "compile") {
			t.Errorf("reason %q should identify the compile stage", q.Reason)
		}
		// The stage's wrapping, then the compile's own: "compile <IR
		// function> for <feature set>: <injected fault>".
		prefix := fmt.Sprintf("compile %s for %s: compile ", q.Region, c.Key())
		suffix := fmt.Sprintf(" for %s: %v", c.FS.ShortName(), fault.Decision{Kind: fault.KindCompile}.Errorf())
		if !strings.HasPrefix(q.Reason, prefix) || !strings.HasSuffix(q.Reason, suffix) {
			t.Errorf("reason %q should read %q<function>%q", q.Reason, prefix, suffix)
		}
	}
	if got := db.Stats.Quarantines.Load(); got != 3 {
		t.Errorf("Stats.Quarantines = %d, want 3", got)
	}
}

// TestFaultReferenceExempt: the x86-64 reference ISA ignores the injector —
// a 100% fault rate still yields a complete reference profile set.
func TestFaultReferenceExempt(t *testing.T) {
	in := injector(t, fault.Config{Seed: 7, Rate: 1})
	db := smallDB(3, in)
	ps, err := db.Profiles(context.Background(), X8664Choice())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if p == nil {
			t.Fatalf("reference region %d quarantined despite exemption", i)
		}
	}
	if cov := db.Coverage(); len(cov.Quarantined) != 0 {
		t.Fatalf("reference run quarantined pairs: %s", cov)
	}
}

// TestFaultTransientRetry: faults marked transient clear on retry, so a 100%
// injection rate with TransientFrac=1 still completes with zero quarantines.
func TestFaultTransientRetry(t *testing.T) {
	in := injector(t, fault.Config{Seed: 11, Rate: 1, TransientFrac: 1,
		Kinds: []fault.Kind{fault.KindCompile, fault.KindRunaway, fault.KindCorrupt}})
	db := smallDB(3, in)
	ps, err := db.Profiles(context.Background(), injectable(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if p == nil {
			t.Errorf("region %d quarantined; transient faults must clear on retry", i)
		}
	}
	if db.Stats.Retries.Load() == 0 {
		t.Error("expected at least one counted retry under 100% injection")
	}
}

// TestFaultKindsExerciseRealPaths: runaway and corruption faults surface
// through the CPU's genuine watchdog and decode errors, tagged as injected.
func TestFaultKindsExerciseRealPaths(t *testing.T) {
	cases := []struct {
		kind fault.Kind
		want error
	}{
		{fault.KindRunaway, cpu.ErrInstrBudget},
		{fault.KindCorrupt, cpu.ErrUnimplementedOp},
	}
	for _, tc := range cases {
		in := injector(t, fault.Config{Seed: 3, Rate: 1, Kinds: []fault.Kind{tc.kind}})
		db := smallDB(1, in)
		_, err := db.profileWithRetry(context.Background(), db.Regions[0], injectable(t))
		if err == nil {
			t.Fatalf("%v: expected an error", tc.kind)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%v: error %v should wrap %v", tc.kind, err, tc.want)
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("%v: error %v should be tagged injected", tc.kind, err)
		}
		var fe *fault.Error
		if !errors.As(err, &fe) || fe.Stage != fault.StageExec {
			t.Errorf("%v: error %v should classify as an exec-stage fault", tc.kind, err)
		}
	}
}

// TestFaultDegradedScoring: quarantined pairs score at exactly the documented
// quarantine penalties rather than aborting Evaluate.
func TestFaultDegradedScoring(t *testing.T) {
	in := injector(t, fault.Config{Seed: 7, Rate: 1, Kinds: []fault.Kind{fault.KindCompile}})
	db := smallDB(3, in)
	ctx := context.Background()
	ref, err := db.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dp := DesignPoint{ISA: injectable(t), Cfg: ReferenceConfig()}
	c, err := db.Evaluate(ctx, dp, ref)
	if err != nil {
		t.Fatalf("Evaluate must degrade, not fail: %v", err)
	}
	for r := range db.Regions {
		if !c.Degraded[r] {
			t.Fatalf("region %d: expected degraded evaluation", r)
		}
		if c.Speedup[r] != speedupPenalty || c.NormEDP[r] != edpPenalty {
			t.Errorf("region %d: speedup %v edp %v, want penalties %v / %v",
				r, c.Speedup[r], c.NormEDP[r], speedupPenalty, edpPenalty)
		}
	}
	if got := db.Stats.DegradedRegions.Load(); got != int64(len(db.Regions)) {
		t.Errorf("Stats.DegradedRegions = %d, want %d", got, len(db.Regions))
	}
}

// TestFaultSeedDeterminism: the same seed yields identical quarantine lists
// and identical degraded scores across independent runs.
func TestFaultSeedDeterminism(t *testing.T) {
	cfg := fault.Config{Seed: 42, Rate: 0.5}
	run := func() (Coverage, []float64) {
		db := smallDB(4, injector(t, cfg))
		ctx := context.Background()
		ref, err := db.ReferenceMetrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var speedups []float64
		for _, ch := range XIzedChoices() {
			c, err := db.Evaluate(ctx, DesignPoint{ISA: ch, Cfg: ReferenceConfig()}, ref)
			if err != nil {
				t.Fatal(err)
			}
			speedups = append(speedups, c.Speedup...)
		}
		return db.Coverage(), speedups
	}
	cov1, sp1 := run()
	cov2, sp2 := run()
	if cov1.String() != cov2.String() {
		t.Fatalf("coverage differs across runs: %s vs %s", cov1, cov2)
	}
	for i := range cov1.Quarantined {
		if cov1.Quarantined[i] != cov2.Quarantined[i] {
			t.Errorf("quarantine entry %d differs: %+v vs %+v", i, cov1.Quarantined[i], cov2.Quarantined[i])
		}
	}
	for i := range sp1 {
		if sp1[i] != sp2[i] {
			t.Errorf("speedup %d differs: %v vs %v", i, sp1[i], sp2[i])
		}
	}
	// A different seed must not reproduce the same fault pattern (with 4
	// regions x 3 ISAs at 50% rate, identical lists are vanishingly unlikely).
	db3 := smallDB(4, injector(t, fault.Config{Seed: 43, Rate: 0.5}))
	ctx := context.Background()
	if _, err := db3.ReferenceMetrics(ctx); err != nil {
		t.Fatal(err)
	}
	for _, ch := range XIzedChoices() {
		if _, err := db3.Profiles(ctx, ch); err != nil {
			t.Fatal(err)
		}
	}
	same := len(db3.Coverage().Quarantined) == len(cov1.Quarantined)
	if same {
		for i, q := range db3.Coverage().Quarantined {
			if q != cov1.Quarantined[i] {
				same = false
				break
			}
		}
	}
	if same && len(cov1.Quarantined) > 0 {
		t.Error("different seeds produced identical quarantine lists")
	}
}

// TestFaultProfilesSingleflight: concurrent Profiles calls for one ISA share
// a single computation (no cache stampede).
func TestFaultProfilesSingleflight(t *testing.T) {
	db := smallDB(3, nil)
	c := injectable(t)
	const callers = 16
	results := make([][]*cpu.Profile, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ps, err := db.Profiles(context.Background(), c)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = ps
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if len(results[i]) == 0 || results[i][0] != results[0][0] {
			t.Fatalf("caller %d received a distinct computation; stampede not deduplicated", i)
		}
	}
	if db.Stats.ProfileMisses.Load() != 1 {
		t.Errorf("ProfileMisses = %d, want 1 (singleflight)", db.Stats.ProfileMisses.Load())
	}
	if db.Stats.ProfileHits.Load() != callers-1 {
		t.Errorf("ProfileHits = %d, want %d (joiners count as hits)", db.Stats.ProfileHits.Load(), callers-1)
	}
}

// stallCtx stalls the first caller of Err until release is closed, after
// signalling on stalled: a leader that checks it is held inside its
// computation while the test lines up waiters.
type stallCtx struct {
	context.Context
	once             sync.Once
	stalled, release chan struct{}
}

func (c *stallCtx) Err() error {
	c.once.Do(func() {
		close(c.stalled)
		<-c.release
	})
	return c.Context.Err()
}

// joinCtx wraps a context so that the first call of Done closes joined. A
// caller that finds another's computation in flight selects on Done while it
// waits, so the close marks a waiter that has joined that computation.
type joinCtx struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func newJoinCtx(ctx context.Context) *joinCtx {
	return &joinCtx{Context: ctx, joined: make(chan struct{})}
}

func (c *joinCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.joined) })
	return c.Context.Done()
}

// TestFaultProfilesLeaderCanceled: a Profiles caller with a live context
// that joined a leader whose context is then cancelled gets the profile set:
// it computes it itself instead of returning the leader's error.
func TestFaultProfilesLeaderCanceled(t *testing.T) {
	db := smallDB(1, nil)
	c := injectable(t)
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	stall := &stallCtx{Context: inner, stalled: make(chan struct{}), release: make(chan struct{})}
	leader := make(chan error, 1)
	go func() {
		_, err := db.Profiles(stall, c)
		leader <- err
	}()
	<-stall.stalled // the leader is inside its computation
	type result struct {
		ps  []*cpu.Profile
		err error
	}
	waiter := make(chan result, 1)
	live := newJoinCtx(context.Background())
	go func() {
		ps, err := db.Profiles(live, c)
		waiter <- result{ps, err}
	}()
	<-live.joined // the waiter waits on the stalled leader
	cancel()
	close(stall.release)
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader: err = %v, want context.Canceled", err)
	}
	got := <-waiter
	if got.err != nil {
		t.Fatalf("live waiter of a cancelled leader: %v", got.err)
	}
	if len(got.ps) != len(db.Regions) || got.ps[0] == nil {
		t.Fatalf("live waiter got %d profiles, want %d", len(got.ps), len(db.Regions))
	}
	if hits, misses := db.Stats.ProfileHits.Load(), db.Stats.ProfileMisses.Load(); hits != 0 || misses != 2 {
		t.Errorf("%d hits, %d misses, want 0 and 2 (the waiter computes after the leader fails)", hits, misses)
	}
	if ps, err := db.Profiles(context.Background(), c); err != nil || &ps[0] != &got.ps[0] {
		t.Fatalf("later caller: %v, or a set other than the waiter's", err)
	}
	if hits := db.Stats.ProfileHits.Load(); hits != 1 {
		t.Errorf("%d hits after a later caller, want 1", hits)
	}
}

// TestFaultBadCodeVerifyStage: injected illegal codegen (KindBadCode) is
// caught by the static verification stage before execution, classified as a
// StageVerify fault tagged injected, and counted in the verify stats.
func TestFaultBadCodeVerifyStage(t *testing.T) {
	cfg := fault.Config{Seed: 5, Rate: 1, Kinds: []fault.Kind{fault.KindBadCode}}
	db := smallDB(1, injector(t, cfg))
	_, err := db.profileWithRetry(context.Background(), db.Regions[0], injectable(t))
	if err == nil {
		t.Fatal("expected a verify-stage fault")
	}
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Stage != fault.StageVerify {
		t.Fatalf("error %v should classify as a verify-stage fault", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Errorf("error %v should be tagged injected", err)
	}
	if !strings.Contains(err.Error(), check.RuleUDef) {
		t.Errorf("error %v should carry the %q rule ID", err, check.RuleUDef)
	}
	if db.Stats.Verifies.Load() == 0 || db.Stats.VerifyFindings.Load() == 0 {
		t.Errorf("verify stats not recorded: %d checks, %d findings",
			db.Stats.Verifies.Load(), db.Stats.VerifyFindings.Load())
	}
}

// TestFaultBadCodeQuarantine: a persistent badcode fault degrades into
// quarantine like any other stage failure, with the reason naming the
// verify stage.
func TestFaultBadCodeQuarantine(t *testing.T) {
	db := smallDB(2, injector(t, fault.Config{Seed: 9, Rate: 1, Kinds: []fault.Kind{fault.KindBadCode}}))
	ps, err := db.Profiles(context.Background(), injectable(t))
	if err != nil {
		t.Fatalf("Profiles must degrade, not fail: %v", err)
	}
	for i, p := range ps {
		if p != nil {
			t.Errorf("region %d: expected quarantined nil slot", i)
		}
	}
	cov := db.Coverage()
	if len(cov.Quarantined) != 2 {
		t.Fatalf("want 2 quarantined pairs, got %d", len(cov.Quarantined))
	}
	for _, q := range cov.Quarantined {
		if !strings.Contains(q.Reason, "verify") {
			t.Errorf("reason %q should identify the verify stage", q.Reason)
		}
	}
}
