package main

import (
	"context"
	"fmt"
	"time"

	"compisa/internal/eval"
	"compisa/internal/explore"
)

// orgNames are the span and metric names of the five organizations.
var orgNames = map[explore.Organization]string{
	explore.OrgHomogeneous:     "homogeneous",
	explore.OrgSingleISAHetero: "single_isa_hetero",
	explore.OrgCompositeFixed:  "composite_fixed",
	explore.OrgHeteroVendor:    "hetero_vendor",
	explore.OrgCompositeFull:   "composite_full",
}

// sweep evaluates the candidates of all five organizations in seeded
// order, one span per organization, and returns them by organization.
func (b *bench) sweep(ctx context.Context, s *explore.Searcher) (map[explore.Organization][]*eval.Candidate, error) {
	orgs := explore.Organizations()
	b.rng.Shuffle(len(orgs), func(i, j int) { orgs[i], orgs[j] = orgs[j], orgs[i] })
	byOrg := make(map[explore.Organization][]*eval.Candidate, len(orgs))
	for _, org := range orgs {
		id := b.tr.begin("eval.candidates", -1, b.tr.newOp())
		cs, err := s.Candidates(ctx, org)
		b.tr.end(id)
		b.attempt(err)
		if err != nil {
			return nil, err
		}
		byOrg[org] = cs
	}
	return byOrg, nil
}

// sweepDigests fingerprints a finished sweep and checks it.
func (b *bench) sweepDigests(ctx context.Context, db *eval.DB, byOrg map[explore.Organization][]*eval.Candidate) error {
	pd, err := profileDigest(ctx, db)
	if err != nil {
		return err
	}
	b.checkDigests(digests{Profiles: pd, Candidates: candidateDigest(byOrg)})
	return nil
}

// sweepCold: every pass builds a fresh DB (set-up: NewDB + NewSearcher,
// which profiles the x86-64 reference) and evaluates all five
// organizations' candidates.
type sweepCold struct {
	db      *eval.DB
	s       *explore.Searcher
	byOrg   map[explore.Organization][]*eval.Candidate
	elapsed time.Duration
}

func (w *sweepCold) prepare(context.Context, *bench) error { return nil }

func (w *sweepCold) setup(ctx context.Context, b *bench) error {
	w.db = b.newDB()
	var err error
	w.s, err = explore.NewSearcher(ctx, w.db)
	return err
}

func (w *sweepCold) pass(ctx context.Context, b *bench) error {
	t := time.Now()
	var err error
	w.byOrg, err = b.sweep(ctx, w.s)
	w.elapsed = time.Since(t)
	return err
}

func (w *sweepCold) verify(ctx context.Context, b *bench) error {
	var instrs int64
	for _, key := range eval.ChoiceKeys() {
		if key == eval.X8664Choice().Key() {
			continue // profiled by the set-up, as the reference
		}
		c, _ := eval.ChoiceByKey(key)
		ps, err := w.db.Profiles(ctx, c)
		if err != nil {
			return err
		}
		for _, p := range ps {
			instrs += p.Instrs
		}
	}
	b.sample("sim_mips", float64(instrs)/w.elapsed.Seconds()/1e6)
	return b.sweepDigests(ctx, w.db, w.byOrg)
}

func (w *sweepCold) finish(context.Context, *bench) error { return nil }

// searchCall is one Searcher.Search of the schedule.
type searchCall struct {
	org    explore.Organization
	obj    explore.Objective
	budget explore.Budget
}

// searchSchedule is fig5's MP-throughput searches over the power and area
// budgets, then fig7a's and fig8a's single-thread searches: 80 calls, the
// repeated unlimited budgets served from the frontier.
func searchSchedule() []searchCall {
	var out []searchCall
	add := func(obj explore.Objective, budgets ...[]explore.Budget) {
		for _, bs := range budgets {
			for _, bu := range bs {
				for _, org := range explore.Organizations() {
					out = append(out, searchCall{org, obj, bu})
				}
			}
		}
	}
	add(explore.ObjMPThroughput, explore.MPPowerBudgets, explore.AreaBudgets)
	add(explore.ObjSTPerf, explore.STPowerBudgets, explore.AreaBudgets)
	return out
}

// searchMP: prepare runs one cold sweep and checks it; each pass then runs
// the whole search schedule, in seeded order, on a fresh Searcher over that
// warm DB (set-up: NewSearcher + the warm candidate fetch of every
// organization).
type searchMP struct {
	db    *eval.DB
	s     *explore.Searcher
	cands map[explore.Organization]int
	lines []string
}

func (w *searchMP) prepare(ctx context.Context, b *bench) error {
	w.db = b.newDB()
	s, err := explore.NewSearcher(ctx, w.db)
	if err != nil {
		return err
	}
	byOrg, err := b.sweep(ctx, s)
	if err != nil {
		return err
	}
	return b.sweepDigests(ctx, w.db, byOrg)
}

func (w *searchMP) setup(ctx context.Context, b *bench) error {
	s, err := explore.NewSearcher(ctx, w.db)
	if err != nil {
		return err
	}
	w.cands = make(map[explore.Organization]int)
	for _, org := range explore.Organizations() {
		id := b.tr.begin("explore.candidates", -1, b.tr.newOp())
		cs, err := s.Candidates(ctx, org)
		b.tr.end(id)
		if err != nil {
			return err
		}
		w.cands[org] = len(cs)
	}
	w.s = s
	return nil
}

func (w *searchMP) pass(ctx context.Context, b *bench) error {
	sched := searchSchedule()
	b.rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
	w.lines = w.lines[:0]
	var mp, st time.Duration
	for _, c := range sched {
		id := b.tr.begin("explore.search."+orgNames[c.org], -1, b.tr.newOp())
		ct := time.Now()
		cmp, err := w.s.Search(ctx, c.org, c.obj, c.budget)
		if c.obj.SingleThread() {
			st += time.Since(ct)
		} else {
			mp += time.Since(ct)
		}
		b.tr.end(id)
		if err != nil {
			err = fmt.Errorf("search %v %s: %w", c.org, c.budget, err)
		}
		b.attempt(err)
		if err != nil {
			continue
		}
		w.lines = append(w.lines, searchLine(c.org, c.obj, c.budget, cmp))
		b.counts["explore.search_count"]++
		b.counts["explore.search_candidates"] += float64(w.cands[c.org])
	}
	b.sample("search.mp", mp.Seconds())
	b.sample("search.st", st.Seconds())
	return nil
}

func (w *searchMP) verify(_ context.Context, b *bench) error {
	b.checkDigests(digests{Searches: searchDigest(w.lines)})
	return nil
}

func (w *searchMP) finish(context.Context, *bench) error { return nil }
