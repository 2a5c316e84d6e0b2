package explore

import (
	"context"
	"fmt"
	"sync"

	"compisa/internal/workload"
)

// Organization is one of the five CMP organizations compared throughout the
// evaluation (Section VII.A).
type Organization uint8

const (
	// OrgHomogeneous: four identical x86-64 cores.
	OrgHomogeneous Organization = iota
	// OrgSingleISAHetero: x86-64 everywhere, heterogeneous hardware.
	OrgSingleISAHetero
	// OrgCompositeFixed: hardware heterogeneity plus the three x86-ized
	// fixed feature sets resembling Thumb/Alpha/x86-64 (Table II).
	OrgCompositeFixed
	// OrgHeteroVendor: the multi-vendor heterogeneous-ISA CMP
	// (x86-64, Alpha, Thumb) — the "goal" baseline.
	OrgHeteroVendor
	// OrgCompositeFull: hardware heterogeneity plus full ISA feature
	// diversity over all 26 composite feature sets.
	OrgCompositeFull
)

func (o Organization) String() string {
	switch o {
	case OrgHomogeneous:
		return "Homogeneous (x86-64)"
	case OrgSingleISAHetero:
		return "Single-ISA Heterogeneous (x86-64 + HW heterogeneity)"
	case OrgCompositeFixed:
		return "Composite-ISA, fixed x86-ized feature sets"
	case OrgHeteroVendor:
		return "Heterogeneous-ISA (x86-64 + Alpha + Thumb)"
	case OrgCompositeFull:
		return "Composite-ISA, full feature diversity"
	}
	return "unknown"
}

// Organizations lists all five in presentation order.
func Organizations() []Organization {
	return []Organization{OrgHomogeneous, OrgSingleISAHetero, OrgHeteroVendor,
		OrgCompositeFixed, OrgCompositeFull}
}

// Choices returns the ISA choices an organization may assign to cores.
func (o Organization) Choices() []ISAChoice {
	switch o {
	case OrgHomogeneous, OrgSingleISAHetero:
		return []ISAChoice{X8664Choice()}
	case OrgCompositeFixed:
		return XIzedChoices()
	case OrgHeteroVendor:
		return VendorChoices()
	default:
		return CompositeChoices()
	}
}

// Searcher runs organization-level searches with candidate caching and a
// resumable frontier of completed searches.
type Searcher struct {
	DB  *DB
	ref []Metric

	// si indexes the suite for scoring; fronts memoizes the budget-
	// independent front of every search run here (see frontMemo).
	si     *suiteIndex
	fronts *frontMemo

	mu sync.Mutex
	// cands caches evaluated candidates per organization choice-set key.
	cands map[Organization][]*Candidate
	// frontier records completed searches for save/resume.
	frontier map[string]SavedSearch
}

// NewSearcher builds a Searcher over the full suite.
func NewSearcher(ctx context.Context, db *DB) (*Searcher, error) {
	ref, err := db.ReferenceMetrics(ctx)
	if err != nil {
		return nil, err
	}
	return &Searcher{
		DB: db, ref: ref,
		si:       newSuiteIndex(db.Regions),
		fronts:   newFrontMemo(),
		cands:    map[Organization][]*Candidate{},
		frontier: map[string]SavedSearch{},
	}, nil
}

// Candidates returns (and caches) the evaluated candidate set of an
// organization.
func (s *Searcher) Candidates(ctx context.Context, org Organization) ([]*Candidate, error) {
	s.mu.Lock()
	cs, ok := s.cands[org]
	s.mu.Unlock()
	if ok {
		return cs, nil
	}
	cs, err := s.DB.Candidates(ctx, org.Choices(), Configs(), s.ref)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.cands[org] = cs
	s.mu.Unlock()
	return cs, nil
}

// searchKey is the frontier key: organization, objective, budget, and (for
// constrained searches) the constraint name.
func searchKey(org Organization, obj Objective, b Budget, constraint string) string {
	key := fmt.Sprintf("%d|%d|%s", org, obj, b)
	if constraint != "" {
		key += "|" + constraint
	}
	return key
}

// Search finds the organization's (locally) optimal CMP for an objective
// under a budget. A search already in the frontier (restored from a
// saved run or completed earlier this run) is rebuilt from its saved design
// points instead of re-searched.
func (s *Searcher) Search(ctx context.Context, org Organization, obj Objective, b Budget) (CMP, error) {
	return s.search(ctx, org, obj, b, "", nil)
}

// SearchConstrained runs a composite-full search restricted by a candidate
// constraint (Figure 9's feature-sensitivity analysis). The name identifies
// the constraint in the saved frontier; an empty name disables frontier
// caching for the search (anonymous constraints are not resumable).
func (s *Searcher) SearchConstrained(ctx context.Context, obj Objective, b Budget, name string, constraint func(*Candidate) bool) (CMP, error) {
	return s.search(ctx, OrgCompositeFull, obj, b, name, constraint)
}

func (s *Searcher) search(ctx context.Context, org Organization, obj Objective, b Budget, cname string, constraint func(*Candidate) bool) (CMP, error) {
	key := ""
	if constraint == nil || cname != "" {
		key = searchKey(org, obj, b, cname)
		if cmp, ok, err := s.resume(ctx, key, obj); err != nil {
			return CMP{}, err
		} else if ok {
			return cmp, nil
		}
	}
	cs, err := s.Candidates(ctx, org)
	if err != nil {
		return CMP{}, err
	}
	spec := SearchSpec{
		Candidates:  cs,
		Budget:      b,
		Objective:   obj,
		Homogeneous: org == OrgHomogeneous,
		Constraint:  constraint,
	}
	cmp, _, err := searchCounted(ctx, spec, s.si, s.fronts)
	if err != nil {
		return CMP{}, fmt.Errorf("%v under %s: %w", org, b, err)
	}
	if key != "" {
		s.record(key, cmp)
	}
	return cmp, nil
}

// resume rebuilds a frontier entry: the saved design points are re-evaluated
// against the (restored) profile cache and re-scored, which reproduces the
// original CMP exactly because evaluation and scoring are deterministic.
func (s *Searcher) resume(ctx context.Context, key string, obj Objective) (CMP, bool, error) {
	s.mu.Lock()
	sv, ok := s.frontier[key]
	s.mu.Unlock()
	if !ok {
		return CMP{}, false, nil
	}
	var cores [4]*Candidate
	for i, dp := range sv.Points {
		c, err := s.DB.Evaluate(ctx, dp, s.ref)
		if err != nil {
			return CMP{}, false, fmt.Errorf("explore: resume %q: %w", key, err)
		}
		cores[i] = c
	}
	cmp := CMP{Cores: cores, Score: s.si.score(&cores, obj)}
	return cmp, true, nil
}

func (s *Searcher) record(key string, cmp CMP) {
	var pts [4]DesignPoint
	for i, c := range cmp.Cores {
		pts[i] = c.DP
	}
	s.mu.Lock()
	s.frontier[key] = SavedSearch{Score: cmp.Score, Points: pts}
	s.mu.Unlock()
}

// exportFrontier copies the frontier for the run record.
func (s *Searcher) exportFrontier() map[string]SavedSearch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]SavedSearch, len(s.frontier))
	for k, v := range s.frontier {
		out[k] = v
	}
	return out
}

// importFrontier seeds the frontier from a saved run; existing entries win.
func (s *Searcher) importFrontier(frontier map[string]SavedSearch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range frontier {
		if _, ok := s.frontier[k]; !ok {
			s.frontier[k] = v
		}
	}
}

// Regions exposes the suite the searcher evaluates over.
func (s *Searcher) Regions() []workload.Region { return s.DB.Regions }

// Reference exposes the normalization metrics.
func (s *Searcher) Reference() []Metric { return s.ref }
