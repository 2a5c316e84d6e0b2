package cpu

// PredictorKind selects one of the three predictor organizations of Table I.
type PredictorKind uint8

const (
	// PredLocal is a 2-level local-history predictor.
	PredLocal PredictorKind = iota
	// PredGShare is a global-history gshare predictor.
	PredGShare
	// PredTournament combines local and gshare under a chooser.
	PredTournament
)

func (k PredictorKind) String() string {
	switch k {
	case PredLocal:
		return "2-level local"
	case PredGShare:
		return "gshare"
	default:
		return "tournament"
	}
}

// ShortString returns the one-letter code used in the paper's tables.
func (k PredictorKind) ShortString() string {
	return [...]string{"L", "G", "T"}[k]
}

// Predictor is a conditional-branch direction predictor.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint32) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint32, taken bool)
}

// NewPredictor builds a predictor of the given kind.
func NewPredictor(k PredictorKind) Predictor {
	switch k {
	case PredLocal:
		return newLocal()
	case PredGShare:
		return newGShare()
	default:
		return newTournament()
	}
}

// counterTable is a table of 2-bit saturating counters.
type counterTable struct {
	c    []uint8
	mask uint32
}

func newCounterTable(n int) *counterTable {
	t := &counterTable{c: make([]uint8, n), mask: uint32(n - 1)}
	for i := range t.c {
		t.c[i] = 1 // weakly not-taken
	}
	return t
}

func (t *counterTable) reset() {
	for i := range t.c {
		t.c[i] = 1
	}
}

func (t *counterTable) taken(idx uint32) bool { return t.c[idx&t.mask] >= 2 }

func (t *counterTable) update(idx uint32, taken bool) {
	i := idx & t.mask
	if taken {
		if t.c[i] < 3 {
			t.c[i]++
		}
	} else if t.c[i] > 0 {
		t.c[i]--
	}
}

// local is a 2-level predictor: 1024 10-bit local histories indexing a
// 1024-entry pattern history table.
type local struct {
	hist []uint16
	pht  *counterTable
}

func newLocal() *local {
	return &local{hist: make([]uint16, 1024), pht: newCounterTable(1024)}
}

func (p *local) reset() {
	clear(p.hist)
	p.pht.reset()
}

func (p *local) idx(pc uint32) (uint32, uint32) {
	h := uint32(pc>>2) & 1023
	return h, uint32(p.hist[h]) & 1023
}

func (p *local) Predict(pc uint32) bool {
	_, pi := p.idx(pc)
	return p.pht.taken(pi)
}

func (p *local) Update(pc uint32, taken bool) {
	hi, pi := p.idx(pc)
	p.pht.update(pi, taken)
	p.hist[hi] = (p.hist[hi] << 1) & 1023
	if taken {
		p.hist[hi] |= 1
	}
}

// gshare xors a 12-bit global history with the PC.
type gshare struct {
	ghr uint32
	pht *counterTable
}

func newGShare() *gshare { return &gshare{pht: newCounterTable(4096)} }

func (p *gshare) reset() {
	p.ghr = 0
	p.pht.reset()
}

func (p *gshare) idx(pc uint32) uint32 { return (pc >> 2) ^ p.ghr }

func (p *gshare) Predict(pc uint32) bool { return p.pht.taken(p.idx(pc)) }

func (p *gshare) Update(pc uint32, taken bool) {
	p.pht.update(p.idx(pc), taken)
	p.ghr = (p.ghr << 1) & 4095
	if taken {
		p.ghr |= 1
	}
}

// tournament keeps both predictors and a chooser trained toward whichever
// component was right.
type tournament struct {
	local  *local
	gshare *gshare
	choice *counterTable
}

func newTournament() *tournament {
	return &tournament{local: newLocal(), gshare: newGShare(), choice: newCounterTable(4096)}
}

func (p *tournament) reset() {
	p.local.reset()
	p.gshare.reset()
	p.choice.reset()
}

func (p *tournament) Predict(pc uint32) bool {
	if p.choice.taken(pc >> 2) {
		return p.gshare.Predict(pc)
	}
	return p.local.Predict(pc)
}

func (p *tournament) Update(pc uint32, taken bool) {
	lp := p.local.Predict(pc)
	gp := p.gshare.Predict(pc)
	if lp != gp {
		p.choice.update(pc>>2, gp == taken)
	}
	p.local.Update(pc, taken)
	p.gshare.Update(pc, taken)
}
