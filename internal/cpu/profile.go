package cpu

import (
	"sync"
	"time"

	"compisa/internal/code"
	"compisa/internal/isa"
	"compisa/internal/mem"
)

// ILPWindows are the idealized window sizes profiled; perfmodel
// interpolates between them. IPCWindow is indexed positionally: entry i
// corresponds to ILPWindows[i].
var ILPWindows = [NumILPWindows]int{16, 32, 64, 128, 256}

const (
	// NumILPWindows is the number of profiled window sizes.
	NumILPWindows = 5
	// NumPredictors is the number of predictor organizations (PredictorKind).
	NumPredictors = 3

	// ilpRefWindow is the index of the 128-uop reference window in
	// ILPWindows, used by the memory-overlap measurement.
	ilpRefWindow = 3
)

// Profile captures everything the mechanistic performance model
// (internal/perfmodel) needs to predict any microarchitectural
// configuration's cycle count for one (region, feature set) pair. It is
// collected in a single functional execution that simultaneously simulates
// every cache configuration, every branch predictor, the micro-op cache,
// and dependence-limited ILP at every window size — the trick that makes the
// paper's 4680-design-point sweep tractable on one machine.
//
// The layout is struct-of-arrays: the ILP curve and mispredict rates are
// fixed-size arrays indexed positionally (ILPWindows / PredictorKind), not
// maps, so batch scoring walks them without hashing and the binary codec
// (profile_codec.go) serializes them deterministically.
type Profile struct {
	Name string

	Instrs, Uops                   int64
	Loads, Stores, Branches, Taken int64
	PredOffUops                    int64
	MemALUOps                      int64
	UopsByClass                    [NumUopClasses]int64

	StaticInstrs int
	CodeBytes    int
	AvgInstrLen  float64

	// FusedBranches counts dynamic CMP/TEST+JCC pairs eligible for
	// macro-op fusion; with MemALUOps (micro-fused load+op pairs) they
	// reduce dispatch slots on full-x86 cores with fusion enabled.
	FusedBranches int64
	// X86Complexity records whether the profiled code is full-x86 (fusion
	// applies) or microx86 (1:1, no fusion).
	X86Complexity bool

	// IPCWindow[i] is the dependence-limited micro-ops/cycle achievable
	// with an idealized window of ILPWindows[i] in-flight micro-ops and
	// unbounded width/units; IPCInOrder is the same with strict
	// program-order issue.
	IPCWindow  [NumILPWindows]float64
	IPCInOrder float64

	// MispredictRate[k] is the per-branch misprediction rate of predictor
	// organization PredictorKind(k).
	MispredictRate [NumPredictors]float64

	// Mem[i][d][l] profiles the hierarchy with L1I option i, L1D option d,
	// L2 option l (options indexed by CacheOptions).
	Mem [2][2][2]MemProfile

	// UopCacheHitRate is the fraction of instruction deliveries served by
	// the micro-op cache.
	UopCacheHitRate float64

	// MemExposedCycles is the measured dependence-aware memory stall at a
	// 128-uop window on the reference hierarchy (32KB L1s, 4MB L2): the
	// horizon difference between a timestamp chain using real cache
	// latencies and one using fixed L1 latency. It captures how much of
	// the miss latency the window can actually hide given the program's
	// dependence structure (pointer chases expose everything; streaming
	// hides almost all of it).
	MemExposedCycles float64
	// NaiveStallRef is the reference hierarchy's naive stall sum
	// (l1miss*l2lat + l2miss*memlat), used to scale MemExposedCycles to
	// other cache configurations.
	NaiveStallRef float64

	// Compile-time statistics of the program profiled.
	Stats code.CompileStats
}

// MemProfile summarizes one cache hierarchy's behavior.
type MemProfile struct {
	L1IMisses int64
	L1DMisses int64
	L2Misses  int64
	// DataMLP estimates the average number of overlappable outstanding
	// data misses (cluster size with gaps under half a ROB).
	DataMLP float64
}

// CacheOptions enumerates the per-level options of Table I, indexed by the
// Mem array dimensions.
var (
	L1IOptions = [2]CacheCfg{L1Cfg32k, L1Cfg64k}
	L1DOptions = [2]CacheCfg{L1Cfg32k, L1Cfg64k}
	L2Options  = [2]CacheCfg{L2Cfg4M, L2Cfg8M}
)

// Timestamp-lane layout of the flat profiler: one lane per ILP window, then
// one for the strict in-order chain and, last, one for the real-latency
// chain on the reference hierarchy. All lane state (register ready times,
// granule store times) lives in fixed-size [numLanes]int64 rows, replacing
// the per-window slices and the map[uint64][]int64 of the legacy profiler.
const (
	numLanes  = NumILPWindows + 2
	laneInOrd = NumILPWindows // strict in-order chain

	ringRealLen = 128 // real chain models a 128-uop window
)

// lanes is one timestamp per lane.
type lanes = [numLanes]int64

// setLanes stores one completion timestamp per lane into row.
func setLanes(row *lanes, c0, c1, c2, c3, c4, c5, c6 int64) {
	row[0], row[1], row[2], row[3], row[4], row[5], row[6] = c0, c1, c2, c3, c4, c5, c6
}

// ilpRings holds the completion ring of every windowed lane: the ring of
// window i is ILPWindows[i] micro-ops long (TestILPRingsMatchWindows pins
// the sizes), the real chain's ringRealLen. A micro-op's slot is its
// sequence number modulo the ring length; fixed-size arrays indexed with
// constant masks need no bounds checks.
type ilpRings struct {
	w16  [16]int64
	w32  [32]int64
	w64  [64]int64
	w128 [128]int64
	w256 [256]int64
	real [ringRealLen]int64
}

// windows returns the windowed lanes' rings, indexed like ILPWindows.
func (r *ilpRings) windows() [NumILPWindows][]int64 {
	return [NumILPWindows][]int64{r.w16[:], r.w32[:], r.w64[:], r.w128[:], r.w256[:]}
}

// classLat is latOf per micro-op class.
var classLat = func() (t [NumUopClasses]int64) {
	for c := range t {
		t[c] = int64(latOf(UopClass(c)))
	}
	return t
}()

// profiler accumulates the profile during one functional run. Instances are
// pooled (see profilerPool): all scratch — the cache models, three
// predictors, the micro-op cache, the timestamp lanes, and the granule
// table — is reset in place between runs instead of reallocated, which
// removes the dominant allocation cost of a profiling pass.
type profiler struct {
	pd   *Predecoded
	prof *Profile

	local  *local
	gshare *gshare
	tourn  *tournament
	// Cache scratch for the eight (i, d, l) hierarchies. Hierarchies that
	// share an L1 option see the identical access stream, so one L1I per
	// i-option and one L1D per d-option stand for all of them bit-exactly.
	// The L2 miss stream depends only on (i, d), and the L2 options share
	// their set count with nested associativity, so one LRU stack of the
	// widest option per (i, d) answers every l through accessRank.
	l1i           [2]*Cache
	l1d           [2]*Cache
	l2            [2][2]*Cache
	uc            *UopCache
	missPos       [2]int64 // last data-miss uop position per L1D option
	missGrp       [2]int64 // miss groups per L1D option
	lastFetchLine uint64   // shared fetch-stream filter: every
	// hierarchy sees the identical fetch stream, so one filter decides the
	// line transition for all eight

	// ILP tracking, one timestamp lane per window + in-order + real.
	regReady [numDeps]lanes
	rings    ilpRings
	gran     *granTab // store completion per 8-byte granule, per lane

	inorderT   int64
	seq        int64
	totalLen   int64
	mispredict [NumPredictors]int64
	prevCmp    bool
	prevIdx    int32
	lastLat    int64 // data-access latency on the reference hierarchy

	// busy is the time spent consuming events (consumeBatch).
	busy time.Duration
	// batch is the run loop's event buffer (see runBatched).
	batch [eventBatch]Event
}

// l2Stack is the geometry of the per-(i, d) L2 stack: the widest option
// (TestL2OptionsNestLRU pins that the options nest).
var l2Stack = L2Options[len(L2Options)-1]

// profilerPool recycles profiler scratch across profiling passes — the
// "profile pool" that lets par.Map workers in eval reuse buffers.
var profilerPool = sync.Pool{}

// newProfiler builds (or recycles) the profiling consumer for one
// predecoded program. granHint is the expected number of distinct 8-byte
// memory granules (region footprint / 8); it sizes the granule table on
// first construction.
func newProfiler(pd *Predecoded, granHint int) *profiler {
	pr, _ := profilerPool.Get().(*profiler)
	if pr == nil {
		pr = &profiler{local: newLocal(), gshare: newGShare(), tourn: newTournament()}
		for i := 0; i < 2; i++ {
			pr.l1i[i] = NewCache(L1IOptions[i])
			pr.l1d[i] = NewCache(L1DOptions[i])
			for d := 0; d < 2; d++ {
				pr.l2[i][d] = NewCache(l2Stack)
			}
		}
		pr.uc = NewUopCache()
		pr.gran = newGranTab(numLanes, granHint)
	} else {
		pr.local.reset()
		pr.gshare.reset()
		pr.tourn.reset()
		for i := 0; i < 2; i++ {
			pr.l1i[i].Reset()
			pr.l1d[i].Reset()
			for d := 0; d < 2; d++ {
				pr.l2[i][d].Reset()
			}
		}
		pr.uc.Reset()
		pr.gran.reset()
		clear(pr.regReady[:])
		pr.rings = ilpRings{}
		pr.lastFetchLine = 0
		pr.inorderT, pr.seq, pr.totalLen = 0, 0, 0
		pr.mispredict = [NumPredictors]int64{}
		pr.prevCmp, pr.prevIdx, pr.lastLat = false, 0, 0
	}
	pr.missPos = [2]int64{-1 << 40, -1 << 40}
	pr.missGrp = [2]int64{}
	pr.busy = 0
	pr.pd = pd
	pr.prof = &Profile{
		Name:          pd.P.Name,
		X86Complexity: pd.P.FS.Complexity == isa.FullX86,
		Stats:         pd.P.Stats,
		StaticInstrs:  len(pd.P.Instrs),
		CodeBytes:     pd.P.Size,
	}
	return pr
}

// release returns the profiler's scratch to the pool. The finished Profile
// is independent of the scratch and stays valid.
func (pr *profiler) release() {
	pr.pd, pr.prof = nil, nil
	profilerPool.Put(pr)
}

// consumeBatch is the run loop's sink: it feeds a batch of executed events,
// in program order, and adds the time it took to pr.busy, with one pair of
// clock reads per batch.
func (pr *profiler) consumeBatch(evs []Event) {
	start := time.Now()
	for i := range evs {
		pr.consume(&evs[i])
	}
	pr.busy += time.Since(start)
}

// consume feeds one executed instruction.
func (pr *profiler) consume(ev *Event) {
	pd := pr.pd
	pf := pd.pflags[ev.Idx]
	prof := pr.prof
	prof.Instrs++
	prof.Uops += int64(ev.Uops)
	pr.totalLen += int64(ev.Len)
	if ev.IsLoad {
		prof.Loads++
	}
	if ev.IsStore {
		prof.Stores++
	}
	if pf&pfMemALU != 0 {
		prof.MemALUOps++
	}

	// Caches: fetch side per line transition, data side per access. The
	// fetch-line filter is hoisted out of the hierarchy loop — all eight
	// hierarchies see the same stream, so the transition test is shared.
	fetchLine := uint64(ev.PC) / cacheLineBytes
	newLine := fetchLine != pr.lastFetchLine
	pr.lastFetchLine = fetchLine
	dataAccess := (ev.IsLoad || ev.IsStore) && !ev.PredOff
	if newLine || dataAccess {
		// One lookup per distinct L1 option decides the hit for every
		// hierarchy sharing it. An access that hits every L1 it looks up
		// touches no L2 and no miss counter, so only a miss walks the
		// hierarchies.
		hitI, hitD := [2]bool{true, true}, [2]bool{true, true}
		if newLine {
			hitI[0] = pr.l1i[0].Access(uint64(ev.PC))
			hitI[1] = pr.l1i[1].Access(uint64(ev.PC))
		}
		if dataAccess {
			hitD[0] = pr.l1d[0].Access(ev.MemAddr)
			hitD[1] = pr.l1d[1].Access(ev.MemAddr)
			if hitD[0] {
				pr.lastLat = LatL1 // the reference hierarchy's L1D is option 0
			}
		}
		if !(hitI[0] && hitI[1] && hitD[0] && hitD[1]) {
			pr.missAccess(ev, hitI, hitD)
		}
	}

	// Micro-op cache (hit/miss accounting lives in the cache itself).
	pr.uc.Access(ev.PC, int(ev.Uops))

	// Branch predictors (and macro-fusion pairing).
	if pf&pfJCC != 0 {
		if pr.prevCmp && ev.Idx == pr.prevIdx+1 {
			prof.FusedBranches++
		}
		prof.Branches++
		pc, taken := ev.PC, ev.Taken
		if taken {
			prof.Taken++
		}
		if pr.local.Predict(pc) != taken {
			pr.mispredict[PredLocal]++
		}
		pr.local.Update(pc, taken)
		if pr.gshare.Predict(pc) != taken {
			pr.mispredict[PredGShare]++
		}
		pr.gshare.Update(pc, taken)
		if pr.tourn.Predict(pc) != taken {
			pr.mispredict[PredTournament]++
		}
		pr.tourn.Update(pc, taken)
	}

	pr.prevCmp = pf&pfCmp != 0
	pr.prevIdx = ev.Idx

	// Dependence-limited ILP at each window size, walking the static
	// micro-op templates in place: the event supplies the address, size
	// and (for tmplMemDyn) the load/store truth, as Predecoded.expand does.
	off := int(pd.tmplOff[ev.Idx])
	tmpls := pd.tmpls[off : off+int(pd.tmplCnt[ev.Idx])]
	if ev.PredOff {
		prof.PredOffUops += int64(len(tmpls))
	}
	for ti := range tmpls {
		tm := &tmpls[ti]
		var isLoad, isStore bool
		switch tm.memKind {
		case tmplMemFold:
			isLoad = true
		case tmplMemDyn:
			isLoad, isStore = ev.IsLoad, ev.IsStore
		}
		prof.UopsByClass[tm.class]++
		lat := classLat[tm.class]
		if isLoad {
			lat = LatL1
		}
		// Memory dependences (store-to-load, e.g. spill traffic). Granule
		// chunks hold one timestamp per lane; ensure every granule before
		// fetching any chunk, because an insert may grow the table and
		// move previously fetched blocks.
		memTracked := (isLoad || isStore) && !ev.PredOff
		var chunks [3]*lanes
		ngran := 0
		if memTracked {
			sz := uint64(ev.MemSz)
			if sz == 0 {
				sz = 8
			}
			first := ev.MemAddr >> 3
			last := (ev.MemAddr + sz - 1) >> 3
			if first == last {
				chunks[0] = (*lanes)(pr.gran.ensureFind(first))
				ngran = 1
			} else {
				for g := first; g <= last; g++ {
					pr.gran.ensure(g)
				}
				for g := first; g <= last; g++ {
					chunks[ngran] = (*lanes)(pr.gran.find(g))
					ngran++
				}
			}
		}
		// Operand-ready time per lane, folded in locals: t0..t4 are the
		// windows' lanes, t5 the in-order chain (which starts at program
		// order), t6 the real-latency chain. A dep's lanes are one row of
		// regReady; lanes touch disjoint state, so reading them all before
		// any lane writes is equivalent to the per-lane interleaving.
		t0, t1, t2, t3, t4, t5, t6 := int64(0), int64(0), int64(0), int64(0), int64(0), pr.inorderT, int64(0)
		for _, src := range tm.srcs[:tm.nsrcs] {
			r := &pr.regReady[src]
			t0, t1, t2, t3 = max(t0, r[0]), max(t1, r[1]), max(t2, r[2]), max(t3, r[3])
			t4, t5, t6 = max(t4, r[4]), max(t5, r[5]), max(t6, r[6])
		}
		if memTracked && isLoad {
			for _, r := range chunks[:ngran] {
				t0, t1, t2, t3 = max(t0, r[0]), max(t1, r[1]), max(t2, r[2]), max(t3, r[3])
				t4, t5, t6 = max(t4, r[4]), max(t5, r[5]), max(t6, r[6])
			}
		}
		// Window constraint: the uop W back must have completed.
		s, rg := uint64(pr.seq), &pr.rings
		c0 := max(t0, rg.w16[s%16]) + lat
		rg.w16[s%16] = c0
		c1 := max(t1, rg.w32[s%32]) + lat
		rg.w32[s%32] = c1
		c2 := max(t2, rg.w64[s%64]) + lat
		rg.w64[s%64] = c2
		c3 := max(t3, rg.w128[s%128]) + lat
		rg.w128[s%128] = c3
		c4 := max(t4, rg.w256[s%256]) + lat
		rg.w256[s%256] = c4
		// Strict in-order issue (scoreboard): ready ∩ program order.
		c5 := t5 + lat
		pr.inorderT = t5 // next uop may issue same cycle (width modeled later)
		// Real-latency chain at a 128-uop window on the reference
		// hierarchy, for the dependence-aware memory-overlap measure.
		rlat := lat
		if isLoad && !ev.PredOff {
			rlat = pr.lastLat
		}
		c6 := max(t6, rg.real[s%ringRealLen]) + rlat
		rg.real[s%ringRealLen] = c6
		if tm.dst >= 0 {
			setLanes(&pr.regReady[tm.dst], c0, c1, c2, c3, c4, c5, c6)
		}
		if tm.dstFlag {
			setLanes(&pr.regReady[depFlags], c0, c1, c2, c3, c4, c5, c6)
		}
		if memTracked && isStore {
			for _, ch := range chunks[:ngran] {
				setLanes(ch, c0, c1, c2, c3, c4, c5, c6)
			}
		}
		pr.seq++
	}
}

// missAccess walks the eight hierarchies for an event that missed at least
// one L1 it looked up (hitI/hitD are true for L1s not looked up): L1 miss
// counts, the per-(i, d) L2 stacks (instruction access before data access,
// as in each hierarchy), L2 misses per option, the reference hierarchy's
// data latency on an L1D miss, and miss clustering.
func (pr *profiler) missAccess(ev *Event, hitI, hitD [2]bool) {
	for i := 0; i < 2; i++ {
		for d := 0; d < 2; d++ {
			mps, l2 := &pr.prof.Mem[i][d], pr.l2[i][d]
			if !hitI[i] {
				for l := range mps {
					mps[l].L1IMisses++
				}
				l2.Access(uint64(ev.PC))
			}
			if hitD[d] {
				continue
			}
			rank := l2.accessRank(ev.MemAddr)
			for l, cfg := range L2Options {
				mps[l].L1DMisses++
				hit := rank >= 0 && rank < cfg.Assoc
				if !hit {
					mps[l].L2Misses++
				}
				if i == 0 && d == 0 && l == 0 {
					if hit {
						pr.lastLat = LatL2
					} else {
						pr.lastLat = LatMem
					}
				}
			}
		}
	}
	// Miss clustering for MLP depends only on the L1D option.
	uops := pr.prof.Uops
	for d := 0; d < 2; d++ {
		if hitD[d] {
			continue
		}
		if uops-pr.missPos[d] > 64 {
			pr.missGrp[d]++
		}
		pr.missPos[d] = uops
	}
}

// Finish finalizes the profile.
func (pr *profiler) Finish() *Profile {
	prof := pr.prof
	if prof.Instrs > 0 {
		prof.AvgInstrLen = float64(pr.totalLen) / float64(prof.Instrs)
	}
	for k := range pr.mispredict {
		rate := 0.0
		if prof.Branches > 0 {
			rate = float64(pr.mispredict[k]) / float64(prof.Branches)
		}
		prof.MispredictRate[k] = rate
	}
	for wi, ring := range pr.rings.windows() {
		// Completion horizon = max entry in the ring.
		maxT := int64(1)
		for _, t := range ring {
			if t > maxT {
				maxT = t
			}
		}
		prof.IPCWindow[wi] = float64(prof.Uops) / float64(maxT)
	}
	// In-order horizon: max regReady on the in-order lane.
	maxT := pr.inorderT + 1
	for r := 0; r < numDeps; r++ {
		if t := pr.regReady[r][laneInOrd]; t > maxT {
			maxT = t
		}
	}
	prof.IPCInOrder = float64(prof.Uops) / float64(maxT)
	if pr.uc.Accesses > 0 {
		prof.UopCacheHitRate = pr.uc.HitRate()
	}
	// Memory-overlap measurement: real-latency horizon minus the fixed-L1
	// horizon of the same (128-uop) window.
	realMax := int64(1)
	for _, t := range pr.rings.real {
		if t > realMax {
			realMax = t
		}
	}
	l1Horizon := float64(prof.Uops) / prof.IPCWindow[ilpRefWindow]
	exposed := float64(realMax) - l1Horizon
	if exposed < 0 {
		exposed = 0
	}
	prof.MemExposedCycles = exposed
	ref := prof.Mem[0][0][0]
	prof.NaiveStallRef = float64(ref.L1DMisses-ref.L2Misses)*float64(LatL2-LatL1) +
		float64(ref.L2Misses)*float64(LatMem-LatL1)
	for i := 0; i < 2; i++ {
		for d := 0; d < 2; d++ {
			for l := 0; l < 2; l++ {
				mp := &prof.Mem[i][d][l]
				if pr.missGrp[d] > 0 {
					mp.DataMLP = float64(mp.L1DMisses) / float64(pr.missGrp[d])
					if mp.DataMLP < 1 {
						mp.DataMLP = 1
					}
				} else {
					mp.DataMLP = 1
				}
			}
		}
	}
	return prof
}

// CollectProfile runs the program functionally and returns its profile.
func CollectProfile(p *code.Program, m *mem.Memory, maxInstrs int64) (*Profile, ExecResult, error) {
	return CollectProfileOpts(p, m, RunOptions{MaxInstrs: maxInstrs})
}

// CollectProfileOpts is CollectProfile with watchdog and interrupt control,
// so profile collection honors deadlines and cancellation mid-execution.
func CollectProfileOpts(p *code.Program, m *mem.Memory, opts RunOptions) (*Profile, ExecResult, error) {
	prof, res, _, err := CollectProfileTimed(p, m, opts)
	return prof, res, err
}

// CollectProfileTimed is CollectProfileOpts that also returns the
// profiler's share of the run: the time spent consuming events, timed per
// batch. The rest of the run is functional execution and setup.
func CollectProfileTimed(p *code.Program, m *mem.Memory, opts RunOptions) (*Profile, ExecResult, time.Duration, error) {
	pd := Predecode(p)
	granHint := m.Pages() * mem.PageSize / 8
	pr := newProfiler(pd, granHint)
	defer pr.release()
	res, err := pr.run(NewState(m), opts, pr.consumeBatch)
	if err != nil {
		return nil, res, pr.busy, err
	}
	return pr.Finish(), res, pr.busy, nil
}

// run executes pr's program from st, handing every batch of events to sink
// through pr's buffer. sink is pr.consumeBatch, or a wrapper around it
// that also observes the events.
func (pr *profiler) run(st *State, opts RunOptions, sink func([]Event)) (ExecResult, error) {
	return runBatched(pr.pd, st, opts, pr.batch[:], sink)
}
