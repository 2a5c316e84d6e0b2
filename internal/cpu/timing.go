package cpu

import (
	"compisa/internal/code"
)

// TimingResult is the cycle-level outcome of a timing simulation.
type TimingResult struct {
	Cycles      int64
	Instrs      int64
	Uops        int64
	Mispredicts int64
	Branches    int64

	L1IAccesses, L1IMisses int64
	L1DAccesses, L1DMisses int64
	L2Accesses, L2Misses   int64

	UopCacheAccesses  int64
	UopCacheHits      int64
	DecodeActivations int64 // legacy-decode pipeline activations (ILD on)

	UopsByClass [NumUopClasses]int64
	PredOffUops int64
}

// IPC returns retired micro-ops per cycle.
func (r TimingResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Uops) / float64(r.Cycles)
}

// MPKI returns branch mispredictions per kilo-instruction.
func (r TimingResult) MPKI() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return 1000 * float64(r.Mispredicts) / float64(r.Instrs)
}

// Register-id space for dependence tracking: integer registers 0..63, FP
// 64..79, flags 80, the transient micro-op temp of a load+op pair 81.
const (
	depFPBase  = 64
	depFlags   = 80
	depMemTemp = 81
	numDeps    = 82
)

// Timing is a trace-driven cycle-approximate simulator of one core. Feed it
// the functional executor's event stream and read Result at the end. It
// models front-end supply (I-cache, micro-op cache, ILD/legacy decode
// bandwidth), branch prediction and misprediction redirect, register and
// flag dependences, structural limits (issue width, IQ, ROB, LSQ, functional
// units), and the data cache hierarchy, for both in-order and out-of-order
// cores.
type Timing struct {
	p    *code.Program
	pd   *Predecoded
	cfg  CoreConfig
	pred Predictor
	hier *Hierarchy
	uc   *UopCache
	res  TimingResult

	// front-end state
	fetchCycle int64 // cycle the next uop can be delivered
	slotsLeft  int   // delivery slots remaining in fetchCycle
	lastLine   uint64
	redirectAt int64 // front-end blocked until this cycle after mispredict
	prevWasCmp bool  // macro-fusion window

	// backend state
	regReady   [numDeps]int64 // completion cycle of last writer
	fu         [NumUopClasses][]int64
	seq        int64
	ring       []ringEnt // recent uops, indexed by seq % len
	memRing    []int64   // issue cycles of recent mem uops (LSQ model)
	memSeq     int64
	lastRetire int64
	// memDep tracks store completion per 8-byte granule so dependent
	// loads (e.g. spill refills of a just-stored value) serialize.
	memDep *granTab
}

type ringEnt struct {
	retire int64
	issue  int64
}

// newTimingPre builds a timing simulator over an existing predecode, so
// RunTimed shares one Predecoded between executor and timing walk.
func newTimingPre(pd *Predecoded, cfg CoreConfig) *Timing {
	t := &Timing{
		p:    pd.P,
		pd:   pd,
		cfg:  cfg,
		pred: NewPredictor(cfg.Predictor),
		hier: NewHierarchy(cfg.L1I, cfg.L1D, cfg.L2),
		ring: make([]ringEnt, 1024),
	}
	if cfg.UopCache {
		t.uc = NewUopCache()
	}
	t.fu[UcInt] = make([]int64, cfg.IntALU)
	t.fu[UcMul] = make([]int64, cfg.IntMul)
	t.fu[UcFP] = make([]int64, cfg.FPALU)
	t.fu[UcFDiv] = t.fu[UcFP] // divides share the FP units
	t.fu[UcLoad] = make([]int64, 2)
	t.fu[UcStore] = make([]int64, 1)
	t.fu[UcBranch] = make([]int64, 1)
	t.memRing = make([]int64, cfg.LSQ)
	t.memDep = newGranTab(1, 0)
	return t
}

// classOf maps an op to its execution class.
func classOf(op code.Op) UopClass {
	switch op {
	case code.IMUL, code.VMULI:
		return UcMul
	case code.FADD, code.FSUB, code.FMUL, code.FCMP, code.CVTIF, code.CVTFI,
		code.VADDF, code.VSUBF, code.VMULF, code.VADDI, code.VSUBI,
		code.VSPLAT, code.VRSUM, code.FMOV:
		return UcFP
	case code.FDIV:
		return UcFDiv
	case code.LD, code.FLD, code.VLD:
		return UcLoad
	case code.ST, code.FST, code.VST:
		return UcStore
	case code.JCC, code.JMP, code.RET:
		return UcBranch
	default:
		return UcInt
	}
}

// uopSpec is one micro-op of a macro-op, described for dependence tracking.
type uopSpec struct {
	class   UopClass
	srcs    [5]int16
	nsrcs   int
	dst     int16 // -1 none
	dstFlag bool
	isLoad  bool
	isStore bool
	addr    uint64
	msz     uint8
}

func depInt(r code.Reg) int16 { return int16(r) }
func depFP(r code.Reg) int16  { return int16(depFPBase + int(r)) }

// expand decomposes the macro instruction at ev into micro-ops.
func expand(in *code.Instr, ev *Event, buf []uopSpec) []uopSpec {
	buf = buf[:0]
	addSrc := func(u *uopSpec, d int16) {
		if u.nsrcs < len(u.srcs) {
			u.srcs[u.nsrcs] = d
			u.nsrcs++
		}
	}
	mainDst := int16(-1)
	if in.Dst != code.NoReg {
		if in.Op.IsFP() {
			mainDst = depFP(in.Dst)
		} else if in.Op.IntDst() {
			mainDst = depInt(in.Dst)
		}
	}

	var main uopSpec
	main.class = classOf(in.Op)
	main.dst = mainDst

	// Memory micro-op: either the instruction itself is a load/store, or
	// a folded load feeds the compute micro-op.
	if in.MemSrcALU() {
		var ld uopSpec
		ld.class = UcLoad
		ld.isLoad = true
		ld.addr = ev.MemAddr
		ld.msz = ev.MemSz
		if in.Mem.Base != code.NoReg {
			addSrc(&ld, depInt(in.Mem.Base))
		}
		if in.Mem.Index != code.NoReg {
			addSrc(&ld, depInt(in.Mem.Index))
		}
		ld.dst = depMemTemp
		buf = append(buf, ld)
		addSrc(&main, depMemTemp)
	} else if in.HasMem {
		if in.Mem.Base != code.NoReg {
			addSrc(&main, depInt(in.Mem.Base))
		}
		if in.Mem.Index != code.NoReg {
			addSrc(&main, depInt(in.Mem.Index))
		}
		main.isLoad = ev.IsLoad
		main.isStore = ev.IsStore
		main.addr = ev.MemAddr
		main.msz = ev.MemSz
	}

	// Register sources.
	dep := depInt
	if in.Op.FPSources() {
		dep = depFP
	}
	if in.Src1 != code.NoReg {
		addSrc(&main, dep(in.Src1))
	}
	if in.Src2 != code.NoReg {
		addSrc(&main, dep(in.Src2))
	}
	if in.Op.ReadsFlags() {
		addSrc(&main, depFlags)
	}
	if in.Op.WritesFlags() {
		main.dstFlag = true
	}
	if in.Pred != code.NoReg {
		addSrc(&main, depInt(in.Pred))
		// Predicated merge reads the prior destination.
		if mainDst >= 0 {
			addSrc(&main, mainDst)
		}
	}
	if in.Op == code.CMOVCC && mainDst >= 0 {
		addSrc(&main, mainDst)
	}
	return append(buf, main)
}

// Consume feeds one executed macro-instruction into the timing model.
func (t *Timing) Consume(ev *Event) {
	in := &t.p.Instrs[ev.Idx]
	t.res.Instrs++

	// ---- Front end: instruction supply. ----
	line := uint64(ev.PC) / cacheLineBytes
	if line != t.lastLine {
		t.lastLine = line
		t.res.L1IAccesses++
		lat := t.hier.FetchAccess(uint64(ev.PC))
		if lat > 0 {
			t.res.L1IMisses++
			t.fetchCycle += int64(lat)
			t.slotsLeft = 0
		}
	}
	if t.redirectAt > t.fetchCycle {
		t.fetchCycle = t.redirectAt
		t.slotsLeft = 0
	}

	// Micro-op cache / legacy decode bandwidth.
	slots := int(ev.Uops)
	fromUC := false
	if t.uc != nil {
		t.res.UopCacheAccesses++
		if t.uc.Access(ev.PC, int(ev.Uops)) {
			t.res.UopCacheHits++
			fromUC = true
		} else {
			t.res.DecodeActivations++
		}
	} else {
		t.res.DecodeActivations++
	}
	if t.cfg.Fusion {
		// Micro-op fusion: a load+op pair occupies one delivery slot.
		if in.MemSrcALU() {
			slots = 1
		}
		// Macro-op fusion: CMP+JCC pairs share a slot.
		if in.Op == code.JCC && t.prevWasCmp {
			slots = 0
		}
	}
	t.prevWasCmp = in.Op == code.CMP || in.Op == code.TEST

	deliverWidth := t.cfg.Width
	if !fromUC {
		// Legacy decode path: ILD processes 16 bytes/cycle and the
		// decoders sustain at most 3 macro-ops/cycle.
		if deliverWidth > 3 {
			deliverWidth = 3
		}
		if int(ev.Len) > 8 && deliverWidth > 2 {
			deliverWidth = 2 // long (prefix-heavy) instructions decode slower
		}
	}
	deliver := t.fetchCycle
	for s := 0; s < slots; s++ {
		if t.slotsLeft <= 0 {
			t.fetchCycle++
			t.slotsLeft = deliverWidth
			deliver = t.fetchCycle
		}
		t.slotsLeft--
	}

	// ---- Branch prediction. ----
	mispredicted := false
	if in.Op == code.JCC {
		t.res.Branches++
		pred := t.pred.Predict(ev.PC)
		t.pred.Update(ev.PC, ev.Taken)
		if pred != ev.Taken {
			t.res.Mispredicts++
			mispredicted = true
		}
	}

	// ---- Back end. ----
	var buf [3]uopSpec
	uops := t.pd.expand(ev, buf[:0])
	var lastComp int64
	for ui := range uops {
		u := &uops[ui]
		t.res.Uops++
		t.res.UopsByClass[u.class]++
		if ev.PredOff {
			t.res.PredOffUops++
		}

		var issue, comp int64
		if t.cfg.OoO {
			issue, comp = t.oooIssue(u, deliver)
		} else {
			issue, comp = t.inorderIssue(u, deliver)
		}

		// Writeback.
		if u.dst >= 0 {
			t.regReady[u.dst] = comp
		}
		if u.dstFlag {
			t.regReady[depFlags] = comp
		}

		// Retirement (in order).
		ret := comp
		if ret < t.lastRetire {
			ret = t.lastRetire
		}
		idx := t.seq % int64(len(t.ring))
		t.ring[idx] = ringEnt{retire: ret, issue: issue}
		t.lastRetire = ret
		t.seq++

		if u.isLoad || u.isStore {
			// An LSQ entry is held until the access completes (data
			// return for loads), not merely until issue.
			t.memRing[t.memSeq%int64(len(t.memRing))] = comp
			t.memSeq++
		}
		lastComp = comp
	}

	// Mispredicted branch: the front end resumes after the branch
	// resolves (its completion) plus one redirect cycle; the refilled
	// FrontendDepth stages then add the rest of the penalty.
	if mispredicted {
		t.redirectAt = lastComp + 1
	}
}

func (t *Timing) oooIssue(u *uopSpec, deliver int64) (issue, comp int64) {
	disp := deliver + FrontendDepth
	// ROB occupancy: dispatch waits for the entry ROB positions back to
	// retire.
	if t.seq >= int64(t.cfg.ROB) {
		if r := t.ring[(t.seq-int64(t.cfg.ROB))%int64(len(t.ring))].retire; r+1 > disp {
			disp = r + 1
		}
	}
	// IQ occupancy: approximate by requiring the uop IQ positions back to
	// have issued.
	if t.seq >= int64(t.cfg.IQ) {
		if r := t.ring[(t.seq-int64(t.cfg.IQ))%int64(len(t.ring))].issue; r+1 > disp {
			disp = r + 1
		}
	}
	// LSQ occupancy.
	if (u.isLoad || u.isStore) && t.memSeq >= int64(t.cfg.LSQ) {
		if r := t.memRing[t.memSeq%int64(len(t.memRing))]; r+1 > disp {
			disp = r + 1
		}
	}
	issue = disp
	for i := 0; i < u.nsrcs; i++ {
		if r := t.regReady[u.srcs[i]]; r > issue {
			issue = r
		}
	}
	if u.isLoad {
		forEachGranule(u.addr, u.msz, func(g uint64) {
			if r := t.memDep.get(g); r > issue {
				issue = r
			}
		})
	}
	// Functional unit.
	fus := t.fu[u.class]
	best := 0
	for i := 1; i < len(fus); i++ {
		if fus[i] < fus[best] {
			best = i
		}
	}
	if fus[best] > issue {
		issue = fus[best]
	}
	occupy := int64(1)
	if u.class == UcFDiv {
		occupy = int64(latOf(UcFDiv))
	}
	fus[best] = issue + occupy

	lat := int64(latOf(u.class))
	if u.isLoad {
		lat = int64(t.hier.DataAccess(u.addr))
		t.res.L1DAccesses++
		if lat > LatL1 {
			t.res.L1DMisses++
		}
		if lat >= LatMem {
			t.res.L2Misses++
		}
	}
	if u.isStore {
		t.hier.L1D.Access(u.addr)
		t.res.L1DAccesses++
	}
	comp = issue + lat
	if u.isStore {
		c := comp
		forEachGranule(u.addr, u.msz, func(g uint64) { t.memDep.put(g, c) })
	}
	return issue, comp
}

func (t *Timing) inorderIssue(u *uopSpec, deliver int64) (issue, comp int64) {
	issue = deliver + FrontendDepth/2
	// Program order with issue width: the uop Width positions back must
	// have issued strictly earlier.
	if t.seq >= int64(t.cfg.Width) {
		if r := t.ring[(t.seq-int64(t.cfg.Width))%int64(len(t.ring))].issue; r+1 > issue {
			issue = r + 1
		}
	}
	if t.seq > 0 {
		if r := t.ring[(t.seq-1)%int64(len(t.ring))].issue; r > issue {
			issue = r // same cycle as predecessor allowed
		}
	}
	for i := 0; i < u.nsrcs; i++ {
		if r := t.regReady[u.srcs[i]]; r > issue {
			issue = r
		}
	}
	if u.isLoad {
		forEachGranule(u.addr, u.msz, func(g uint64) {
			if r := t.memDep.get(g); r > issue {
				issue = r
			}
		})
	}
	fus := t.fu[u.class]
	best := 0
	for i := 1; i < len(fus); i++ {
		if fus[i] < fus[best] {
			best = i
		}
	}
	if fus[best] > issue {
		issue = fus[best]
	}
	occupy := int64(1)
	if u.class == UcFDiv {
		occupy = int64(latOf(UcFDiv))
	}
	fus[best] = issue + occupy

	lat := int64(latOf(u.class))
	if u.isLoad {
		lat = int64(t.hier.DataAccess(u.addr))
		t.res.L1DAccesses++
		if lat > LatL1 {
			t.res.L1DMisses++
		}
		if lat >= LatMem {
			t.res.L2Misses++
		}
	}
	if u.isStore {
		t.hier.L1D.Access(u.addr)
		t.res.L1DAccesses++
	}
	comp = issue + lat
	if u.isStore {
		c := comp
		forEachGranule(u.addr, u.msz, func(g uint64) { t.memDep.put(g, c) })
	}
	return issue, comp
}

// Result finalizes and returns the simulation outcome.
func (t *Timing) Result() TimingResult {
	t.res.Cycles = t.lastRetire + 1
	t.res.L2Accesses = t.hier.L2.Accesses
	t.res.L2Misses = t.hier.L2.Misses
	return t.res
}

// RunTimed executes the program functionally while driving the timing model.
// Executor and timing walk share one predecode of the program.
func RunTimed(p *code.Program, st *State, cfg CoreConfig, maxInstrs int64) (ExecResult, TimingResult, error) {
	pd := Predecode(p)
	t := newTimingPre(pd, cfg)
	res, err := RunPredecoded(pd, st, RunOptions{MaxInstrs: maxInstrs}, t.Consume)
	if err != nil {
		return res, TimingResult{}, err
	}
	return res, t.Result(), nil
}

// forEachGranule visits the 8-byte granules covered by [addr, addr+sz).
func forEachGranule(addr uint64, sz uint8, f func(uint64)) {
	if sz == 0 {
		sz = 8
	}
	first := addr >> 3
	last := (addr + uint64(sz) - 1) >> 3
	for g := first; g <= last; g++ {
		f(g)
	}
}
