package cpu

// CacheCfg describes one cache of the exploration space (Table I).
type CacheCfg struct {
	SizeKB int
	Assoc  int
	Banks  int // >1 only for the shared L2
}

// Standard options from Table I.
var (
	L1Cfg32k = CacheCfg{SizeKB: 32, Assoc: 4}
	L1Cfg64k = CacheCfg{SizeKB: 64, Assoc: 4}
	// Per-CMP shared L2 options; a 4-core CMP gives each core a quarter
	// of the capacity on average, which is what the paper's per-core
	// tables list as 1MB/4 and 2MB/8.
	L2Cfg4M = CacheCfg{SizeKB: 4096, Assoc: 4, Banks: 4}
	L2Cfg8M = CacheCfg{SizeKB: 8192, Assoc: 8, Banks: 4}
)

// PerCoreKB returns the per-core share of a shared cache in a 4-core CMP.
func (c CacheCfg) PerCoreKB() int {
	if c.Banks > 1 {
		return c.SizeKB / 4
	}
	return c.SizeKB
}

const cacheLineBytes = 64

// Cache is a set-associative LRU cache model. Reset invalidates it in O(1)
// by bumping an epoch floor instead of clearing the (megabyte-scale, for the
// L2 options) tag and stamp arrays, which is what makes pooling profiler
// scratch across passes cheap: a line is live only while its use stamp is
// above the floor.
type Cache struct {
	sets  int
	assoc int
	mask  uint64   // sets-1 when sets is a power of two, else 0
	tags  []uint64 // sets*assoc, 0 = invalid (tag stored +1)
	lru   []uint32 // per-line last-use stamp
	stamp uint32
	base  uint32 // epoch floor: entries with lru <= base are stale

	Accesses int64
	Misses   int64
}

// NewCache builds a cache with 64-byte lines.
func NewCache(cfg CacheCfg) *Cache {
	lines := cfg.SizeKB * 1024 / cacheLineBytes
	sets := lines / cfg.Assoc
	if sets < 1 {
		sets = 1
	}
	c := &Cache{
		sets:  sets,
		assoc: cfg.Assoc,
		tags:  make([]uint64, sets*cfg.Assoc),
		lru:   make([]uint32, sets*cfg.Assoc),
	}
	if sets&(sets-1) == 0 {
		c.mask = uint64(sets - 1)
	}
	return c
}

// Reset invalidates every line and zeroes the counters without touching the
// backing arrays. Amortized O(1): only when the 32-bit stamp space is half
// used does it fall back to a full clear.
func (c *Cache) Reset() {
	c.Accesses, c.Misses = 0, 0
	if c.stamp >= 1<<31 {
		clear(c.tags)
		clear(c.lru)
		c.stamp, c.base = 0, 0
		return
	}
	c.base = c.stamp
}

// locate bumps the access counters and returns the first way of addr's set
// and addr's stored tag.
func (c *Cache) locate(addr uint64) (base int, tag uint64) {
	c.Accesses++
	c.stamp++
	line := addr / cacheLineBytes
	var set int
	if c.mask != 0 {
		set = int(line & c.mask)
	} else {
		set = int(line % uint64(c.sets))
	}
	return set * c.assoc, line + 1
}

// Access looks up addr, fills on miss, and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	base, tag := c.locate(addr)
	epoch := c.base
	// Hit scan first: the common case touches only tags and use stamps.
	// tag >= 1 always, so a tag match implies the slot is not empty.
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == tag && c.lru[i] > epoch {
			c.lru[i] = c.stamp
			return true
		}
	}
	c.fill(base, tag)
	return false
}

// accessRank is Access for a cache that stands in for several
// associativities at once: it returns the hit line's recency rank in its
// set (0 = most recently used) before this access, or -1 on a miss. Under
// LRU a cache with the same set count and assoc a ≤ c.assoc holds exactly
// the a most recent lines of each set, so it hits iff 0 ≤ rank < a.
func (c *Cache) accessRank(addr uint64) int {
	base, tag := c.locate(addr)
	epoch := c.base
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == tag && c.lru[i] > epoch {
			// Every line used after this one was filled or touched after
			// the epoch floor, so it is live; stamps are unique.
			s, rank := c.lru[i], 0
			for j := base; j < base+c.assoc; j++ {
				if c.lru[j] > s {
					rank++
				}
			}
			c.lru[i] = c.stamp
			return rank
		}
	}
	c.fill(base, tag)
	return -1
}

// fill installs tag in the set starting at base after a miss.
func (c *Cache) fill(base int, tag uint64) {
	epoch := c.base
	// Pick the victim exactly as the combined scan did — the last invalid
	// way if any, else the first way with the strictly smallest use stamp.
	victim := base
	oldest := c.lru[base]
	if c.tags[base] == 0 || c.lru[base] <= epoch {
		oldest = 0
	}
	for w := 0; w < c.assoc; w++ {
		i := base + w
		valid := c.tags[i] != 0 && c.lru[i] > epoch
		eff := uint32(0)
		if valid {
			eff = c.lru[i]
		}
		if eff < oldest || !valid {
			if !valid {
				victim, oldest = i, 0
			} else {
				victim, oldest = i, eff
			}
		}
	}
	c.Misses++
	c.tags[victim] = tag
	c.lru[victim] = c.stamp
}

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Hierarchy is one core's view of the memory system: private L1I/L1D and a
// (possibly shared) L2.
type Hierarchy struct {
	L1I, L1D *Cache
	L2       *Cache

	lastFetchLine uint64 // fetch-stream line filter used by the profiler
}

// NewHierarchy builds a single-core hierarchy.
func NewHierarchy(l1i, l1d, l2 CacheCfg) *Hierarchy {
	return &Hierarchy{L1I: NewCache(l1i), L1D: NewCache(l1d), L2: NewCache(l2)}
}

// Reset invalidates all three levels and the fetch-stream filter, returning
// the hierarchy to its as-constructed state without reallocating.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.lastFetchLine = 0
}

// Latencies of the memory system in cycles.
const (
	LatL1  = 3
	LatL2  = 14
	LatL3  = 0 // no L3 in the design space
	LatMem = 140
)

// DataAccess performs a data access and returns its latency in cycles.
func (h *Hierarchy) DataAccess(addr uint64) int {
	if h.L1D.Access(addr) {
		return LatL1
	}
	if h.L2.Access(addr) {
		return LatL2
	}
	return LatMem
}

// FetchAccess performs an instruction-fetch access and returns its latency.
func (h *Hierarchy) FetchAccess(addr uint64) int {
	if h.L1I.Access(addr) {
		return 0 // pipelined hit
	}
	if h.L2.Access(addr) {
		return LatL2
	}
	return LatMem
}

// UopCache models the decoded micro-op cache (Section V, [106]-[108]): 32
// sets x 8 ways of up to 6 micro-ops per 32-byte fetch window. A hit streams
// micro-ops without activating the ILD and legacy decoders.
type UopCache struct {
	sets, ways, perLine int
	tags                []uint64
	lru                 []uint32
	stamp               uint32
	base                uint32 // epoch floor, as in Cache

	// Last-window memo: instruction streams run sequentially within a
	// 32-byte fetch window, so most accesses repeat the previous window.
	// After a hit or a fill, the window's slot holds the newest stamp, so
	// nothing can evict it before the next access — a repeat is always a
	// hit at the same slot and can skip the scan. lastTag == 0 means no
	// memo (tags are stored +1, so 0 never matches).
	lastTag  uint64
	lastSlot int

	Accesses int64
	Misses   int64
}

// NewUopCache builds the standard 1.5K-uop cache.
func NewUopCache() *UopCache {
	return &UopCache{sets: 32, ways: 8, perLine: 6,
		tags: make([]uint64, 32*8), lru: make([]uint32, 32*8)}
}

// Reset invalidates every window and zeroes the counters in O(1) by bumping
// the epoch floor (see Cache.Reset).
func (u *UopCache) Reset() {
	u.Accesses, u.Misses = 0, 0
	u.lastTag, u.lastSlot = 0, 0
	if u.stamp >= 1<<31 {
		clear(u.tags)
		clear(u.lru)
		u.stamp, u.base = 0, 0
		return
	}
	u.base = u.stamp
}

const uopWindowBytes = 32

// Access looks up the fetch window containing pc, and reports whether
// decoded micro-ops can stream from the cache. nuops is the window's
// micro-op count contribution used to model capacity (windows needing more
// than 6 micro-ops cannot be cached, as on real hardware).
func (u *UopCache) Access(pc uint32, nuops int) bool {
	u.Accesses++
	u.stamp++
	if nuops > u.perLine {
		u.Misses++
		return false
	}
	win := uint64(pc / uopWindowBytes)
	tag := win + 1
	if tag == u.lastTag {
		u.lru[u.lastSlot] = u.stamp
		return true
	}
	set := int(win % uint64(u.sets))
	base := set * u.ways
	epoch := u.base
	// Hit scan first, as in Cache.Access; tag >= 1, so a match implies a
	// live slot.
	for i := base; i < base+u.ways; i++ {
		if u.tags[i] == tag && u.lru[i] > epoch {
			u.lru[i] = u.stamp
			u.lastTag, u.lastSlot = tag, i
			return true
		}
	}
	victim, oldest := base, u.lru[base]
	if u.tags[base] == 0 || u.lru[base] <= epoch {
		oldest = 0
	}
	for w := 0; w < u.ways; w++ {
		i := base + w
		valid := u.tags[i] != 0 && u.lru[i] > epoch
		if !valid {
			victim, oldest = i, 0
		} else if u.lru[i] < oldest {
			victim, oldest = i, u.lru[i]
		}
	}
	u.Misses++
	u.tags[victim] = tag
	u.lru[victim] = u.stamp
	u.lastTag, u.lastSlot = tag, victim
	return false
}

// HitRate returns the fraction of window accesses served from the cache.
func (u *UopCache) HitRate() float64 {
	if u.Accesses == 0 {
		return 0
	}
	return 1 - float64(u.Misses)/float64(u.Accesses)
}
