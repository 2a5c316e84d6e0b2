package cpu

// granTab is an open-addressed hash table from 8-byte memory-granule index
// to a fixed-stride block of int64 values. It replaces the map[uint64]
// dependency tracking in the profiler (stride = one slot per ILP lane) and
// the timing walk (stride 1), which profiling showed as a top allocation
// and hashing cost: per-granule map inserts dominated Consume.
//
// reset is O(1) via a generation counter, so a pooled profiler reuses the
// table across regions. Growth rehashes live entries; because a grow moves
// value blocks, callers that hold chunk slices across inserts must use the
// two-phase API: ensure() every granule of the instruction first, then
// find() (which never mutates) to fetch the chunks they write through.
type granTab struct {
	keys   []uint64
	gen    []uint32 // entry is live iff gen[i] == cur
	vals   []int64  // len(keys)*stride, block i at vals[i*stride:]
	stride int
	shift  uint   // 64 - log2(len(keys))
	mask   uint64 // len(keys) - 1
	cur    uint32
	n      int // live entries
}

// newGranTab builds a table with the given value stride. capHint is the
// expected number of distinct granules (e.g. region footprint / 8 bytes);
// the initial size is clamped to keep small regions cheap and huge hints
// from front-loading allocation that growth would amortize anyway.
func newGranTab(stride, capHint int) *granTab {
	size := 1 << 12
	for size < capHint*2 && size < 1<<16 {
		size <<= 1
	}
	t := &granTab{stride: stride, cur: 1}
	t.alloc(size)
	return t
}

func (t *granTab) alloc(size int) {
	t.keys = make([]uint64, size)
	t.gen = make([]uint32, size)
	t.vals = make([]int64, size*t.stride)
	t.mask = uint64(size - 1)
	shift := uint(64)
	for s := size; s > 1; s >>= 1 {
		shift--
	}
	t.shift = shift
}

// reset empties the table in O(1).
func (t *granTab) reset() {
	t.n = 0
	t.cur++
	if t.cur == 0 { // generation wrap: stale gen values could alias
		clear(t.gen)
		t.cur = 1
	}
}

func granHash(g uint64) uint64 { return g * 0x9E3779B97F4A7C15 }

// ensure makes a slot for granule g exist (zeroed on first touch) and may
// grow the table. It returns nothing on purpose: fetch the block with find
// only after every ensure of the current instruction is done.
func (t *granTab) ensure(g uint64) {
	t.slot(g)
}

// ensureFind is ensure followed by find in one probe, for callers that
// touch a single granule: the block stays valid until the next ensure or
// reset.
func (t *granTab) ensureFind(g uint64) []int64 {
	i := t.slot(g)
	return t.vals[i*t.stride : (i+1)*t.stride]
}

// slot is ensure returning the granule's slot index.
func (t *granTab) slot(g uint64) int {
	if t.n*4 >= len(t.keys)*3 {
		t.grow()
	}
	i := granHash(g) >> t.shift
	for {
		if t.gen[i] != t.cur {
			t.keys[i] = g
			t.gen[i] = t.cur
			// An index loop, not clear: blocks are a few words, too short
			// to pay for a memclr call.
			for j := int(i) * t.stride; j < (int(i)+1)*t.stride; j++ {
				t.vals[j] = 0
			}
			t.n++
			return int(i)
		}
		if t.keys[i] == g {
			return int(i)
		}
		i = (i + 1) & t.mask
	}
}

// find returns the value block for a granule previously passed to ensure.
// It never mutates the table, so the returned slice stays valid until the
// next ensure or reset.
func (t *granTab) find(g uint64) []int64 {
	i := granHash(g) >> t.shift
	for {
		if t.gen[i] == t.cur && t.keys[i] == g {
			return t.vals[int(i)*t.stride : (int(i)+1)*t.stride]
		}
		if t.gen[i] != t.cur {
			return nil
		}
		i = (i + 1) & t.mask
	}
}

// get returns the first value of g's block, or 0 when absent, without
// inserting — the read-side equivalent of a map lookup.
func (t *granTab) get(g uint64) int64 {
	i := granHash(g) >> t.shift
	for {
		if t.gen[i] == t.cur && t.keys[i] == g {
			return t.vals[int(i)*t.stride]
		}
		if t.gen[i] != t.cur {
			return 0
		}
		i = (i + 1) & t.mask
	}
}

// put sets the first value of g's block, inserting the block if needed —
// the write-side equivalent of a map assignment (stride-1 tables).
func (t *granTab) put(g uint64, v int64) {
	t.ensure(g)
	t.find(g)[0] = v
}

func (t *granTab) grow() {
	oldKeys, oldGen, oldVals := t.keys, t.gen, t.vals
	oldCur := t.cur
	t.alloc(len(oldKeys) * 2)
	t.cur = 1
	t.n = 0
	for i, g := range oldGen {
		if g != oldCur {
			continue
		}
		k := oldKeys[i]
		j := granHash(k) >> t.shift
		for t.gen[j] == t.cur {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.gen[j] = t.cur
		copy(t.vals[int(j)*t.stride:(int(j)+1)*t.stride],
			oldVals[i*t.stride:(i+1)*t.stride])
		t.n++
	}
}
