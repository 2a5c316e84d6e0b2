// Package mem provides the sparse, paged, little-endian memory image shared
// by the IR interpreter, the machine-code functional executor, and the
// workload data initializers.
package mem

import "encoding/binary"

const (
	pageBits = 12
	// PageSize is the allocation granule of the sparse memory.
	PageSize = 1 << pageBits
	pageMask = PageSize - 1
)

// Memory is a sparse byte-addressable memory. The zero value is ready to
// use; unwritten bytes read as zero. Accesses may straddle page boundaries.
type Memory struct {
	pages map[uint64]*[PageSize]byte
	// one-entry lookaside to avoid a map hit per access
	lastBase uint64
	lastPage *[PageSize]byte
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

// Clone returns a deep copy, so destructive workloads can be re-run from the
// same initial image.
func (m *Memory) Clone() *Memory {
	c := New()
	for base, p := range m.pages {
		np := *p
		c.pages[base] = &np
	}
	return c
}

func (m *Memory) page(addr uint64) *[PageSize]byte {
	base := addr &^ uint64(pageMask)
	if m.lastPage != nil && base == m.lastBase {
		return m.lastPage
	}
	if m.pages == nil {
		m.pages = make(map[uint64]*[PageSize]byte)
	}
	p := m.pages[base]
	if p == nil {
		p = new([PageSize]byte)
		m.pages[base] = p
	}
	m.lastBase, m.lastPage = base, p
	return p
}

// Load8 returns the byte at addr.
func (m *Memory) Load8(addr uint64) byte {
	return m.page(addr)[addr&pageMask]
}

// Store8 stores b at addr.
func (m *Memory) Store8(addr uint64, b byte) {
	m.page(addr)[addr&pageMask] = b
}

// Read returns size (1, 2, 4, or 8) bytes at addr as a little-endian value.
func (m *Memory) Read(addr uint64, size int) uint64 {
	off := int(addr & pageMask)
	if off+size <= PageSize {
		p := m.page(addr)
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	// Straddles a page: assemble byte-wise.
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.Load8(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores size (1, 2, 4, or 8) bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	off := int(addr & pageMask)
	if off+size <= PageSize {
		p := m.page(addr)
		switch size {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		}
	}
	for i := 0; i < size; i++ {
		m.Store8(addr+uint64(i), byte(v>>(8*i)))
	}
}

// Read128 returns the 16 bytes at addr as two little-endian words (lo, hi).
func (m *Memory) Read128(addr uint64) (lo, hi uint64) {
	return m.Read(addr, 8), m.Read(addr+8, 8)
}

// Write128 stores 16 bytes at addr.
func (m *Memory) Write128(addr uint64, lo, hi uint64) {
	m.Write(addr, 8, lo)
	m.Write(addr+8, 8, hi)
}

// Pages returns the number of resident pages (for tests and stats).
func (m *Memory) Pages() int { return len(m.pages) }

// Equal reports whether m and o have the same resident pages holding the
// same bytes.
func (m *Memory) Equal(o *Memory) bool {
	if len(m.pages) != len(o.pages) {
		return false
	}
	for base, p := range m.pages {
		if q := o.pages[base]; q == nil || *p != *q {
			return false
		}
	}
	return true
}

// Alias maps the address range [base, base+len(buf)) onto buf: every page in
// the range becomes a view into buf, so reads and writes through Memory and
// direct accesses to buf observe the same bytes. Existing page contents are
// copied into buf first, so the aliasing is semantically invisible. base and
// len(buf) must be page-aligned.
//
// This is the coherence seam for the native-code executor (internal/jit):
// the JIT addresses buf directly while deoptimized interpreter steps go
// through Memory, and neither side ever needs an explicit sync.
func (m *Memory) Alias(base uint64, buf []byte) {
	if base&pageMask != 0 || len(buf)&pageMask != 0 {
		panic("mem: Alias range not page-aligned")
	}
	if m.pages == nil {
		m.pages = make(map[uint64]*[PageSize]byte)
	}
	for off := 0; off < len(buf); off += PageSize {
		pb := base + uint64(off)
		view := (*[PageSize]byte)(buf[off : off+PageSize])
		if old := m.pages[pb]; old != nil && old != view {
			copy(view[:], old[:])
		}
		m.pages[pb] = view
	}
	// The lookaside may point at a replaced page.
	m.lastBase, m.lastPage = 0, nil
}

// Extent returns the exclusive end of the highest resident page within
// [lo, hi), or lo when no page in the range is resident (used to size
// aliasing windows).
func (m *Memory) Extent(lo, hi uint64) uint64 {
	end := lo
	for base := range m.pages {
		if base >= lo && base < hi && base+PageSize > end {
			end = base + PageSize
		}
	}
	return end
}
