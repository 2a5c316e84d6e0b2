//go:build amd64 && linux

package jit

import (
	"encoding/binary"
	"fmt"
	"syscall"
	"unsafe"
)

// This file is the shared emit layer: a small amd64 assembler (just the
// encodings the templates need), rel32 label fixups, and the W^X lifecycle
// of executable pages — code is assembled into a Go buffer, copied into a
// PROT_READ|PROT_WRITE mapping, and the mapping is flipped to
// PROT_READ|PROT_EXEC before anything may jump to it. Pages are unmapped
// when the owning module leaves the code cache and its last user releases
// it.

// gpr numbers an amd64 general-purpose register (encoding order).
type gpr uint8

const (
	rax gpr = iota
	rcx
	rdx
	rbx
	rsp
	rbp
	rsi
	rdi
	r8
	r9
	r10
	r11
	r12
	r13
	r14
	r15
)

// xmm numbers an SSE register. Only xmm0-xmm7 are used, so no REX.R.
type xmm uint8

const (
	xmm0 xmm = iota
	xmm1
)

// label is a jump target with rel32 fixups.
type label struct {
	pos  int32 // byte offset once bound, -1 before
	refs []int32
}

func newLabel() *label { return &label{pos: -1} }

type asm struct {
	b []byte
}

func (a *asm) here() int32 { return int32(len(a.b)) }

func (a *asm) u8(v byte) { a.b = append(a.b, v) }
func (a *asm) u32(v uint32) {
	a.b = append(a.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (a *asm) u64(v uint64) {
	a.u32(uint32(v))
	a.u32(uint32(v >> 32))
}

// bind places l at the current position and patches prior references.
func (a *asm) bind(l *label) {
	l.pos = a.here()
	for _, site := range l.refs {
		binary.LittleEndian.PutUint32(a.b[site:], uint32(l.pos-(site+4)))
	}
	l.refs = l.refs[:0]
}

// rel32 emits a 4-byte relative displacement to l (to be patched if l is
// unbound).
func (a *asm) rel32(l *label) {
	if l.pos >= 0 {
		a.u32(uint32(l.pos - (a.here() + 4)))
		return
	}
	l.refs = append(l.refs, a.here())
	a.u32(0)
}

// rex emits a REX prefix when any bit is needed; force emits 0x40 even
// without bits (required to address sil/dil/bpl/spl — unused here, but it
// keeps the helper honest for 8-bit ops).
func (a *asm) rex(w bool, rext, xext, bext, force bool) {
	var v byte = 0x40
	if w {
		v |= 8
	}
	if rext {
		v |= 4
	}
	if xext {
		v |= 2
	}
	if bext {
		v |= 1
	}
	if v != 0x40 || force {
		a.u8(v)
	}
}

// mrm emits a ModRM (+SIB) byte sequence for [base+disp] with the given
// /reg field (low 3 bits only; REX.R is the caller's job).
func (a *asm) mrm(regField byte, base gpr, disp int32) {
	b := byte(base) & 7
	sib := b == 4 // rsp/r12 demand a SIB byte
	var mod byte
	switch {
	case disp == 0 && b != 5:
		mod = 0
	case disp >= -128 && disp <= 127:
		mod = 1
	default:
		mod = 2
	}
	rm := b
	if sib {
		rm = 4
	}
	a.u8(mod<<6 | regField<<3 | rm)
	if sib {
		a.u8(0x20 | b) // scale=1, index=none, base
	}
	switch mod {
	case 1:
		a.u8(byte(disp))
	case 2:
		a.u32(uint32(disp))
	}
}

// opsz is the operand width of an integer instruction.
type opsz uint8

const (
	sz8b opsz = 1 // byte
	sz32 opsz = 4
	sz64 opsz = 8
)

// aluRM emits "op reg, [base+disp]" using the register-destination opcode
// base (e.g. 0x03 for ADD): opbase-1 is the 8-bit form.
func (a *asm) aluRM(opbase byte, sz opsz, dst gpr, base gpr, disp int32) {
	a.rex(sz == sz64, dst >= r8, false, base >= r8, false)
	if sz == sz8b {
		a.u8(opbase - 1)
	} else {
		a.u8(opbase)
	}
	a.mrm(byte(dst)&7, base, disp)
}

// aluRR emits "op dst, src" (register forms of the classic ALU group).
func (a *asm) aluRR(opbase byte, sz opsz, dst, src gpr) {
	a.rex(sz == sz64, dst >= r8, false, src >= r8, false)
	if sz == sz8b {
		a.u8(opbase - 1)
	} else {
		a.u8(opbase)
	}
	a.u8(0xC0 | (byte(dst)&7)<<3 | byte(src)&7)
}

// Classic ALU opcode bases (register-destination form).
const (
	opADD = 0x03
	opOR  = 0x0B
	opADC = 0x13
	opSBB = 0x1B
	opAND = 0x23
	opSUB = 0x2B
	opXOR = 0x33
	opCMP = 0x3B
)

// testRR emits "test r1, r2" at the given width.
func (a *asm) testRR(sz opsz, r1, r2 gpr) {
	a.rex(sz == sz64, r2 >= r8, false, r1 >= r8, false)
	if sz == sz8b {
		a.u8(0x84)
	} else {
		a.u8(0x85)
	}
	a.u8(0xC0 | (byte(r2)&7)<<3 | byte(r1)&7)
}

// movRM loads reg from [base+disp] at the given width (8-bit loads should
// use movzxBRM instead; this 8-bit form merges into the low byte).
func (a *asm) movRM(sz opsz, dst gpr, base gpr, disp int32) {
	a.rex(sz == sz64, dst >= r8, false, base >= r8, false)
	if sz == sz8b {
		a.u8(0x8A)
	} else {
		a.u8(0x8B)
	}
	a.mrm(byte(dst)&7, base, disp)
}

// movMR stores reg to [base+disp] at the given width.
func (a *asm) movMR(sz opsz, base gpr, disp int32, src gpr) {
	a.rex(sz == sz64, src >= r8, false, base >= r8, false)
	if sz == sz8b {
		a.u8(0x88)
	} else {
		a.u8(0x89)
	}
	a.mrm(byte(src)&7, base, disp)
}

// movMR16 stores the low 16 bits of src to [base+disp].
func (a *asm) movMR16(base gpr, disp int32, src gpr) {
	a.u8(0x66)
	a.rex(false, src >= r8, false, base >= r8, false)
	a.u8(0x89)
	a.mrm(byte(src)&7, base, disp)
}

// movRR copies a 64-bit register.
func (a *asm) movRR(dst, src gpr) {
	a.rex(true, dst >= r8, false, src >= r8, false)
	a.u8(0x8B)
	a.u8(0xC0 | (byte(dst)&7)<<3 | byte(src)&7)
}

// movzxBRM zero-extends a byte load into a 64-bit register.
func (a *asm) movzxBRM(dst gpr, base gpr, disp int32) {
	a.rex(false, dst >= r8, false, base >= r8, false)
	a.u8(0x0F)
	a.u8(0xB6)
	a.mrm(byte(dst)&7, base, disp)
}

// movzxWRM zero-extends a 16-bit load into a 64-bit register.
func (a *asm) movzxWRM(dst gpr, base gpr, disp int32) {
	a.rex(false, dst >= r8, false, base >= r8, false)
	a.u8(0x0F)
	a.u8(0xB7)
	a.mrm(byte(dst)&7, base, disp)
}

// movzxBRR zero-extends the low byte of src into dst (32-bit dest zeroes
// the upper half).
func (a *asm) movzxBRR(dst, src gpr) {
	a.rex(false, dst >= r8, false, src >= r8, false)
	a.u8(0x0F)
	a.u8(0xB6)
	a.u8(0xC0 | (byte(dst)&7)<<3 | byte(src)&7)
}

// mov32RR truncates src to 32 bits in dst ("mov dst32, src32"), zeroing the
// upper half.
func (a *asm) mov32RR(dst, src gpr) {
	a.rex(false, dst >= r8, false, src >= r8, false)
	a.u8(0x8B)
	a.u8(0xC0 | (byte(dst)&7)<<3 | byte(src)&7)
}

// movsxdRM sign-extends a 32-bit load into a 64-bit register.
func (a *asm) movsxdRM(dst gpr, base gpr, disp int32) {
	a.rex(true, dst >= r8, false, base >= r8, false)
	a.u8(0x63)
	a.mrm(byte(dst)&7, base, disp)
}

// movRI loads a 64-bit immediate, shrinking the encoding when possible.
func (a *asm) movRI(dst gpr, v uint64) {
	switch {
	case v <= 0xFFFF_FFFF:
		// 32-bit mov zero-extends.
		a.rex(false, false, false, dst >= r8, false)
		a.u8(0xB8 + byte(dst)&7)
		a.u32(uint32(v))
	case int64(v) == int64(int32(v)):
		a.rex(true, false, false, dst >= r8, false)
		a.u8(0xC7)
		a.u8(0xC0 | byte(dst)&7)
		a.u32(uint32(v))
	default:
		a.rex(true, false, false, dst >= r8, false)
		a.u8(0xB8 + byte(dst)&7)
		a.u64(v)
	}
}

// movMI32 stores a 32-bit immediate to [base+disp]; with w=true the
// immediate is sign-extended to 64 bits.
func (a *asm) movMI32(w bool, base gpr, disp int32, v uint32) {
	a.rex(w, false, false, base >= r8, false)
	a.u8(0xC7)
	a.mrm(0, base, disp)
	a.u32(v)
}

// movMI8 stores a byte immediate to [base+disp].
func (a *asm) movMI8(base gpr, disp int32, v byte) {
	a.rex(false, false, false, base >= r8, false)
	a.u8(0xC6)
	a.mrm(0, base, disp)
	a.u8(v)
}

// aluRI emits "op reg, imm32" with the /ext group-1 extension (ADD=0,
// OR=1, ADC=2, SBB=3, AND=4, SUB=5, XOR=6, CMP=7) at 32- or 64-bit width.
func (a *asm) aluRI(ext byte, sz opsz, r gpr, v int32) {
	a.rex(sz == sz64, false, false, r >= r8, false)
	if v >= -128 && v <= 127 {
		a.u8(0x83)
		a.u8(0xC0 | ext<<3 | byte(r)&7)
		a.u8(byte(v))
		return
	}
	a.u8(0x81)
	a.u8(0xC0 | ext<<3 | byte(r)&7)
	a.u32(uint32(v))
}

// aluMI emits "op qword [base+disp], imm" with the /ext group-1 extension
// (the tally-counter RMW form).
func (a *asm) aluMI(ext byte, base gpr, disp int32, v int32) {
	a.rex(true, false, false, base >= r8, false)
	if v >= -128 && v <= 127 {
		a.u8(0x83)
		a.mrm(ext, base, disp)
		a.u8(byte(v))
		return
	}
	a.u8(0x81)
	a.mrm(ext, base, disp)
	a.u32(uint32(v))
}

// aluRI8only emits the 8-bit "op reg8, imm8" form (e.g. add dl, 0xff for
// carry materialization).
func (a *asm) aluRI8only(ext byte, r gpr, v byte) {
	a.rex(false, false, false, r >= r8, false)
	a.u8(0x80)
	a.u8(0xC0 | ext<<3 | byte(r)&7)
	a.u8(v)
}

// shiftRI emits "shl/shr/sar reg, imm8" (ext: SHL=4, SHR=5, SAR=7).
func (a *asm) shiftRI(ext byte, sz opsz, r gpr, k byte) {
	a.rex(sz == sz64, false, false, r >= r8, false)
	if sz == sz8b {
		a.u8(0xC0)
	} else {
		a.u8(0xC1)
	}
	a.u8(0xC0 | ext<<3 | byte(r)&7)
	a.u8(k)
}

// imulRR emits "imul dst, src" (0F AF) at 32- or 64-bit width.
func (a *asm) imulRR(sz opsz, dst, src gpr) {
	a.rex(sz == sz64, dst >= r8, false, src >= r8, false)
	a.u8(0x0F)
	a.u8(0xAF)
	a.u8(0xC0 | (byte(dst)&7)<<3 | byte(src)&7)
}

// imulRM emits "imul dst32, [base+disp]".
func (a *asm) imulRM(dst gpr, base gpr, disp int32) {
	a.rex(false, dst >= r8, false, base >= r8, false)
	a.u8(0x0F)
	a.u8(0xAF)
	a.mrm(byte(dst)&7, base, disp)
}

// imulRRI emits "imul dst, src, imm32".
func (a *asm) imulRRI(dst, src gpr, v int32) {
	a.rex(true, dst >= r8, false, src >= r8, false)
	a.u8(0x69)
	a.u8(0xC0 | (byte(dst)&7)<<3 | byte(src)&7)
	a.u32(uint32(v))
}

// x86 condition encodings for Jcc/SETcc (low nibble of the opcode).
const (
	hwO  = 0x0
	hwB  = 0x2 // below (CF)
	hwAE = 0x3
	hwE  = 0x4 // equal (ZF)
	hwNE = 0x5
	hwBE = 0x6
	hwA  = 0x7
	hwS  = 0x8
	hwP  = 0xA
	hwNP = 0xB
	hwL  = 0xC
	hwGE = 0xD
	hwLE = 0xE
	hwG  = 0xF
)

// jcc emits a rel32 conditional jump to l.
func (a *asm) jcc(cc byte, l *label) {
	a.u8(0x0F)
	a.u8(0x80 | cc)
	a.rel32(l)
}

// jmp emits a rel32 unconditional jump to l.
func (a *asm) jmp(l *label) {
	a.u8(0xE9)
	a.rel32(l)
}

// jmpM emits an indirect jump through [base+disp].
func (a *asm) jmpM(base gpr, disp int32) {
	a.rex(false, false, false, base >= r8, false)
	a.u8(0xFF)
	a.mrm(4, base, disp)
}

// setccR emits "setcc reg8" (reg must be rax..rbx to avoid REX rules).
func (a *asm) setccR(cc byte, r gpr) {
	a.u8(0x0F)
	a.u8(0x90 | cc)
	a.u8(0xC0 | byte(r)&7)
}

// setccM emits "setcc byte [base+disp]".
func (a *asm) setccM(cc byte, base gpr, disp int32) {
	a.rex(false, false, false, base >= r8, false)
	a.u8(0x0F)
	a.u8(0x90 | cc)
	a.mrm(0, base, disp)
}

// cmpMI8 emits "cmp byte [base+disp], imm8".
func (a *asm) cmpMI8(base gpr, disp int32, v byte) {
	a.rex(false, false, false, base >= r8, false)
	a.u8(0x80)
	a.mrm(7, base, disp)
	a.u8(v)
}

// decR emits "dec reg64".
func (a *asm) decR(r gpr) {
	a.rex(true, false, false, r >= r8, false)
	a.u8(0xFF)
	a.u8(0xC8 | byte(r)&7)
}

// retn emits a near return.
func (a *asm) retn() { a.u8(0xC3) }

// SSE helpers. prefix is 0 (none), 0x66, 0xF2 or 0xF3; the REX (if any)
// must sit between the prefix and the 0F escape.

func (a *asm) sseXM(prefix byte, op byte, x xmm, base gpr, disp int32) {
	if prefix != 0 {
		a.u8(prefix)
	}
	a.rex(false, false, false, base >= r8, false)
	a.u8(0x0F)
	a.u8(op)
	a.mrm(byte(x)&7, base, disp)
}

func (a *asm) sseXX(prefix byte, op byte, dst, src xmm) {
	if prefix != 0 {
		a.u8(prefix)
	}
	a.u8(0x0F)
	a.u8(op)
	a.u8(0xC0 | (byte(dst)&7)<<3 | byte(src)&7)
}

// movdRX moves the low 32 bits of an xmm into a GPR (zero-extended).
func (a *asm) movdRX(dst gpr, src xmm) {
	a.u8(0x66)
	a.rex(false, false, false, dst >= r8, false)
	a.u8(0x0F)
	a.u8(0x7E)
	a.u8(0xC0 | (byte(src)&7)<<3 | byte(dst)&7)
}

// movqRX moves the low 64 bits of an xmm into a GPR.
func (a *asm) movqRX(dst gpr, src xmm) {
	a.u8(0x66)
	a.rex(true, false, false, dst >= r8, false)
	a.u8(0x0F)
	a.u8(0x7E)
	a.u8(0xC0 | (byte(src)&7)<<3 | byte(dst)&7)
}

// cvtsi2x converts a 64-bit integer register to scalar float: prefix 0xF3
// for ss, 0xF2 for sd.
func (a *asm) cvtsi2x(prefix byte, dst xmm, src gpr) {
	a.u8(prefix)
	a.rex(true, false, false, src >= r8, false)
	a.u8(0x0F)
	a.u8(0x2A)
	a.u8(0xC0 | (byte(dst)&7)<<3 | byte(src)&7)
}

// cvttx2si truncates a scalar float at [base+disp] to a 32-bit integer.
func (a *asm) cvttx2si(prefix byte, dst gpr, base gpr, disp int32) {
	a.u8(prefix)
	a.rex(false, dst >= r8, false, base >= r8, false)
	a.u8(0x0F)
	a.u8(0x2C)
	a.mrm(byte(dst)&7, base, disp)
}

// execPages is a finished code mapping.
type execPages struct {
	buf []byte // the live mapping (RX after seal)
}

// newExecPages copies code into a fresh RW anonymous mapping and flips it
// to RX (the W^X discipline: no page is ever writable and executable at
// once).
func newExecPages(codeBytes []byte) (*execPages, error) {
	n := (len(codeBytes) + syscall.Getpagesize() - 1) &^ (syscall.Getpagesize() - 1)
	if n == 0 {
		n = syscall.Getpagesize()
	}
	m, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("jit: mmap code pages: %w", err)
	}
	copy(m, codeBytes)
	if err := syscall.Mprotect(m, syscall.PROT_READ|syscall.PROT_EXEC); err != nil {
		syscall.Munmap(m)
		return nil, fmt.Errorf("jit: mprotect RX: %w", err)
	}
	return &execPages{buf: m}, nil
}

// base returns the executable base address.
func (p *execPages) base() uintptr { return uintptr(unsafe.Pointer(&p.buf[0])) }

// free unmaps the pages. The caller must guarantee no thread can still be
// executing in them (the module refcount does).
func (p *execPages) free() {
	if p.buf != nil {
		syscall.Munmap(p.buf)
		p.buf = nil
	}
}
