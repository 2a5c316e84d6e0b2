package code

import (
	"fmt"
	"strings"

	"compisa/internal/isa"
)

// CompileStats records code-generation statistics the paper reports in
// Section III (spill/refill/rematerialization counts are *static*; dynamic
// counts come from execution).
type CompileStats struct {
	SpillStores   int // stores inserted by the register allocator
	RefillLoads   int // reloads inserted by the register allocator
	ElidedReloads int // redundant reloads removed by the emit peephole
	Remats        int // rematerialized constants instead of reloads
	IfConversions int // branches removed by if-conversion
	VectorLoops   int // loops vectorized to SSE
	ScalarLoops   int // vectorizable loops left scalar (no SIMD)
	FoldedLoads   int // loads folded into ALU memory operands (x86 only)
	StaticInstrs  int
	CodeBytes     int
}

// Memory-map conventions shared by the compiler, executor, and binary
// translator. Workload data lives below DataLimit; the compiler's constant
// pool and the register-context / spill block live in reserved regions
// addressable with absolute 32-bit displacements.
const (
	// CodeBase is the virtual address programs are laid out at. Workload
	// data must live in [DataBase, DataLimit).
	CodeBase = 0x0100_0000
	// DataBase is the lowest address workload data may use.
	DataBase = 0x0800_0000
	// DataLimit is the exclusive upper bound for workload data addresses.
	DataLimit = 0x6000_0000
	// PoolBase is where each program's constant pool is placed.
	PoolBase = 0x6f00_0000
	// SpillBase is the base of the register allocator's spill area.
	SpillBase = 0x7000_0000
	// ContextBase is the base of the binary translator's register context
	// block (used to emulate registers beyond a core's register depth).
	ContextBase = 0x7100_0000
)

// PoolConst is one constant-pool entry: Size (4 or 8) bytes holding Bits at
// absolute address Addr. The runtime writes the pool into memory before
// executing the program.
type PoolConst struct {
	Addr uint32
	Size uint8
	Bits uint64
}

// Program is one compiled region: machine code plus layout.
type Program struct {
	Name string
	// FS is the feature set the region was compiled for.
	FS isa.FeatureSet
	// Target names the guest-ISA encoding the program is laid out and
	// encoded for (isa.TargetByName); empty means the default variable-
	// length x86 encoding. Execution semantics are target-independent —
	// only layout, encoding, and operand legality differ.
	Target string
	Instrs []Instr
	// PC is the byte address of each instruction after layout; Size is
	// the total code size. Filled by encoding.Layout.
	PC   []uint32
	Size int
	// Base is the virtual address the code is laid out at.
	Base uint32
	// Pool holds FP constants the code loads with absolute addressing.
	Pool []PoolConst
	// CompactEncoding selects the hypothetical from-scratch superset ISA
	// encoding the paper sketches ("a new superset ISA would allow much
	// tighter encoding of these options"): the REXBC and predicate
	// prefixes shrink to one byte each. Decode/execution semantics are
	// unchanged; only code density (and therefore I-cache and micro-op
	// cache behavior) differs.
	CompactEncoding bool
	Stats           CompileStats
}

// String disassembles the program for debugging and golden tests.
func (p *Program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; %s for %s (%d instrs, %d bytes)\n", p.Name, p.FS.ShortName(), len(p.Instrs), p.Size)
	for i := range p.Instrs {
		if len(p.PC) == len(p.Instrs) {
			fmt.Fprintf(&sb, "%6x: ", p.PC[i])
		} else {
			fmt.Fprintf(&sb, "%6d: ", i)
		}
		sb.WriteString(FormatInstr(&p.Instrs[i]))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatInstr renders one instruction in an AT&T-free, readable syntax.
func FormatInstr(in *Instr) string {
	var sb strings.Builder
	if in.Predicated() {
		sense := ""
		if !in.PredSense {
			sense = "!"
		}
		fmt.Fprintf(&sb, "(%sr%d) ", sense, in.Pred)
	}
	sb.WriteString(in.Op.String())
	switch in.Op {
	case JCC, SETCC, CMOVCC:
		sb.WriteString(in.CC.String())
	}
	if in.Sz != 0 && in.Sz != 4 {
		fmt.Fprintf(&sb, ".%d", in.Sz)
	}
	regName := func(r Reg) string {
		if in.Op.FPSources() {
			return fmt.Sprintf("x%d", r)
		}
		return fmt.Sprintf("r%d", r)
	}
	var ops []string
	if in.Dst != NoReg {
		if in.Op.IsFP() {
			ops = append(ops, fmt.Sprintf("x%d", in.Dst))
		} else {
			ops = append(ops, fmt.Sprintf("r%d", in.Dst))
		}
	}
	if in.Src1 != NoReg {
		ops = append(ops, regName(in.Src1))
	}
	if in.Src2 != NoReg {
		ops = append(ops, regName(in.Src2))
	}
	if in.HasImm {
		ops = append(ops, fmt.Sprintf("$%d", in.Imm))
	}
	if in.HasMem {
		m := in.Mem
		s := fmt.Sprintf("[r%d", m.Base)
		if m.Index != NoReg {
			s += fmt.Sprintf("+r%d*%d", m.Index, m.Scale)
		}
		if m.Disp != 0 {
			s += fmt.Sprintf("%+d", m.Disp)
		}
		ops = append(ops, s+"]")
	}
	if in.Op == JCC || in.Op == JMP {
		ops = append(ops, fmt.Sprintf("@%d", in.Target))
	}
	if len(ops) > 0 {
		sb.WriteByte(' ')
		sb.WriteString(strings.Join(ops, ", "))
	}
	return sb.String()
}

// Validate checks that the program conforms to its feature set: register
// numbers within the register depth, operand sizes within the register
// width, memory-operand ALU instructions only under full x86 complexity,
// predication and SIMD only where the feature set provides them, and branch
// targets in range. This is the contract every compiler and binary-translator
// output must satisfy.
func (p *Program) Validate() error {
	fs := p.FS
	tgt, ok := isa.TargetByName(p.Target)
	if !ok {
		return fmt.Errorf("%s: unknown target %q", p.Name, p.Target)
	}
	var iregs, fregs []Reg
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if err := TargetCheck(in, tgt); err != nil {
			return fmt.Errorf("%s[%d] %s: %w", p.Name, i, FormatInstr(in), err)
		}
		iregs = in.IntRegs(iregs[:0])
		for _, r := range iregs {
			if int(r) >= fs.Depth {
				return fmt.Errorf("%s[%d] %s: integer register r%d exceeds depth %d",
					p.Name, i, FormatInstr(in), r, fs.Depth)
			}
		}
		fregs = in.FPRegs(fregs[:0])
		for _, r := range fregs {
			if int(r) >= fs.FPRegs() {
				return fmt.Errorf("%s[%d] %s: fp register x%d exceeds %d",
					p.Name, i, FormatInstr(in), r, fs.FPRegs())
			}
		}
		if in.Sz == 8 && !in.Op.IsFP() && fs.Width == 32 {
			switch in.Op {
			case FST, FCMP, CVTFI:
				// 8-byte FP scalar data is fine on 32-bit cores (SSE).
			default:
				return fmt.Errorf("%s[%d] %s: 64-bit integer operation on 32-bit feature set",
					p.Name, i, FormatInstr(in))
			}
		}
		if in.MemSrcALU() && fs.Complexity == isa.MicroX86 {
			return fmt.Errorf("%s[%d] %s: memory-operand ALU op under microx86",
				p.Name, i, FormatInstr(in))
		}
		if in.Predicated() {
			if fs.Predication != isa.FullPredication {
				return fmt.Errorf("%s[%d] %s: predicate prefix without full predication",
					p.Name, i, FormatInstr(in))
			}
			if in.Op.IsBranch() {
				return fmt.Errorf("%s[%d] %s: branches cannot be predicated", p.Name, i, FormatInstr(in))
			}
		}
		if in.Op.IsVector() && !fs.HasSIMD() {
			return fmt.Errorf("%s[%d] %s: SSE op without SIMD support", p.Name, i, FormatInstr(in))
		}
		if in.Op == JCC || in.Op == JMP {
			if in.Target < 0 || int(in.Target) >= len(p.Instrs) {
				return fmt.Errorf("%s[%d]: branch target %d out of range", p.Name, i, in.Target)
			}
		}
		if in.HasImm && in.Src2 != NoReg {
			return fmt.Errorf("%s[%d] %s: both immediate and Src2", p.Name, i, FormatInstr(in))
		}
	}
	n := len(p.Instrs)
	if n == 0 {
		return fmt.Errorf("%s: empty program", p.Name)
	}
	hasRet := false
	for i := range p.Instrs {
		if p.Instrs[i].Op == RET {
			hasRet = true
			break
		}
	}
	if !hasRet {
		return fmt.Errorf("%s: program has no RET", p.Name)
	}
	// Execution must not fall off the end: the final instruction has to
	// redirect control unconditionally.
	if last := p.Instrs[n-1].Op; last != RET && last != JMP {
		return fmt.Errorf("%s: program may fall off the end (last op %v)", p.Name, last)
	}
	return nil
}
