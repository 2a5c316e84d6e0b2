package ir

// Builder provides a fluent interface for emitting IR into a function.
// Workload generators use it to keep kernel construction readable.
type Builder struct {
	F   *Func
	Cur *Block
	// discard drops every emitted instruction (see NewDiscardBuilder).
	discard bool
}

// NewBuilder returns a builder positioned at a fresh entry block.
func NewBuilder(name string) *Builder {
	f := NewFunc(name)
	b := f.NewBlock("entry")
	return &Builder{F: f, Cur: b}
}

// NewDiscardBuilder returns a builder that allocates registers and blocks
// exactly as NewBuilder's does but drops every instruction, for running a
// generator only for its other effects (a workload region's memory image).
func NewDiscardBuilder(name string) *Builder {
	b := NewBuilder(name)
	b.discard = true
	return b
}

// Block creates a new block without switching to it.
func (b *Builder) Block(name string) *Block { return b.F.NewBlock(name) }

// SetBlock positions the builder at the given block.
func (b *Builder) SetBlock(blk *Block) { b.Cur = blk }

func (b *Builder) emit(in Instr) VReg {
	if !b.discard {
		b.Cur.Instrs = append(b.Cur.Instrs, in)
	}
	return in.Dst
}

// Const emits an integer/pointer constant.
func (b *Builder) Const(t Type, v int64) VReg {
	d := b.F.NewVReg(t)
	b.emit(Instr{Op: Const, Type: t, Dst: d, Imm: v, A: NoReg, B: NoReg, C: NoReg, Mem: noMem()})
	return d
}

// FConst emits a floating-point constant.
func (b *Builder) FConst(t Type, v float64) VReg {
	d := b.F.NewVReg(t)
	b.emit(Instr{Op: FConst, Type: t, Dst: d, FImm: v, A: NoReg, B: NoReg, C: NoReg, Mem: noMem()})
	return d
}

// Bin emits a two-operand arithmetic instruction.
func (b *Builder) Bin(op Op, t Type, x, y VReg) VReg {
	d := b.F.NewVReg(t)
	b.emit(Instr{Op: op, Type: t, Dst: d, A: x, B: y, C: NoReg, Mem: noMem()})
	return d
}

// Shift emits an immediate-count shift.
func (b *Builder) Shift(op Op, t Type, x VReg, count int64) VReg {
	d := b.F.NewVReg(t)
	b.emit(Instr{Op: op, Type: t, Dst: d, A: x, B: NoReg, C: NoReg, Imm: count, Mem: noMem()})
	return d
}

// Unary emits a one-operand instruction (Copy, Trunc, Ext, SIToFP, FPToSI).
func (b *Builder) Unary(op Op, t Type, x VReg) VReg {
	d := b.F.NewVReg(t)
	b.emit(Instr{Op: op, Type: t, Dst: d, A: x, B: NoReg, C: NoReg, Mem: noMem()})
	return d
}

// Load emits dst = mem[base + index*scale + disp] of the given type.
func (b *Builder) Load(t Type, base, index VReg, scale int32, disp int64) VReg {
	d := b.F.NewVReg(t)
	b.emit(Instr{Op: Load, Type: t, Dst: d, A: NoReg, B: NoReg, C: NoReg,
		Mem: MemRef{Base: base, Index: index, Scale: scale, Disp: disp}})
	return d
}

// LoadByte emits a byte load zero-extended into an I32 register.
func (b *Builder) LoadByte(base, index VReg, scale int32, disp int64) VReg {
	d := b.F.NewVReg(I32)
	b.emit(Instr{Op: Load, Type: I32, Dst: d, MemSize: 1, A: NoReg, B: NoReg, C: NoReg,
		Mem: MemRef{Base: base, Index: index, Scale: scale, Disp: disp}})
	return d
}

// Store emits mem[base + index*scale + disp] = v.
func (b *Builder) Store(t Type, v, base, index VReg, scale int32, disp int64) {
	b.emit(Instr{Op: Store, Type: t, Dst: NoReg, A: v, B: NoReg, C: NoReg,
		Mem: MemRef{Base: base, Index: index, Scale: scale, Disp: disp}})
}

// StoreByte emits a byte store of v's low 8 bits.
func (b *Builder) StoreByte(v, base, index VReg, scale int32, disp int64) {
	b.emit(Instr{Op: Store, Type: I32, Dst: NoReg, MemSize: 1, A: v, B: NoReg, C: NoReg,
		Mem: MemRef{Base: base, Index: index, Scale: scale, Disp: disp}})
}

// Cmp emits an integer comparison producing a 0/1 value.
func (b *Builder) Cmp(cc Cond, t Type, x, y VReg) VReg {
	d := b.F.NewVReg(I32)
	b.emit(Instr{Op: Cmp, Type: t, Dst: d, A: x, B: y, C: NoReg, CC: cc, Mem: noMem()})
	return d
}

// FCmp emits a floating-point comparison producing a 0/1 value.
func (b *Builder) FCmp(cc Cond, t Type, x, y VReg) VReg {
	d := b.F.NewVReg(I32)
	b.emit(Instr{Op: FCmp, Type: t, Dst: d, A: x, B: y, C: NoReg, CC: cc, Mem: noMem()})
	return d
}

// Select emits dst = cond != 0 ? x : y.
func (b *Builder) Select(t Type, cond, x, y VReg) VReg {
	d := b.F.NewVReg(t)
	b.emit(Instr{Op: Select, Type: t, Dst: d, A: x, B: y, C: cond, Mem: noMem()})
	return d
}

// Br ends the current block with an unconditional jump.
func (b *Builder) Br(target *Block) {
	b.emit(Instr{Op: Br, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg, Succs: [2]*Block{target, nil}, Mem: noMem()})
}

// CondBr ends the current block with a conditional branch. prob is the
// profile probability that the branch is taken (flows to taken).
func (b *Builder) CondBr(cond VReg, taken, fallthrough_ *Block, prob float64) {
	b.emit(Instr{Op: CondBr, Dst: NoReg, A: NoReg, B: NoReg, C: cond, Prob: prob,
		Succs: [2]*Block{taken, fallthrough_}, Mem: noMem()})
}

// Ret ends the current block returning v (NoReg for void).
func (b *Builder) Ret(v VReg) {
	b.emit(Instr{Op: Ret, Dst: NoReg, A: v, B: NoReg, C: NoReg, Mem: noMem()})
}

// Copy emits an explicit register copy into dst (dst must already exist).
// It is the only builder operation that redefines an existing register,
// which is how generators express loop-carried values in this non-SSA IR.
func (b *Builder) Copy(dst, src VReg) {
	b.emit(Instr{Op: Copy, Type: b.F.TypeOf(dst), Dst: dst, A: src, B: NoReg, C: NoReg, Mem: noMem()})
}

// Assign emits an arbitrary instruction redefining an existing register dst.
func (b *Builder) Assign(dst VReg, op Op, t Type, x, y VReg) {
	b.emit(Instr{Op: op, Type: t, Dst: dst, A: x, B: y, C: NoReg, Mem: noMem()})
}

// AssignImm redefines dst with dst = x op imm expressed via a Const-free
// immediate form where supported (shifts) — for Add with immediates the
// generator should materialize constants; this helper covers induction
// updates dst = x + imm via a Const in the current block.
func (b *Builder) AddImm(dst, x VReg, t Type, imm int64) {
	c := b.Const(t, imm)
	b.Assign(dst, Add, t, x, c)
}

func noMem() MemRef { return MemRef{Base: NoReg, Index: NoReg} }
