package eval

import (
	"crypto/sha256"
	"encoding/binary"

	"compisa/internal/code"
)

// simKey identifies one functional simulation in the DB's simulation tier.
type simKey [sha256.Size]byte

// instrKeyBytes is the encoded size of one instruction in simKeyOf.
const instrKeyBytes = 13 + 8 + 4 + 4

// simKeyOf digests everything cpu.CollectProfileOpts reads from a compiled
// region, so two (region, ISA) cells with equal keys have equal profiles up
// to Name and compile Stats (which overlay rewrites):
//
//   - the region name and the width it was built at, from which alone
//     Region.Build derives the initial memory image (so no memory is
//     hashed; a translated program runs on its source width's image);
//   - FS.Width (register width) and FS.Complexity (X86Complexity);
//   - Target and CompactEncoding (instruction lengths and layout);
//   - Size, Base, PC and Pool;
//   - every executed field of every instruction.
//
// Name, Stats, FS.Depth, FS.Predication and Instr.TakenProb are left out:
// depth and predication matter only through the code they produce, and the
// others are never read by the simulation. TestSimKeyFieldCoverage fails
// when a field is added to code.Program or code.Instr without being placed
// on one side or the other.
func simKeyOf(region string, buildWidth int, p *code.Program) simKey {
	le := binary.LittleEndian
	b := make([]byte, 0, 72+len(region)+len(p.Target)+
		len(p.Pool)*13+len(p.PC)*4+len(p.Instrs)*instrKeyBytes)
	b = le.AppendUint32(b, uint32(len(region)))
	b = append(b, region...)
	b = le.AppendUint64(b, uint64(buildWidth))
	b = le.AppendUint32(b, uint32(len(p.Target)))
	b = append(b, p.Target...)
	b = le.AppendUint64(b, uint64(p.FS.Width))
	b = append(b, byte(p.FS.Complexity), boolByte(p.CompactEncoding))
	b = le.AppendUint32(b, p.Base)
	b = le.AppendUint64(b, uint64(p.Size))
	b = le.AppendUint32(b, uint32(len(p.Pool)))
	for _, c := range p.Pool {
		b = le.AppendUint32(b, c.Addr)
		b = append(b, c.Size)
		b = le.AppendUint64(b, c.Bits)
	}
	b = le.AppendUint32(b, uint32(len(p.PC)))
	for _, pc := range p.PC {
		b = le.AppendUint32(b, pc)
	}
	b = le.AppendUint32(b, uint32(len(p.Instrs)))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		b = append(b, byte(in.Op), in.Sz, byte(in.Dst), byte(in.Src1), byte(in.Src2),
			boolByte(in.HasImm), boolByte(in.HasMem),
			byte(in.Mem.Base), byte(in.Mem.Index), in.Mem.Scale,
			byte(in.CC), byte(in.Pred), boolByte(in.PredSense))
		b = le.AppendUint64(b, uint64(in.Imm))
		b = le.AppendUint32(b, uint32(in.Mem.Disp))
		b = le.AppendUint32(b, uint32(in.Target))
	}
	return sha256.Sum256(b)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
