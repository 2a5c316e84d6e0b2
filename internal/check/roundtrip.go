package check

import (
	"fmt"

	"compisa/internal/code"
	"compisa/internal/encoding"
)

// checkEncode is the translation-validation rule, one for every target:
// every instruction must encode through the program's coder into exactly
// the bytes the layout claims, and the coder's length decoder must parse
// those bytes back to the same boundary. Where one decode step recovers the
// whole instruction (encoding.InstrDecoder), the decoded instruction must
// also equal the canonical normalization of the original. The whole image
// is then split into instructions the way the target's fetch stage splits
// it — the ILD's instruction-marker scan on x86, the fixed stride on
// one-step-decode targets — and those boundaries compared against the
// layout PCs: disagreement means the fetch/decode models are simulating a
// different program than the one that executes.
func checkEncode(a *analysis) []Finding {
	p := a.p
	if len(p.PC) != len(p.Instrs) {
		return []Finding{{Rule: RuleEncode, Index: -1, Severity: SevError,
			Detail: fmt.Sprintf("program has no layout (%d PCs for %d instructions)", len(p.PC), len(p.Instrs))}}
	}
	c := encoding.ForProgram(p)
	dec, _ := c.(encoding.InstrDecoder)
	var out []Finding
	img := make([]byte, 0, p.Size)
	imgOK := true
	for i := range p.Instrs {
		in := &p.Instrs[i]
		b, err := c.EncodeInstr(in, encoding.Length(p, i), p.CompactEncoding)
		if err != nil {
			out = append(out, a.finding(RuleEncode, i, fmt.Sprintf("encode: %v", err)))
			imgOK = false
			continue
		}
		n, err := c.DecodeLength(b, p.CompactEncoding)
		if err != nil {
			out = append(out, a.finding(RuleEncode, i, fmt.Sprintf("decode: %v", err)))
			imgOK = false
			continue
		}
		if n != len(b) {
			out = append(out, a.finding(RuleEncode, i,
				fmt.Sprintf("decoder claims %d bytes where the encoder emitted %d", n, len(b))))
			imgOK = false
			continue
		}
		if dec != nil {
			got, err := dec.DecodeInstr(b)
			if err != nil {
				out = append(out, a.finding(RuleEncode, i, fmt.Sprintf("instruction decode: %v", err)))
			} else if want := dec.Normalize(in); got != want {
				out = append(out, a.finding(RuleEncode, i,
					fmt.Sprintf("decode round trip disagrees: got %s want %s",
						code.FormatInstr(&got), code.FormatInstr(&want))))
			}
		}
		img = append(img, b...)
	}
	if !imgOK {
		return out
	}
	if len(img) != p.Size {
		out = append(out, Finding{Rule: RuleEncode, Index: -1, Severity: SevError,
			Detail: fmt.Sprintf("image is %d bytes but layout claims %d", len(img), p.Size)})
		return out
	}
	bounds, err := c.Boundaries(img, p.CompactEncoding)
	if err != nil {
		out = append(out, Finding{Rule: RuleEncode, Index: -1, Severity: SevError,
			Detail: fmt.Sprintf("boundary scan failed: %v", err)})
		return out
	}
	if len(bounds) != len(p.Instrs) {
		out = append(out, Finding{Rule: RuleEncode, Index: -1, Severity: SevError,
			Detail: fmt.Sprintf("boundary scan found %d instructions, layout has %d", len(bounds), len(p.Instrs))})
		return out
	}
	for i, off := range bounds {
		if uint32(off) != p.PC[i]-p.Base {
			out = append(out, a.finding(RuleEncode, i,
				fmt.Sprintf("boundary %#x disagrees with layout PC offset %#x", off, p.PC[i]-p.Base)))
		}
	}
	return out
}

// clone deep-copies a program so the mutation harness can derive illegal
// variants without touching the original.
func Clone(p *code.Program) *code.Program {
	q := *p
	q.Instrs = append([]code.Instr(nil), p.Instrs...)
	q.PC = append([]uint32(nil), p.PC...)
	q.Pool = append([]code.PoolConst(nil), p.Pool...)
	return &q
}
