package analysis

import "repro/internal/ir"

// ReferenceEscapes recomputes res's escape facts with the full-sweep
// fixpoint that the caller worklist in computeEscapes replaced: every
// function is re-swept in module order until no summary changes, then
// swept once more to record the facts against the fixed summaries. It
// returns fresh FuncFacts (only the escape fields set), index-aligned
// with res.Funcs, and leaves res untouched. The external reference
// tests compare computeEscapes against it.
func ReferenceEscapes(res *Result) []FuncFacts {
	funcs := res.Mod.Funcs
	es := &escapeState{
		res:       res,
		summaries: make([][]bool, len(funcs)),
		index:     make(map[*ir.Func]int, len(funcs)),
	}
	for i, f := range funcs {
		es.summaries[i] = make([]bool, len(f.Params))
		es.index[f] = i
	}
	for changed := true; changed; {
		changed = false
		for i, f := range funcs {
			esc := es.escapingRegs(f)
			for k, p := range f.Params {
				if esc[p.ID] && !es.summaries[i][k] {
					es.summaries[i][k] = true
					changed = true
				}
			}
		}
	}
	out := make([]FuncFacts, len(funcs))
	for i, f := range funcs {
		facts := &out[i]
		esc := es.escapingRegs(f)
		facts.Fn = f
		facts.EscapingRegs = esc
		facts.ParamEscapes = es.summaries[i]
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if !IsAlloc(in) || len(in.Dst) == 0 {
					continue
				}
				escapes := false
				for _, d := range in.Dst {
					if esc[d.ID] {
						escapes = true
					}
				}
				facts.AllocSites = append(facts.AllocSites, AllocSite{Instr: in, Escapes: escapes})
				if !escapes {
					facts.NonEscaping = append(facts.NonEscaping, in)
				}
			}
		}
	}
	return out
}
