package analysis

import (
	"context"

	"repro/internal/ir"
	"repro/internal/par"
)

// Config controls how Analyze runs. The zero value is valid.
type Config struct {
	// Jobs bounds the per-function fan-out (the loop bit); <= 1 runs
	// inline. Whole-program phases (call graph, escape and effect
	// fixpoints) are sequential barriers either way, so results are
	// identical at every worker count.
	Jobs int
}

// AllocSite is one heap-charged allocation instruction and its escape
// verdict.
type AllocSite struct {
	Instr   *ir.Instr
	Escapes bool
}

// FuncFacts is everything the analyses learned about one function.
type FuncFacts struct {
	Fn *ir.Func
	// HasLoop reports whether the function's block graph has a cycle
	// (some block of BuildCFG(Fn) is InLoop), the only CFG fact any
	// compile-time pass reads.
	HasLoop bool
	// Effects is the interprocedural effect summary.
	Effects Effect
	// ParamEscapes[i] reports whether parameter i may escape the
	// function (including by being returned).
	ParamEscapes []bool
	// EscapingRegs is the full may-escape register set, indexed by
	// Reg.ID.
	EscapingRegs []bool
	// AllocSites lists every heap-charged allocation in instruction
	// order with its verdict; NonEscaping is the subset that stays
	// frame-local.
	AllocSites  []AllocSite
	NonEscaping []*ir.Instr
}

// Result is the whole-program analysis output.
type Result struct {
	Mod       *ir.Module
	CallGraph *CallGraph
	// Funcs is index-aligned with Mod.Funcs.
	Funcs []*FuncFacts

	byFn map[*ir.Func]*FuncFacts
}

// FactsFor returns the facts of fn, or nil for a function outside the
// analyzed module.
func (r *Result) FactsFor(fn *ir.Func) *FuncFacts { return r.byFn[fn] }

// Intervals computes the value ranges of fn's integer registers over a
// freshly built CFG, or returns nil for a function outside the
// analyzed module. Only the analyze report reads intervals, so Analyze
// does not compute them; each call recomputes.
func (r *Result) Intervals(fn *ir.Func) map[*ir.Reg]Interval {
	if r.byFn[fn] == nil {
		return nil
	}
	return computeIntervals(fn, BuildCFG(fn))
}

// Analyze runs the whole analysis stack over mod: the per-function loop
// bit, the call graph, then the escape and effect fixpoints. It builds
// no CFGs; consumers that need a graph call BuildCFG themselves.
// It never mutates mod, so stale results can coexist with further
// transformation — consumers re-run Analyze after changing the IR.
func Analyze(ctx context.Context, mod *ir.Module, cfg Config) (*Result, error) {
	res := &Result{
		Mod:   mod,
		Funcs: make([]*FuncFacts, len(mod.Funcs)),
		byFn:  make(map[*ir.Func]*FuncFacts, len(mod.Funcs)),
	}
	// Per-function, embarrassingly parallel work: workers write only
	// into their own index slot (the par.Run determinism contract).
	err := par.Run(ctx, "analysis", cfg.Jobs, len(mod.Funcs), func(i int) error {
		f := mod.Funcs[i]
		res.Funcs[i] = &FuncFacts{Fn: f, HasLoop: hasLoop(f)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, f := range mod.Funcs {
		res.byFn[f] = res.Funcs[i]
	}
	// Whole-program phases; each is deterministic given the module.
	res.CallGraph = buildCallGraph(mod)
	computeEscapes(res)
	computeEffects(res)
	return res, nil
}

// hasLoop reports whether f's block graph has a cycle, by a colouring
// DFS from every block: an edge back to a block still on the DFS stack
// closes a cycle. Like BuildCFG, it counts unreachable blocks and
// ignores edges to blocks outside f.
func hasLoop(f *ir.Func) bool {
	if len(f.Blocks) == 1 {
		if t := f.Blocks[0].Terminator(); t != nil {
			for _, nb := range t.Blocks {
				if nb == f.Blocks[0] {
					return true
				}
			}
		}
		return false
	}
	index := make(map[*ir.Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		index[b] = i
	}
	const (
		white = iota
		grey  // on the DFS stack
		black // finished
	)
	colour := make([]uint8, len(f.Blocks))
	type frame struct {
		succs []*ir.Block
		b     int
	}
	var stack []frame
	push := func(b int) {
		colour[b] = grey
		var succs []*ir.Block
		if t := f.Blocks[b].Terminator(); t != nil {
			succs = t.Blocks
		}
		stack = append(stack, frame{succs: succs, b: b})
	}
	for root := range f.Blocks {
		if colour[root] != white {
			continue
		}
		push(root)
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if len(top.succs) == 0 {
				colour[top.b] = black
				stack = stack[:len(stack)-1]
				continue
			}
			nb := top.succs[0]
			top.succs = top.succs[1:]
			j, ok := index[nb]
			if !ok {
				continue
			}
			switch colour[j] {
			case grey:
				return true
			case white:
				push(j)
			}
		}
	}
	return false
}
