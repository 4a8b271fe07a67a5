package analysis

import (
	"context"

	"repro/internal/ir"
	"repro/internal/par"
)

// Config controls how Analyze runs. The zero value is valid.
type Config struct {
	// Jobs bounds the per-function fan-out (CFG construction); <= 1
	// runs inline. Whole-program phases (call graph, escape and effect
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
	Fn  *ir.Func
	CFG *CFG
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

// Intervals computes the value ranges of fn's integer registers from
// its already built CFG, or returns nil for a function outside the
// analyzed module. Only the analyze report reads intervals, so Analyze
// does not compute them; each call recomputes.
func (r *Result) Intervals(fn *ir.Func) map[*ir.Reg]Interval {
	facts := r.byFn[fn]
	if facts == nil {
		return nil
	}
	return computeIntervals(fn, facts.CFG)
}

// Analyze runs the whole analysis stack over mod: per-function CFGs,
// the call graph, then the escape and effect fixpoints.
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
		res.Funcs[i] = &FuncFacts{Fn: f, CFG: BuildCFG(f)}
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
