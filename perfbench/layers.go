package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mono"
	"repro/internal/norm"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/src"
	"repro/internal/typecheck"
)

// stageNames are the traced compile stages in core's order.
var stageNames = []string{"parser", "typecheck", "lower", "mono", "norm", "opt", "ir.validate", "analysis"}

// stageMetric names a stage's per-layer metric: "opt.ms",
// "ir.validate_ms", "parser.alloc_mb".
func stageMetric(stage, what string) string {
	if stage == "ir.validate" {
		return stage + "_" + what
	}
	return stage + "." + what
}

// stageCounts are the exact counts one traced compile reports.
type stageCounts struct {
	instrs map[string]int // NumInstrs after lower, mono, norm, opt
	opt    opt.Stats
	norm   norm.Stats
	alloc  map[string]uint64
}

// compileStaged runs the stage functions in core's order with core's
// configuration — parse, typecheck, lower, mono, norm, opt, validate,
// analysis — recording one span per stage under parent. It must
// produce the module core.CompileFiles produces (TestStagedCompileFidelity).
func compileStaged(ctx context.Context, files []core.File, cfg core.Config, tr *tracer, parent int, key string) (*ir.Module, *stageCounts, error) {
	jobs := cfg.Jobs
	if jobs == 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	sc := &stageCounts{instrs: map[string]int{}, alloc: map[string]uint64{}}
	stage := func(name string, fn func() error) error {
		a0 := heapAllocBytes()
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		sc.alloc[name] += heapAllocBytes() - a0
		if tr != nil {
			tr.add(name, parent, key, t0, t1)
		}
		return err
	}
	errs := &src.ErrorList{}
	diags := func() error {
		errs.Sort()
		errs.Truncate(src.MaxReported)
		return errs
	}
	var parsed []*ast.File
	stage("parser", func() error {
		for _, f := range files {
			parsed = append(parsed, parser.Parse(f.Name, f.Source, errs))
		}
		return nil
	})
	if !errs.Empty() {
		return nil, sc, diags()
	}
	var prog *typecheck.Program
	stage("typecheck", func() error { prog = typecheck.Check(parsed, errs); return nil })
	if !errs.Empty() {
		return nil, sc, diags()
	}
	var mod *ir.Module
	if err := stage("lower", func() (err error) { mod, err = lower.Lower(ctx, prog, jobs); return err }); err != nil {
		return nil, sc, err
	}
	sc.instrs["lower"] = mod.NumInstrs()
	if cfg.Monomorphize {
		if err := stage("mono", func() (err error) {
			mod, _, err = mono.Monomorphize(ctx, mod, mono.Config{Jobs: jobs})
			return err
		}); err != nil {
			return nil, sc, err
		}
		sc.instrs["mono"] = mod.NumInstrs()
	}
	if cfg.Normalize {
		if err := stage("norm", func() error {
			m, st, err := norm.Normalize(ctx, mod, jobs)
			if err == nil {
				mod, sc.norm = m, *st
			}
			return err
		}); err != nil {
			return nil, sc, err
		}
		sc.instrs["norm"] = mod.NumInstrs()
	}
	if cfg.Optimize {
		if err := stage("opt", func() error {
			st, err := opt.Optimize(ctx, mod, opt.Config{Jobs: jobs, Analyze: cfg.Analyze, Profile: cfg.PGO})
			if err == nil {
				sc.opt = *st
			}
			return err
		}); err != nil {
			return nil, sc, err
		}
		sc.instrs["opt"] = mod.NumInstrs()
	}
	if err := stage("ir.validate", mod.Validate); err != nil {
		return nil, sc, fmt.Errorf("invalid IR: %w", err)
	}
	if cfg.Analyze {
		if err := stage("analysis", func() error {
			res, err := analysis.Analyze(ctx, mod, analysis.Config{Jobs: jobs})
			if err != nil {
				return err
			}
			return analysis.VerifyPromotions(mod, res)
		}); err != nil {
			return nil, sc, err
		}
	}
	return mod, sc, nil
}

// layerProbe drives a workload's programs through the compile stages
// and the engine directly, with a span around each layer call, and
// sums what each layer did. Every workload's traced run feeds its
// programs through one, so every workload reports the same per-layer
// metrics: build over its timed compiles, exec over its programs'
// compiles and runs, serve over the distinct programs its run sent.
type layerProbe struct {
	tr *tracer
	// The compile layers.
	compiles              int
	compileNs             float64
	pairPlain, pairTraced float64
	instrs, counts        map[string]int
	alloc                 map[string]uint64
	// The engine.
	runs                         int
	translate, execute, heap, ga []float64
	execNs                       float64
	steps                        int64
}

func newLayerProbe(tr *tracer) *layerProbe {
	return &layerProbe{tr: tr, instrs: map[string]int{}, counts: map[string]int{}, alloc: map[string]uint64{}}
}

// compile compiles files twice back to back: through compileStaged,
// as a "compile" span with one child per stage, and untraced with
// core.CompileFiles, the untraced one first on even calls and second
// on odd ones. trace.overhead_pct compares the two compiles of each
// pair, so a drift in the host's speed cancels out. It returns the
// staged compile's module, which the caller checks.
func (lp *layerProbe) compile(files []core.File, cfg core.Config, key string) (*ir.Module, error) {
	var plain time.Duration
	var plainErr error
	untraced := func() {
		t0 := time.Now()
		_, plainErr = core.CompileFiles(files, cfg)
		plain = time.Since(t0)
	}
	if lp.compiles%2 == 0 {
		untraced()
	}
	t0 := time.Now()
	id := lp.tr.open("compile", 0, key, t0)
	mod, sc, err := compileStaged(context.Background(), files, cfg, lp.tr, id, key)
	t1 := time.Now()
	lp.tr.close(id, t1)
	if lp.compiles%2 == 1 {
		untraced()
	}
	lp.compiles++
	if err == nil && plainErr == nil {
		lp.pairPlain += float64(plain)
		lp.pairTraced += float64(t1.Sub(t0))
	}
	lp.compileNs += float64(t1.Sub(t0))
	for k, n := range sc.instrs {
		lp.instrs[k] += n
	}
	for k, n := range sc.alloc {
		lp.alloc[k] += n
	}
	lp.counts["opt.inlined"] += sc.opt.Inlined
	lp.counts["opt.devirtualized"] += sc.opt.Devirtualized
	lp.counts["opt.devirt_indirect"] += sc.opt.DevirtIndirect
	lp.counts["opt.stack_promoted"] += sc.opt.StackPromoted
	lp.counts["opt.pure_calls_removed"] += sc.opt.PureCallsRemoved
	lp.counts["norm.tuples_eliminated"] += sc.norm.TuplesEliminated
	return mod, err
}

// run executes mod on the bytecode engine as a "run" span with a
// "translate" child (engine.Compile) and an "execute" child
// (engine.New + Run), and returns the result with its step count for
// the caller to check.
func (lp *layerProbe) run(mod *ir.Module, key string) (expect, int64) {
	t0 := time.Now()
	id := lp.tr.open("run", 0, key, t0)
	prog := engine.Compile(mod)
	t1 := time.Now()
	lp.tr.add("translate", id, key, t0, t1)
	var out strings.Builder
	a0 := heapAllocBytes()
	t2 := time.Now()
	e := engine.New(prog, interp.Options{Out: &out, Ctx: context.Background()})
	_, err := e.Run()
	t3 := time.Now()
	a1 := heapAllocBytes()
	lp.tr.add("execute", id, key, t2, t3)
	lp.tr.close(id, t3)
	st := e.Stats()
	lp.runs++
	lp.translate = append(lp.translate, ms(t1.Sub(t0)))
	lp.execute = append(lp.execute, ms(t3.Sub(t2)))
	lp.heap = append(lp.heap, mb(uint64(st.HeapBytes)))
	lp.ga = append(lp.ga, mb(a1-a0))
	lp.execNs += float64(t3.Sub(t2))
	lp.steps += st.Steps
	return expect{Output: out.String(), Trap: trapName(err)}, st.Steps
}

// report adds the per-layer metrics. Instruction, optimizer and step
// counts are per pass over the workload's program set: compilePasses
// passes went through compile and runPasses through run.
func (lp *layerProbe) report(o *outcome, compilePasses, runPasses int) {
	spans := lp.tr.snapshot()
	self := selfTimes(spans)
	stageSelf := map[string]float64{}
	var stageNs float64
	for _, s := range spans {
		if s.Parent != 0 && spans[s.Parent-1].Name == "compile" {
			stageSelf[s.Name] += float64(self[s.ID])
			stageNs += float64(s.dur())
		}
	}
	n := float64(lp.compiles)
	for _, st := range stageNames {
		o.metric(stageMetric(st, "ms"), stageSelf[st]/n/1e6, "ms")
		o.metric(stageMetric(st, "alloc_mb"), mb(lp.alloc[st])/n, "MB")
	}
	perPass := func(x int64, passes int) float64 { return float64(x) / float64(passes) }
	for _, st := range []string{"lower", "mono", "norm", "opt"} {
		o.metric(st+".instrs", perPass(int64(lp.instrs[st]), compilePasses), "count")
	}
	o.metric("mono.expansion", float64(lp.instrs["mono"])/float64(lp.instrs["lower"]), "ratio")
	for _, k := range []string{"opt.inlined", "opt.devirtualized", "opt.devirt_indirect", "opt.stack_promoted", "opt.pure_calls_removed", "norm.tuples_eliminated"} {
		o.metric(k, perPass(int64(lp.counts[k]), compilePasses), "count")
	}
	o.metric("compile.stage_coverage_pct", 100*stageNs/lp.compileNs, "%")
	// Both compiles of a pair cover the same lines, so the ratio of
	// their times is the ratio of their lines/s.
	o.metric("trace.overhead_pct", 100*(lp.pairTraced/lp.pairPlain-1), "%")
	o.metric("engine.translate_ms", median(lp.translate), "ms")
	o.metric("engine.execute_ms", median(lp.execute), "ms")
	o.metric("engine.steps", perPass(lp.steps, runPasses), "count")
	o.metric("engine.ns_per_step", lp.execNs/float64(lp.steps), "ns")
	o.metric("engine.heap_mb", median(lp.heap), "MB")
	o.metric("engine.go_alloc_mb", median(lp.ga), "MB")
	o.context["probe_compiles"] = lp.compiles
	o.context["probe_runs"] = lp.runs
}
