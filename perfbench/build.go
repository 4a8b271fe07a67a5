package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/testprogs"
)

// program is one benchmark input with its reference result.
type program struct {
	Name  string
	Files []core.File
	Lines int
	Want  expect
	// Given is set when Want came with the input (testprogs.Prog.Want)
	// rather than from setReferences.
	Given bool
}

func newProgram(name string, files []core.File) program {
	p := program{Name: name, Files: files}
	for _, f := range files {
		p.Lines += strings.Count(f.Source, "\n")
	}
	return p
}

// buildPrograms is the build workload's program set: progen programs
// from Scale(1) to Scale(16), the even scales with call chains, each
// perturbed by the seed; the testprogs corpus; and the example
// programs under examples/virgil, read relative to the working
// directory (the repository root). Only the corpus programs with a
// hand-written expectation carry their reference result; setReferences
// computes the others.
func buildPrograms(seed int64) ([]program, error) {
	r := rand.New(rand.NewSource(seed))
	var progs []program
	for k := 1; k <= 16; k++ {
		p := progen.Scale(k)
		p.Funcs += r.Intn(3)
		p.Classes += r.Intn(2)
		p.GenericFuncs += r.Intn(2)
		if k%2 == 0 {
			p.Chains, p.ChainDepth = 2*k+r.Intn(3), 6
		}
		progs = append(progs, newProgram(fmt.Sprintf("progen_scale%02d", k),
			[]core.File{{Name: "gen.v", Source: progen.Generate(p)}}))
	}
	for _, tp := range testprogs.All() {
		p := newProgram(tp.Name, []core.File{{Name: tp.Name + ".v", Source: tp.Source}})
		if tp.Want != "" {
			p.Want, p.Given = expect{Output: tp.Want}, true
		}
		progs = append(progs, p)
	}
	paths, err := filepath.Glob(filepath.Join("examples", "virgil", "*.v"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no examples/virgil/*.v under the working directory; run from the repository root")
	}
	sort.Strings(paths)
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("read example: %w", err)
		}
		name := filepath.Base(path)
		progs = append(progs, newProgram("example_"+strings.TrimSuffix(name, ".v"),
			[]core.File{{Name: name, Source: string(b)}}))
	}
	return progs, nil
}

// buildState is the set-up of the build workload: the programs with
// their reference results and the verified module of each.
type buildState struct {
	progs []program
	cfg   core.Config
	r     *rand.Rand
	v     *verifier
}

// setupBuild is one cold pass over the program set with the
// configuration under test: it compiles each program, runs the module
// against the reference result, and keeps the module's digest, which
// every timed compile of the program must then reproduce.
func setupBuild(progs []program, seed int64) (*buildState, error) {
	b := &buildState{progs: progs, cfg: core.Compiled(), r: rand.New(rand.NewSource(seed + 1)), v: newVerifier()}
	for i := range b.progs {
		p := &b.progs[i]
		comp, err := core.CompileFiles(p.Files, b.cfg)
		var mod *ir.Module
		if comp != nil {
			mod = comp.Module
		}
		if msg := b.v.check(p, mod, err); msg != "" {
			return nil, fmt.Errorf("warm-up compile of %s: %s", p.Name, msg)
		}
	}
	return b, nil
}

// verifier checks each compile's result: the first module of every
// program must run to the reference result, and every later compile
// of it must produce the same module text.
type verifier struct {
	digests map[string][32]byte
}

func newVerifier() *verifier { return &verifier{digests: map[string][32]byte{}} }

func (v *verifier) check(p *program, mod *ir.Module, err error) string {
	if err != nil {
		return p.Want.mismatch(expect{Diags: diagStrings(err)})
	}
	if p.Want.Diags != nil {
		return p.Want.mismatch(expect{})
	}
	d := sha256.Sum256([]byte(mod.String()))
	if want, ok := v.digests[p.Name]; ok {
		if d != want {
			return "compiled module differs from this program's earlier compile"
		}
		return ""
	}
	if msg := p.Want.mismatch(runModule(mod)); msg != "" {
		return msg
	}
	v.digests[p.Name] = d
	return ""
}

// runModule executes a compiled module on the bytecode engine, the
// default engine of core.Compiled().
func runModule(mod *ir.Module) expect {
	var out strings.Builder
	e := engine.New(engine.Compile(mod), interp.Options{Out: &out, Ctx: context.Background()})
	_, err := e.Run()
	return expect{Output: out.String(), Trap: trapName(err)}
}

// compileOnce compiles p with core.CompileFiles and checks the result.
// It returns the module with its compile time and Go heap allocation,
// or ok false when the compile failed the check.
func (b *buildState) compileOnce(o *outcome, p *program) (mod *ir.Module, dt time.Duration, alloc uint64, ok bool) {
	a0 := heapAllocBytes()
	t0 := time.Now()
	comp, err := core.CompileFiles(p.Files, b.cfg)
	dt = time.Since(t0)
	alloc = heapAllocBytes() - a0
	o.attempted++
	if comp != nil {
		mod = comp.Module
	}
	if msg := b.v.check(p, mod, err); msg != "" {
		o.fail(p.Name, msg)
		return nil, dt, alloc, false
	}
	return mod, dt, alloc, true
}

// compilePass compiles every program once, in a seeded order, and
// hands each verified compile to record.
func (b *buildState) compilePass(o *outcome, sm *speedMeter, record func(p *program, mod *ir.Module, dt time.Duration, alloc uint64)) {
	for _, i := range b.r.Perm(len(b.progs)) {
		sm.tick()
		p := &b.progs[i]
		if mod, dt, alloc, ok := b.compileOnce(o, p); ok {
			record(p, mod, dt, alloc)
		}
	}
}

// measure compiles whole passes over the program set in a seeded
// order, with core.CompileFiles, until d has elapsed or one more pass
// would reach p99Samples compiles.
func (b *buildState) measure(d time.Duration, sm *speedMeter) *outcome {
	maxPasses := (p99Samples - 1) / len(b.progs)
	o := newOutcome()
	var times, allocs []float64
	var lines, secs float64
	perProg := map[string][]float64{}
	codeInstrs := -1
	start := time.Now()
	for pass := 0; pass == 0 || (time.Since(start) < d && pass < maxPasses); pass++ {
		instrs := 0
		b.compilePass(o, sm, func(p *program, mod *ir.Module, dt time.Duration, alloc uint64) {
			times = append(times, ms(dt))
			allocs = append(allocs, mb(alloc))
			perProg[p.Name] = append(perProg[p.Name], ms(dt))
			lines += float64(p.Lines)
			secs += dt.Seconds()
			if mod != nil {
				instrs += mod.NumInstrs()
			}
		})
		if codeInstrs < 0 {
			codeInstrs = instrs
		} else if instrs != codeInstrs && o.failed == 0 {
			o.fail("code_instrs", fmt.Sprintf("final IR size changed between passes: %d then %d", codeInstrs, instrs))
		}
	}
	o.opMetrics(times, perProg)
	o.metric("op_alloc_mb", median(allocs), "MB")
	o.metric("code_instrs", float64(codeInstrs), "count")
	o.context["compile_lines_per_s"] = lines / secs
	return o
}

// measureTraced runs whole passes over the program set in a seeded
// order until d has elapsed, each compile through the layer probe and
// checked like an untraced one, and then runs every program's module
// once on the engine through the probe.
func (b *buildState) measureTraced(d time.Duration, tr *tracer, sm *speedMeter) *outcome {
	o := newOutcome()
	lp := newLayerProbe(tr)
	mods := make([]*ir.Module, len(b.progs))
	passes := 0
	start := time.Now()
	for ; passes == 0 || time.Since(start) < d; passes++ {
		for _, i := range b.r.Perm(len(b.progs)) {
			sm.tick()
			p := &b.progs[i]
			mod, err := lp.compile(p.Files, b.cfg, fmt.Sprintf("%s#%d", p.Name, passes))
			o.attempted++
			if msg := b.v.check(p, mod, err); msg != "" {
				o.fail(p.Name, "staged compile: "+msg)
				continue
			}
			mods[i] = mod
		}
	}
	for i, mod := range mods {
		if mod == nil {
			continue // failed above, or a program that does not compile
		}
		p := &b.progs[i]
		got, _ := lp.run(mod, p.Name)
		o.attempted++
		if msg := p.Want.mismatch(got); msg != "" {
			o.fail(p.Name, "engine run: "+msg)
		}
	}
	lp.report(o, passes, 1)
	noServer(o)
	o.context["traced_passes"] = passes
	return o
}
