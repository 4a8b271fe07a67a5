package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/testprogs"
)

// execN is the base iteration count of the exec programs, the one the
// repository's E1-E6 experiments use.
const execN = 10000

// execPrograms are the paper's bench programs at the E1-E6 sizes, each
// grown by a seeded 0-4%, without their reference results
// (setReferences).
func execPrograms(seed int64) []program {
	r := rand.New(rand.NewSource(seed))
	size := func(base int) int { return base + r.Intn(base/25+1) }
	var progs []program
	for _, tp := range []testprogs.Prog{
		testprogs.BenchTupleSmall(size(execN)),
		testprogs.BenchTupleLarge(size(execN / 4)),
		testprogs.BenchGenericList(size(execN / 4)),
		testprogs.BenchHashMap(size(execN / 2)),
		testprogs.BenchPrint1(size(execN)),
		testprogs.BenchDirect(size(execN)),
		testprogs.BenchMatcher(size(execN / 2)),
		testprogs.BenchVariants(size(execN)),
		testprogs.BenchClosureChurn(size(execN)),
		testprogs.BenchObjectChurn(size(execN)),
	} {
		progs = append(progs, newProgram(tp.Name, []core.File{{Name: tp.Name + ".v", Source: tp.Source}}))
	}
	return progs
}

// execProg is one exec program compiled during set-up.
type execProg struct {
	program
	comp *core.Compilation
}

type execState struct {
	progs []execProg
}

// setupExec compiles every program once with the full configuration
// and runs it once, checked against its reference result, so the
// bytecode translation is cached on the Compilation before timing
// starts.
func setupExec(progs []program) (*execState, error) {
	s := &execState{}
	for _, p := range progs {
		comp, err := core.CompileFiles(p.Files, core.Compiled())
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.Name, err)
		}
		res := comp.Run()
		if msg := p.Want.mismatch(expect{Output: res.Output, Trap: trapName(res.Err)}); msg != "" {
			return nil, fmt.Errorf("warm-up run of %s: %s", p.Name, msg)
		}
		s.progs = append(s.progs, execProg{program: p, comp: comp})
	}
	return s, nil
}

// measure runs the programs round-robin, one caller, until d has
// elapsed or one more round would reach p99.9 samples, and checks
// every run against the reference.
func (s *execState) measure(d time.Duration, sm *speedMeter) *outcome {
	maxRounds := (10*p99Samples - 1) / len(s.progs)
	o := newOutcome()
	var all, allocs []float64
	perProg := map[string][]float64{}
	start := time.Now()
	rounds := 0
	for ; rounds == 0 || (time.Since(start) < d && rounds < maxRounds); rounds++ {
		for i := range s.progs {
			sm.tick()
			p := &s.progs[i]
			a0 := heapAllocBytes()
			t0 := time.Now()
			res := p.comp.Run()
			dt := time.Since(t0)
			alloc := heapAllocBytes() - a0
			o.attempted++
			if msg := p.Want.mismatch(expect{Output: res.Output, Trap: trapName(res.Err)}); msg != "" {
				o.fail(p.Name, msg)
				continue
			}
			all = append(all, ms(dt))
			allocs = append(allocs, mb(alloc))
			perProg[p.Name] = append(perProg[p.Name], ms(dt))
		}
	}
	o.opMetrics(all, perProg)
	o.metric("op_alloc_mb", median(allocs), "MB")
	o.metric("code_instrs", float64(s.codeInstrs()), "count")
	o.context["rounds"] = rounds
	return o
}

// codeInstrs is the final IR size summed over the programs.
func (s *execState) codeInstrs() int {
	n := 0
	for _, p := range s.progs {
		n += p.comp.Module.NumInstrs()
	}
	return n
}

// execCompilePasses is how many times a traced run compiles each
// program through the layer probe.
const execCompilePasses = 3

// measureTraced compiles every program execCompilePasses times
// through the layer probe, checking each module's size against the
// set-up compile, then runs the set-up modules round-robin through
// the probe until d has elapsed.
func (s *execState) measureTraced(d time.Duration, tr *tracer, sm *speedMeter) *outcome {
	o := newOutcome()
	lp := newLayerProbe(tr)
	for pass := 0; pass < execCompilePasses; pass++ {
		for i := range s.progs {
			p := &s.progs[i]
			mod, err := lp.compile(p.Files, core.Compiled(), fmt.Sprintf("%s#%d", p.Name, pass))
			o.attempted++
			switch {
			case err != nil:
				o.fail(p.Name, "staged compile: "+err.Error())
			case mod.NumInstrs() != p.comp.Module.NumInstrs():
				o.fail(p.Name, fmt.Sprintf("staged compile has %d instructions, core's %d", mod.NumInstrs(), p.comp.Module.NumInstrs()))
			}
		}
	}
	steps := make([]int64, len(s.progs))
	rounds := 0
	start := time.Now()
	for ; rounds == 0 || time.Since(start) < d; rounds++ {
		for i := range s.progs {
			sm.tick()
			p := &s.progs[i]
			got, n := lp.run(p.comp.Module, fmt.Sprintf("%s#%d", p.Name, rounds))
			o.attempted++
			if msg := p.Want.mismatch(got); msg != "" {
				o.fail(p.Name, msg)
				continue
			}
			if rounds == 0 {
				steps[i] = n
			} else if n != steps[i] {
				o.fail(p.Name, fmt.Sprintf("step count changed between runs: %d then %d", steps[i], n))
			}
		}
	}
	lp.report(o, execCompilePasses, rounds)
	noServer(o)
	perProg := map[string]int64{}
	for i, p := range s.progs {
		perProg[p.Name] = steps[i]
	}
	o.context["engine_steps"] = perProg
	o.context["rounds"] = rounds
	return o
}
