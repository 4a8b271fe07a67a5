package analysis_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mono"
	"repro/internal/norm"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/progen"
	"repro/internal/src"
	"repro/internal/testprogs"
	"repro/internal/typecheck"
)

// referencePrograms is the testprogs corpus, the example programs and
// the progen chain programs at scales 4, 8 and 16.
func referencePrograms(t *testing.T) []testprogs.Prog {
	t.Helper()
	progs := testprogs.All()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "virgil", "*.v"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		t.Fatal("no example programs found; expected examples/virgil/*.v")
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, testprogs.Prog{Name: "examples/" + filepath.Base(p), Source: string(b)})
	}
	for _, k := range []int{4, 8, 16} {
		p := progen.Scale(k)
		p.Chains, p.ChainDepth = 2*k, 6
		progs = append(progs, testprogs.Prog{
			Name:   fmt.Sprintf("progen_scale%02d_chains", k),
			Source: progen.Generate(p),
		})
	}
	return progs
}

// forEachStage runs source through lower, mono, norm and the
// optimizer (analysis passes on), calling check on the module after
// each stage before the next stage runs.
func forEachStage(t *testing.T, source string, check func(stage string, mod *ir.Module)) {
	t.Helper()
	ctx := context.Background()
	errs := &src.ErrorList{}
	f := parser.Parse("test.v", source, errs)
	if !errs.Empty() {
		t.Fatalf("parse errors:\n%s", errs.Error())
	}
	prog := typecheck.Check([]*ast.File{f}, errs)
	if !errs.Empty() {
		t.Fatalf("check errors:\n%s", errs.Error())
	}
	mod, err := lower.Lower(ctx, prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("lowered", mod)
	if mod, _, err = mono.Monomorphize(ctx, mod, mono.Config{}); err != nil {
		t.Fatal(err)
	}
	check("mono", mod)
	if mod, _, err = norm.Normalize(ctx, mod, 1); err != nil {
		t.Fatal(err)
	}
	check("norm", mod)
	if _, err := opt.Optimize(ctx, mod, opt.Config{Analyze: true}); err != nil {
		t.Fatal(err)
	}
	check("optimized", mod)
}

// TestAnalyzeMatchesReferences checks Analyze's change-driven facts
// against test-local references on every function of the reference
// programs at every stage: the escape facts against the full-sweep
// fixpoint it replaced, and HasLoop against BuildCFG's loop marks.
func TestAnalyzeMatchesReferences(t *testing.T) {
	for _, p := range referencePrograms(t) {
		t.Run(p.Name, func(t *testing.T) {
			forEachStage(t, p.Source, func(stage string, mod *ir.Module) {
				res, err := analysis.Analyze(context.Background(), mod, analysis.Config{Jobs: 2})
				if err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				ref := analysis.ReferenceEscapes(res)
				for i, f := range mod.Funcs {
					got, want := res.Funcs[i], &ref[i]
					for _, c := range []struct {
						field     string
						got, want any
					}{
						{"ParamEscapes", got.ParamEscapes, want.ParamEscapes},
						{"EscapingRegs", got.EscapingRegs, want.EscapingRegs},
						{"AllocSites", got.AllocSites, want.AllocSites},
						{"NonEscaping", got.NonEscaping, want.NonEscaping},
					} {
						if !reflect.DeepEqual(c.got, c.want) {
							t.Errorf("%s: %s: %s = %v, reference %v", stage, f.Name, c.field, c.got, c.want)
						}
					}
					inLoop := false
					for _, b := range analysis.BuildCFG(f).InLoop {
						inLoop = inLoop || b
					}
					if got.HasLoop != inLoop {
						t.Errorf("%s: %s: HasLoop = %v, BuildCFG InLoop says %v", stage, f.Name, got.HasLoop, inLoop)
					}
				}
			})
		})
	}
}
