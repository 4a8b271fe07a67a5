package opt

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mono"
	"repro/internal/norm"
	"repro/internal/parser"
	"repro/internal/src"
	"repro/internal/testprogs"
	"repro/internal/typecheck"
	"repro/internal/types"
)

// compileNorm compiles source through mono+norm, ready for opt.
func compileNorm(t *testing.T, source string) *ir.Module {
	t.Helper()
	errs := &src.ErrorList{}
	f := parser.Parse("test.v", source, errs)
	if !errs.Empty() {
		t.Fatalf("parse errors:\n%s", errs.Error())
	}
	prog := typecheck.Check([]*ast.File{f}, errs)
	if !errs.Empty() {
		t.Fatalf("check errors:\n%s", errs.Error())
	}
	mod, err := lower.Lower(context.Background(), prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	monoMod, _, err := mono.Monomorphize(context.Background(), mod, mono.Config{})
	if err != nil {
		t.Fatal(err)
	}
	normMod, _, err := norm.Normalize(context.Background(), monoMod, 1)
	if err != nil {
		t.Fatal(err)
	}
	return normMod
}

func run(t *testing.T, mod *ir.Module) string {
	t.Helper()
	var out strings.Builder
	it := interp.New(mod, interp.Options{Out: &out})
	if _, err := it.Run(); err != nil {
		t.Fatalf("run error: %v\noutput: %s", err, out.String())
	}
	return out.String()
}

// TestCorpusPreserved: optimization preserves observable behaviour on
// the whole corpus.
func TestCorpusPreserved(t *testing.T) {
	for _, p := range testprogs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			mod := compileNorm(t, p.Source)
			st, _ := Optimize(context.Background(), mod, Config{})
			if err := mod.Validate(); err != nil {
				t.Fatalf("invalid IR after optimization: %v", err)
			}
			got := run(t, mod)
			if got != p.Want {
				t.Fatalf("got %q, want %q", got, p.Want)
			}
			if st.InstrsAfter > st.InstrsBefore*2 {
				t.Errorf("optimization grew code unreasonably: %d -> %d", st.InstrsBefore, st.InstrsAfter)
			}
		})
	}
}

// TestConstantFolding: constant arithmetic folds to a constant return.
func TestConstantFolding(t *testing.T) {
	mod := compileNorm(t, `
def f() -> int {
	var a = 2 + 3 * 4;
	var b = a << 2;
	return b - 1;
}
def main() { System.puti(f()); }
`)
	st, _ := Optimize(context.Background(), mod, Config{})
	if got := run(t, mod); got != "55" {
		t.Fatalf("got %q", got)
	}
	if st.InstrsRemoved == 0 {
		t.Error("expected dead instructions removed after folding")
	}
	// f should contain no arithmetic after folding.
	for _, f := range mod.Funcs {
		if f.Name != "f" {
			continue
		}
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				switch in.Op {
				case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl:
					t.Errorf("f still contains %s after constant folding", in.Op)
				}
			}
		}
	}
}

// TestQueryFolding: prim-vs-prim queries fold, class queries stay
// dynamic (null may fail them at runtime).
func TestQueryFolding(t *testing.T) {
	mod := compileNorm(t, `
class A { }
class B extends A { }
def classify<T>(x: T) -> int {
	if (int.?(x)) return 1;
	if (bool.?(x)) return 2;
	return 0;
}
def main() {
	System.puti(classify(5));
	System.puti(classify(false));
	var a: A = B.new();
	System.putb(B.?(a));
}
`)
	st, _ := Optimize(context.Background(), mod, Config{})
	if st.QueriesFolded == 0 {
		t.Error("expected primitive queries to fold")
	}
	dynamicQueries := 0
	for _, f := range mod.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Op == ir.OpTypeQuery {
					dynamicQueries++
					if _, isClass := in.Type.(*types.Class); !isClass {
						t.Errorf("non-class query survived folding: %s", in)
					}
				}
			}
		}
	}
	if dynamicQueries == 0 {
		t.Error("class downcast query must stay dynamic")
	}
	if got := run(t, mod); got != "12true" {
		t.Fatalf("got %q", got)
	}
}

// TestUpcastElided: casts to a supertype become moves.
func TestUpcastElided(t *testing.T) {
	mod := compileNorm(t, `
class A { def id() -> int { return 1; } }
class B extends A { }
def main() {
	var b = B.new();
	var a = A.!(b);
	System.puti(a.id());
}
`)
	st, _ := Optimize(context.Background(), mod, Config{})
	if st.CastsElided == 0 {
		t.Error("upcast should be elided")
	}
	if got := run(t, mod); got != "1" {
		t.Fatalf("got %q", got)
	}
}

// TestInlining: small functions get inlined into callers.
func TestInlining(t *testing.T) {
	mod := compileNorm(t, `
def add3(x: int) -> int { return x + 3; }
def main() { System.puti(add3(add3(1))); }
`)
	st, _ := Optimize(context.Background(), mod, Config{})
	if st.Inlined == 0 {
		t.Error("expected inlining")
	}
	if got := run(t, mod); got != "7" {
		t.Fatalf("got %q", got)
	}
	// After inlining and folding, main should call nothing but the
	// builtin.
	for _, f := range mod.Funcs {
		if f.Name != "main" {
			continue
		}
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Op == ir.OpCallStatic {
					t.Errorf("main still contains a static call after inlining")
				}
			}
		}
	}
}

// TestNoInlineParamWriters: functions that assign their parameters are
// not inlined (splicing would clobber caller registers).
func TestNoInlineParamWriters(t *testing.T) {
	mod := compileNorm(t, `
def bump(x: int) -> int { x = x + 1; return x; }
def main() {
	var a = 5;
	System.puti(bump(a));
	System.puti(a);
}
`)
	Optimize(context.Background(), mod, Config{})
	if got := run(t, mod); got != "65" {
		t.Fatalf("got %q (caller register clobbered?)", got)
	}
}

// TestBranchFoldingRemovesDeadBlocks: constant conditions eliminate
// entire branches.
func TestBranchFoldingRemovesDeadBlocks(t *testing.T) {
	mod := compileNorm(t, `
def main() {
	if (1 < 2) System.puts("yes");
	else System.puts("no");
}
`)
	st, _ := Optimize(context.Background(), mod, Config{})
	if st.BranchesFolded == 0 {
		t.Error("expected the constant branch to fold")
	}
	if got := run(t, mod); got != "yes" {
		t.Fatalf("got %q", got)
	}
	for _, f := range mod.Funcs {
		if f.Name != "main" {
			continue
		}
		s := f.String()
		if strings.Contains(s, `"no"`) {
			t.Error("dead else branch survived")
		}
	}
}

// TestOptimizeIdempotent: a second run changes nothing.
func TestOptimizeIdempotent(t *testing.T) {
	p := testprogs.Get("print1_j")
	mod := compileNorm(t, p.Source)
	Optimize(context.Background(), mod, Config{})
	before := mod.NumInstrs()
	st, _ := Optimize(context.Background(), mod, Config{})
	if mod.NumInstrs() != before {
		t.Errorf("second optimize changed size: %d -> %d", before, mod.NumInstrs())
	}
	_ = st
}

// TestRoundStatsJobsDeterminism: the per-round counters are merged in
// function order like the others, so every Stats field is the same at
// jobs=1 and jobs=8; and a function that reached its fold fixpoint is
// skipped in later rounds.
func TestRoundStatsJobsDeterminism(t *testing.T) {
	for _, p := range testprogs.All() {
		t.Run(p.Name, func(t *testing.T) {
			var st [2]*Stats
			for k, jobs := range []int{1, 8} {
				s, err := Optimize(context.Background(), compileNorm(t, p.Source), Config{Jobs: jobs, Analyze: true})
				if err != nil {
					t.Fatal(err)
				}
				st[k] = s
			}
			if *st[0] != *st[1] {
				t.Errorf("stats differ:\njobs=1: %+v\njobs=8: %+v", *st[0], *st[1])
			}
			if st[0].Rounds == 0 {
				t.Error("no fold/inline round counted")
			}
			if p.Name == "classes_b1_b7" && st[0].FoldsSkipped == 0 {
				t.Errorf("no fold skipped at fixpoint: %+v", *st[0])
			}
		})
	}
}

// snapshotText renders a recorded snapshot.
func snapshotText(s *Snapshot) string {
	var b strings.Builder
	for _, p := range s.Params {
		b.WriteString(p.String() + " ")
	}
	for _, in := range s.Instrs {
		b.WriteString("\n" + in.String())
	}
	return b.String()
}

// TestSnapshotReuse: an inline candidate whose body does not change
// between rounds keeps its snapshot pointer across consecutive
// RoundRecords, and no recorded snapshot aliases the live IR.
func TestSnapshotReuse(t *testing.T) {
	mod := compileNorm(t, `
def leaf(x: int) -> int { return x + 1; }
def mid(x: int) -> int { return leaf(x) * 2; }
def top(x: int) -> int { return mid(x) - 3; }
def main() { System.puti(top(4)); }
`)
	rec := &Recording{}
	st, err := Optimize(context.Background(), mod, Config{Record: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Rounds) < 2 || st.Rounds != len(rec.Rounds) {
		t.Fatalf("want >= 2 recorded rounds matching Stats.Rounds, got %d and %d", len(rec.Rounds), st.Rounds)
	}
	if s0, s1 := rec.Rounds[0].Snaps["leaf"], rec.Rounds[1].Snaps["leaf"]; s0 == nil || s0 != s1 {
		t.Errorf("leaf's unchanged snapshot was not reused: round 0 %p, round 1 %p", s0, s1)
	}
	if st.FoldsSkipped == 0 {
		t.Errorf("no fold skipped at fixpoint: %+v", *st)
	}
	if got := run(t, mod); got != "7" {
		t.Fatalf("got %q", got)
	}
	texts := map[*Snapshot]string{}
	for _, rr := range rec.Rounds {
		for _, s := range rr.Snaps {
			texts[s] = snapshotText(s)
		}
	}
	// Scribble over every live instruction and block slot: a snapshot
	// sharing either with the live IR would change text.
	for _, f := range mod.Funcs {
		for _, blk := range f.Blocks {
			for k, in := range blk.Instrs {
				*in = ir.Instr{Op: ir.OpNop}
				blk.Instrs[k] = &ir.Instr{Op: ir.OpNop}
			}
		}
	}
	for s, want := range texts {
		if got := snapshotText(s); got != want {
			t.Errorf("recorded snapshot changed after Optimize returned:\nwas %s\nnow %s", want, got)
		}
	}
}
