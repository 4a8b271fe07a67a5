package main

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/src"
)

// expect is the reference result of one program: its System output,
// the trap it ends in ("" for none), or the diagnostics that stop it
// compiling. It never comes from the configuration under test.
type expect struct {
	Output string
	Trap   string
	Diags  []string
}

// reference compiles files with core.Reference() and runs the result
// on the switch interpreter — the paper's reference semantics, an
// independent path from the optimizing pipeline and bytecode engine
// every workload measures.
func reference(files []core.File) expect {
	cfg := core.Reference()
	cfg.Engine = core.EngineSwitch
	comp, err := core.CompileFiles(files, cfg)
	if err != nil {
		return expect{Diags: diagStrings(err)}
	}
	res := comp.Run()
	return expect{Output: res.Output, Trap: trapName(res.Err)}
}

// setReferences computes the reference result of every program whose
// expected result did not come with it.
func setReferences(progs []program) {
	parallel(len(progs), func(i int) {
		if p := &progs[i]; !p.Given {
			p.Want = reference(p.Files)
		}
	})
}

// parallel calls f(0) to f(n-1) on one worker per CPU.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// referenceCheck is reference for compile-only requests: the
// diagnostics of the front end alone (nil when the program compiles).
func referenceCheck(files []core.File) expect {
	if _, err := core.CheckFiles(files); err != nil {
		return expect{Diags: diagStrings(err)}
	}
	return expect{}
}

// diagStrings renders a compile error the way serve reports it:
// "pos: msg" per diagnostic, or the bare error for anything else.
func diagStrings(err error) []string {
	var list *src.ErrorList
	if !errors.As(err, &list) {
		return []string{"error: " + err.Error()}
	}
	out := make([]string, len(list.Errors))
	for i, e := range list.Errors {
		out[i] = diagString(posString(e.Pos), e.Msg)
	}
	return out
}

func posString(p src.Pos) string {
	if !p.IsValid() {
		return ""
	}
	return p.String()
}

func diagString(pos, msg string) string {
	if pos == "" {
		return msg
	}
	return pos + ": " + msg
}

// trapName is the Virgil exception name of a run error, "" for none;
// any other error is reported by its text so it cannot match a trap.
func trapName(err error) string {
	if err == nil {
		return ""
	}
	var ve *interp.VirgilError
	if errors.As(err, &ve) {
		return ve.Name
	}
	return "error: " + err.Error()
}

// mismatch describes how got differs from want, "" when they agree.
func (want expect) mismatch(got expect) string {
	switch {
	case strings.Join(want.Diags, "\n") != strings.Join(got.Diags, "\n"):
		return "diagnostics differ: want " + quoteList(want.Diags) + ", got " + quoteList(got.Diags)
	case want.Trap != got.Trap:
		return "trap differs: want " + quote(want.Trap) + ", got " + quote(got.Trap)
	case want.Output != got.Output:
		return "output differs: want " + quote(want.Output) + ", got " + quote(got.Output)
	}
	return ""
}

func quote(s string) string {
	if len(s) > 80 {
		s = s[:80] + "..."
	}
	return "\"" + s + "\""
}

func quoteList(ss []string) string { return quote(strings.Join(ss, "; ")) }
