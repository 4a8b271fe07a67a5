package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/progen"
	"repro/internal/serve"
	"repro/internal/testprogs"
)

// Offered load of the serve workload. The rate and the latency limit
// are fixed here so every commit is measured at the same load.
const (
	// rate keeps a 2-vCPU host about half busy and gives a 30 s run
	// 4800 requests, so the p99 tail has 48 samples beyond it: at half
	// the rate the p99 of identical runs moved by ±16%, at this rate by
	// ±6%. The edit class, 9 in every 158 requests, gets about 270.
	rate = 160.0 // requests/s
	// latencyLimitMs bounds the generator: a run whose lateness tail
	// exceeds it is invalid.
	latencyLimitMs = 100.0
)

// loRequests is the request count of a run of the given length.
func loRequests(seconds float64) int { return int(rate * seconds) }

// classCounts is how many requests of each class one block of
// arrivals holds. They are the weights of progen.MixMixed, the
// repository's realistic fleet profile, by what each item asks of the
// server: a successful /run is a warm request; a successful /compile
// is a program the cache must compile, split evenly between edit
// (a changed program of a session, run) and new (an unseen program,
// compiled), the one class the profile does not tell apart; an item
// that traps or fails to compile is an error request.
func classCounts() map[string]int {
	n := map[string]int{}
	for _, it := range progen.Mixes()[progen.MixMixed] {
		switch {
		case !it.WantOK:
			n["error"] += it.Weight
		case it.Path == "/compile":
			n["compile"] += it.Weight
		default:
			n["warm"] += it.Weight
		}
	}
	n["edit"] = n["compile"] / 2
	n["new"] = n["compile"] - n["edit"]
	delete(n, "compile")
	return n
}

// classOrder fixes the order classes are laid out in a block before
// it is shuffled.
var classOrder = []string{"warm", "edit", "new", "error"}

// sreq is one prepared request with its reference result.
type sreq struct {
	Class  string
	Name   string
	Path   string
	Config string
	Body   []byte
	Want   expect
	// key identifies the program: its path, configuration and sources.
	key [32]byte
	// files are the sources, kept on the first request of each key.
	files []core.File
}

// arrival schedules request Req at offset At from the start of the
// run.
type arrival struct {
	At  time.Duration
	Req int
}

// schedule is the whole serve input, fixed before the run starts:
// set-up requests sent one at a time, then the open-loop arrivals.
type schedule struct {
	Reqs     []sreq
	Warmup   []int
	Arrivals []arrival
}

// trafficGen builds a schedule from one seed.
type trafficGen struct {
	r *rand.Rand
	s *schedule
	// oracle maps each distinct (path, config, sources) to the index of
	// the first request carrying it; its reference result is computed
	// once.
	oracle   map[[32]byte]int
	resident []program
	errProgs []program
	sessions []*session
	// newParams are the unused parameter sets for new programs, in a
	// seeded order.
	newParams []progen.Params
	newCount  int
	// picks cycles each class through its programs in a seeded order,
	// so every program gets its exact share of the run.
	picks map[string]*cycle
}

// cycle yields 0..n-1 in a seeded order, reshuffled every round.
type cycle struct {
	r     *rand.Rand
	order []int
	pos   int
}

func (c *cycle) next() int {
	if c.pos == len(c.order) {
		c.r.Shuffle(len(c.order), func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })
		c.pos = 0
	}
	c.pos++
	return c.order[c.pos-1]
}

func (g *trafficGen) pick(class string, n int) int {
	c, ok := g.picks[class]
	if !ok {
		c = &cycle{r: g.r, order: g.r.Perm(n)}
		g.picks[class] = c
	}
	return c.next()
}

// buildSchedule generates the serve input for a run of the given
// length (see loRequests).
func buildSchedule(seed int64, seconds float64) *schedule {
	g := &trafficGen{
		r:      rand.New(rand.NewSource(seed)),
		s:      &schedule{},
		oracle: map[[32]byte]int{},
		picks:  map[string]*cycle{},
	}
	jitter := func(n int) int { return n + g.r.Intn(n/50+1) }
	for _, tp := range []testprogs.Prog{
		testprogs.BenchHashMap(jitter(100)),
		testprogs.BenchMatcher(jitter(100)),
		testprogs.BenchVariants(jitter(200)),
		testprogs.BenchGenericList(jitter(100)),
	} {
		g.resident = append(g.resident, newProgram(tp.Name, []core.File{{Name: tp.Name + ".v", Source: tp.Source}}))
	}
	mixes := progen.Mixes()
	for _, it := range mixes[progen.MixCrashers] {
		g.errProgs = append(g.errProgs, newProgram(it.Name, []core.File{{Name: it.FileName, Source: it.Source}}))
	}
	for _, it := range mixes[progen.MixCompileHeavy] {
		if !it.WantOK {
			g.errProgs = append(g.errProgs, newProgram(it.Name, []core.File{{Name: it.FileName, Source: it.Source}}))
		}
	}
	for i, cfg := range []string{"full", "opt", "full", "opt"} {
		p := progen.Scale(1)
		p.Funcs += i
		p.Chains, p.ChainDepth = 4, 6
		g.sessions = append(g.sessions, newSession(fmt.Sprintf("session%d", i), cfg, p))
	}

	for _, p := range g.resident {
		g.s.Warmup = append(g.s.Warmup, g.add("warm", p.Name, "/run", "", p.Files))
	}
	for _, p := range g.errProgs {
		g.s.Warmup = append(g.s.Warmup, g.add("error", p.Name, "/run", "", p.Files))
	}
	for _, s := range g.sessions {
		g.s.Warmup = append(g.s.Warmup, g.add("edit", s.name+"@0", "/run", s.config, s.snapshot()))
	}

	g.s.Arrivals = g.arrivals(loRequests(seconds))
	g.computeReferences()
	return g.s
}

// computeReferences fills every request's expected result, computing
// each distinct program's reference once.
func (g *trafficGen) computeReferences() {
	first := make([]int, 0, len(g.oracle))
	for _, i := range g.oracle {
		first = append(first, i)
	}
	parallel(len(first), func(k int) {
		r := &g.s.Reqs[first[k]]
		if r.Path == "/compile" {
			r.Want = referenceCheck(r.files)
		} else {
			r.Want = reference(r.files)
		}
	})
	for i := range g.s.Reqs {
		r := &g.s.Reqs[i]
		if first := g.oracle[r.key]; first != i {
			r.Want = g.s.Reqs[first].Want
			r.files = nil
		}
	}
}

// arrivals draws count Poisson arrivals at rate and assigns each a
// request.
func (g *trafficGen) arrivals(count int) []arrival {
	out := make([]arrival, count)
	t := 0.0
	for i, class := range g.classes(count) {
		t += g.r.ExpFloat64() / rate
		out[i] = arrival{At: time.Duration(t * float64(time.Second)), Req: g.next(class)}
	}
	return out
}

// classes returns n class labels: consecutive blocks holding
// classCounts of each class, each block shuffled.
func (g *trafficGen) classes(n int) []string {
	counts := classCounts()
	var block []string
	for _, c := range classOrder {
		for j := 0; j < counts[c]; j++ {
			block = append(block, c)
		}
	}
	var out []string
	for len(out) < n {
		g.r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// next prepares one request of the class and returns its index.
func (g *trafficGen) next(class string) int {
	switch class {
	case "warm":
		p := g.resident[g.pick(class, len(g.resident))]
		return g.add(class, p.Name, "/run", "", p.Files)
	case "edit":
		s := g.sessions[g.pick(class, len(g.sessions))]
		files := s.edit(g.r)
		return g.add(class, fmt.Sprintf("%s@%d", s.name, s.edits), "/run", s.config, files)
	case "new":
		p := g.newProgram()
		return g.add(class, p.Name, "/compile", "", p.Files)
	default:
		p := g.errProgs[g.pick(class, len(g.errProgs))]
		return g.add(class, p.Name, "/run", "", p.Files)
	}
}

// newParamSpace is how many distinct parameter sets one pass over the
// new-program band holds (see newParamsAt).
const newParamSpace = 2 * 2 * 6 * 2 * 2 * 3 * 3 * 3

// newProgram is a progen program with parameters this schedule has
// not used yet, so the server has never seen it. The parameters stay
// in a narrow band around Scale(1) so new programs cost about the
// same to compile; each further pass over the band adds six functions.
func (g *trafficGen) newProgram() program {
	if len(g.newParams) == 0 {
		grow := 6 * (g.newCount / newParamSpace)
		for i := 0; i < newParamSpace; i++ {
			g.newParams = append(g.newParams, newParamsAt(i, grow))
		}
		g.r.Shuffle(len(g.newParams), func(i, j int) { g.newParams[i], g.newParams[j] = g.newParams[j], g.newParams[i] })
	}
	p := g.newParams[0]
	g.newParams = g.newParams[1:]
	g.newCount++
	return newProgram(fmt.Sprintf("new%d", g.newCount), []core.File{{Name: "new.v", Source: progen.Generate(p)}})
}

// newParamsAt decodes index i, in mixed radix, into one parameter set
// of the new-program band, with grow extra functions.
func newParamsAt(i, grow int) progen.Params {
	digit := func(n int) int {
		d := i % n
		i /= n
		return d
	}
	return progen.Params{
		Classes: 3 + digit(2), GenericClasses: 1 + digit(2), Funcs: 6 + grow + digit(6), GenericFuncs: 2 + digit(2),
		Insts: 2 + digit(2), TupleDepth: 1 + digit(3), Chains: 2 + digit(3), ChainDepth: 4 + digit(3),
	}
}

// add appends a request, keyed by its path, configuration and sources
// for the reference computation.
func (g *trafficGen) add(class, name, path, config string, files []core.File) int {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s", path, config)
	for _, f := range files {
		fmt.Fprintf(h, "\x00%s\x00%d\x00%s", f.Name, len(f.Source), f.Source)
	}
	var key [32]byte
	h.Sum(key[:0])
	if _, ok := g.oracle[key]; !ok {
		g.oracle[key] = len(g.s.Reqs)
	}
	req := serve.Request{Config: config}
	for _, f := range files {
		req.Files = append(req.Files, serve.FileJSON{Name: f.Name, Source: f.Source})
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a Request of strings always encodes
	}
	g.s.Reqs = append(g.s.Reqs, sreq{Class: class, Name: name, Path: path, Config: config, Body: body, key: key, files: files})
	return len(g.s.Reqs) - 1
}

// session is one developer's multi-file progen project, edited and
// resubmitted over the run.
type session struct {
	name, config string
	files        []core.File
	funcs        int
	edits        int
	fields       int
}

// newSession splits a progen program into three files: declarations
// before the worker functions, the functions, and main.
func newSession(name, config string, p progen.Params) *session {
	src := progen.Generate(p)
	i := strings.Index(src, "\ndef work0(") + 1
	j := strings.Index(src, "\ndef main(") + 1
	return &session{
		name: name, config: config, funcs: p.Funcs,
		files: []core.File{
			{Name: name + "_types.v", Source: src[:i]},
			{Name: name + "_funcs.v", Source: src[i:j]},
			{Name: name + "_main.v", Source: src[j:]},
		},
	}
}

func (s *session) snapshot() []core.File { return append([]core.File(nil), s.files...) }

// edit advances the session by one submission: every 8th resubmits
// unchanged, every 10th otherwise adds a field to a class (a
// type-level edit), and the rest change one worker function's body.
func (s *session) edit(r *rand.Rand) []core.File {
	s.edits++
	switch {
	case s.edits%8 == 0:
	case s.edits%10 == 0:
		s.fields++
		s.files[0].Source = strings.Replace(s.files[0].Source, "class Base0 {\n",
			fmt.Sprintf("class Base0 {\n\tvar pad%d: int;\n", s.fields), 1)
	default:
		re := regexp.MustCompile(fmt.Sprintf(`(def work%d\(n: int\) -> int \{\n\tvar acc = )\d+;`, r.Intn(s.funcs)))
		s.files[1].Source = re.ReplaceAllString(s.files[1].Source, "${1}"+strconv.Itoa(1+r.Intn(100000))+";")
	}
	return s.snapshot()
}
