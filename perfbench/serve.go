package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// requestIDHeader carries the client's request ID to the traced
// handler wrapper, which joins server time to the client span.
const requestIDHeader = "X-Bench-Request-Id"

// client is the open-loop load generator: at most len(slots)
// connections, each request timed from its scheduled send time.
type client struct {
	url   string
	hc    *http.Client
	tr    *http.Transport
	slots chan struct{}
}

func newClient(url string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{url: url, hc: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr, slots: make(chan struct{}, conns)}
}

// sample is one sent request and what came back.
type sample struct {
	req *sreq
	id  string
	// due is the scheduled send time, start when the sender woke,
	// sent when it held a connection slot, done when the reply was read.
	due, start, sent, done time.Time
	status                 int
	resp                   serve.Response
	err                    error
}

func (s *sample) latency() time.Duration  { return s.done.Sub(s.due) }
func (s *sample) late() time.Duration     { return s.start.Sub(s.due) }
func (s *sample) connWait() time.Duration { return s.sent.Sub(s.start) }

// check compares the reply with the request's reference result.
func (s *sample) check() string {
	switch {
	case s.err != nil:
		return s.err.Error()
	case s.resp.Error != nil:
		return fmt.Sprintf("HTTP %d %s error: %s", s.status, s.resp.Error.Kind, s.resp.Error.Msg)
	case s.status != http.StatusOK:
		return fmt.Sprintf("HTTP %d", s.status)
	}
	got := expect{Output: s.resp.Output}
	if s.resp.Trap != nil {
		got.Trap = s.resp.Trap.Name
	}
	for _, d := range s.resp.Diagnostics {
		got.Diags = append(got.Diags, diagString(d.Pos, d.Msg))
	}
	return s.req.Want.mismatch(got)
}

func (c *client) do(s *sample) {
	s.start = time.Now()
	c.slots <- struct{}{}
	s.sent = time.Now()
	s.status, s.err = c.post(s.req.Path, s.req.Body, s.id, &s.resp)
	<-c.slots
	s.done = time.Now()
}

func (c *client) post(path string, body []byte, id string, into *serve.Response) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return res.StatusCode, err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return res.StatusCode, fmt.Errorf("decode reply: %w", err)
	}
	return res.StatusCode, nil
}

// runArrivals sends every arrival at its scheduled time, whatever the
// state of earlier requests, and waits for all replies.
func (c *client) runArrivals(arrivals []arrival, reqs []sreq, traced bool) []sample {
	samples := make([]sample, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for i, a := range arrivals {
		s := &samples[i]
		s.req = &reqs[a.Req]
		s.due = start.Add(a.At)
		if traced {
			s.id = fmt.Sprintf("req-%d", i)
		}
		if d := time.Until(s.due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(s *sample) {
			defer wg.Done()
			c.do(s)
		}(s)
	}
	wg.Wait()
	return samples
}

// handlerSpans wraps the server's handler and records, per request
// ID, when the handler ran.
type handlerSpans struct {
	inner http.Handler
	mu    sync.Mutex
	m     map[string][2]time.Time
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	t1 := time.Now()
	if id := r.Header.Get(requestIDHeader); id != "" {
		h.mu.Lock()
		h.m[id] = [2]time.Time{t0, t1}
		h.mu.Unlock()
	}
}

func (h *handlerSpans) get(id string) ([2]time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	iv, ok := h.m[id]
	return iv, ok
}

// serveState is one in-process serve.Server with default Config on a
// loopback listener, its client, and the schedule.
type serveState struct {
	sched  *schedule
	srv    *serve.Server
	cl     *client
	spans  *handlerSpans
	served chan error
	// sizes is the final IR size the server reported for each program
	// it compiled in set-up.
	sizes map[[32]byte]int
}

// setupServe starts the server and sends the set-up requests one at a
// time: each resident, error and session program once.
func setupServe(sched *schedule, traced bool) (*serveState, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(serve.Config{})
	s := &serveState{sched: sched, srv: srv, served: make(chan error, 1), sizes: map[[32]byte]int{}}
	var h http.Handler = srv.Handler()
	if traced {
		s.spans = &handlerSpans{inner: h, m: map[string][2]time.Time{}}
		h = s.spans
	}
	go func() { s.served <- srv.ServeWith(ln, h) }()
	s.cl = newClient("http://"+ln.Addr().String(), runtime.NumCPU())
	for _, i := range sched.Warmup {
		smp := sample{req: &sched.Reqs[i]}
		s.cl.do(&smp)
		if msg := smp.check(); msg != "" {
			s.close()
			return nil, fmt.Errorf("set-up request %s: %s", smp.req.Name, msg)
		}
		s.sizes[smp.req.key] = smp.resp.Instrs
	}
	return s, nil
}

// close shuts the server down and waits for it to stop serving.
func (s *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a drain timeout still cancels the stragglers
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve:", err)
	}
	s.cl.tr.CloseIdleConnections()
}

// result summarizes the arrivals of one run.
type result struct {
	lat, late, connWait []float64
	byClass             map[string][]float64
	// allocMB is the Go heap the process, client and server together,
	// allocated during the run.
	allocMB float64
}

func (s *serveState) run(o *outcome, traced bool, sm *speedMeter) ([]sample, result) {
	// The calibration runs beside the arrivals, on its own goroutine:
	// at about 1% of one CPU it sees the host as the server does.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(calibInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				sm.sample()
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	// The run starts from a fresh GC cycle, so collector timing does not
	// carry over from the set-up.
	runtime.GC()
	a0 := heapAllocBytes()
	samples := s.cl.runArrivals(s.sched.Arrivals, s.sched.Reqs, traced)
	res := result{byClass: map[string][]float64{}, allocMB: mb(heapAllocBytes() - a0)}
	for i := range samples {
		smp := &samples[i]
		o.attempted++
		if msg := smp.check(); msg != "" {
			o.fail(smp.req.Class+"/"+smp.req.Name, msg)
		}
		l := ms(smp.latency())
		res.lat = append(res.lat, l)
		res.byClass[smp.req.Class] = append(res.byClass[smp.req.Class], l)
		res.late = append(res.late, ms(smp.late()))
		res.connWait = append(res.connWait, ms(smp.connWait()))
	}
	return samples, res
}

// validLoad reports why a run's measurements are not to be trusted:
// the generator itself ran later than the latency limit.
func validLoad(res result) error {
	if t := tailOf(res.late); t.Value > latencyLimitMs {
		return fmt.Errorf("invalid run: generator lateness p%g %.1f ms exceeds the %g ms limit", t.Pct, t.Value, latencyLimitMs)
	}
	return nil
}

// serverSizes is the final IR size the server reported for each
// distinct program, from its set-up reply or else its first reply in
// the run. Tier-2 replies come from a profile-guided recompile and are
// left out; every other successful reply of a program must report the
// same size.
func (s *serveState) serverSizes(o *outcome, samples []sample) map[[32]byte]int {
	sizes := maps.Clone(s.sizes)
	for i := range samples {
		smp := &samples[i]
		if smp.err != nil || smp.status != http.StatusOK || smp.resp.Tier == 2 {
			continue
		}
		if n, ok := sizes[smp.req.key]; !ok {
			sizes[smp.req.key] = smp.resp.Instrs
		} else if n != smp.resp.Instrs {
			o.fail(smp.req.Class+"/"+smp.req.Name, fmt.Sprintf("final IR size %d, earlier reply %d", smp.resp.Instrs, n))
		}
	}
	return sizes
}

// measure sends the arrivals and reports the latency over the whole
// mix, the geometric mean of the four classes' medians, the Go heap
// allocated per request and the final IR size of the programs sent.
func (s *serveState) measure(sm *speedMeter) (*outcome, error) {
	o := newOutcome()
	samples, res := s.run(o, false, sm)
	if err := validLoad(res); err != nil {
		return nil, err
	}
	o.opMetrics(res.lat, res.byClass)
	o.metric("op_alloc_mb", res.allocMB/float64(len(samples)), "MB")
	total := 0
	for _, n := range s.serverSizes(o, samples) {
		total += n
	}
	o.metric("code_instrs", float64(total), "count")
	classTails := map[string]tail{}
	for c, xs := range res.byClass {
		classTails[c] = tailOf(xs)
	}
	o.context["class_tails"] = classTails
	o.context["loadgen_late_tail_ms"] = tailOf(res.late)
	o.context["loadgen_conn_wait_tail_ms"] = tailOf(res.connWait)
	return o, nil
}

// probeConfig is the configuration the server compiles a request's
// program with: its named configuration at the server's default of
// one job per request.
func probeConfig(name string) core.Config {
	cfg := core.Compiled()
	if name == "opt" {
		cfg = core.Config{Monomorphize: true, Normalize: true, Optimize: true}
	}
	cfg.Jobs = 1
	return cfg
}

// measureTraced sends the arrivals with request IDs, joins each client
// "request" span with its "conn_wait" and server "handler" children,
// and reads the server's counters around the run. The server's own
// compiles and runs are opaque, so after the run every distinct
// program sent goes once through the layer probe with the request's
// configuration, and each /run program is run on the engine; both are
// checked against the reference, and each compiled module's size
// against the size the server reported for the program.
func (s *serveState) measureTraced(tr *tracer, sm *speedMeter) (*outcome, error) {
	o := newOutcome()
	before := s.srv.Snapshot()
	samples, res := s.run(o, true, sm)
	after := s.srv.Snapshot()
	if err := validLoad(res); err != nil {
		return nil, err
	}

	var handler, overhead []float64
	compileMs := map[string][]float64{}
	tier2, tiered, edits := 0, 0, 0
	for _, smp := range samples {
		id := tr.add("request", 0, smp.id, smp.due, smp.done)
		tr.add("conn_wait", id, smp.id, smp.start, smp.sent)
		if iv, ok := s.spans.get(smp.id); ok {
			tr.add("handler", id, smp.id, iv[0], iv[1])
			h := iv[1].Sub(iv[0])
			handler = append(handler, ms(h))
			overhead = append(overhead, ms(smp.done.Sub(smp.sent)-h))
		}
		if !smp.resp.Cached && smp.resp.TotalMs > 0 {
			compileMs[smp.req.Class] = append(compileMs[smp.req.Class], smp.resp.TotalMs)
		}
		if smp.resp.Tier > 0 {
			tiered++
			if smp.resp.Tier == 2 {
				tier2++
			}
		}
		if smp.req.Class == "edit" {
			edits++
		}
	}
	d := func(f func(serve.Stats) int64) float64 { return float64(f(after) - f(before)) }
	hits, misses := d(func(s serve.Stats) int64 { return s.CacheHits }), d(func(s serve.Stats) int64 { return s.CacheMisses })
	o.metric("serve.cache_hit_ratio", hits/(hits+misses), "ratio")
	o.metric("serve.coalesced", d(func(s serve.Stats) int64 { return s.Coalesced }), "count")
	o.metric("serve.tier2_share", float64(tier2)/float64(max(tiered, 1)), "ratio")
	o.metric("serve.tier_ups", d(func(s serve.Stats) int64 { return s.TierUps }), "count")
	o.metric("store.incremental_share", d(func(s serve.Stats) int64 { return s.IncrementalHits })/max(misses, 1), "ratio")
	o.metric("store.fallbacks", d(func(s serve.Stats) int64 { return s.IncrementalFallbacks }), "count")
	o.metric("store.funcs_reused_per_edit", d(func(s serve.Stats) int64 { return s.IncrementalFuncsReused })/float64(max(edits, 1)), "count")
	// Only this workload has a server, so its timings are recorded in
	// the run context rather than as per-layer metrics every workload
	// reports.
	o.context["serve.handler_ms"] = median(handler)
	o.context["serve.handler_tail"] = tailOf(handler)
	o.context["http.overhead_ms"] = median(overhead)
	for _, class := range []string{"edit", "new"} {
		o.context["serve.compile_ms."+class] = median(compileMs[class])
	}
	o.context["loadgen.late_tail"] = tailOf(res.late)
	o.context["loadgen.conn_wait_tail"] = tailOf(res.connWait)

	sizes := s.serverSizes(o, samples)
	lp := newLayerProbe(tr)
	for i := range s.sched.Reqs {
		r := &s.sched.Reqs[i]
		if r.files == nil {
			continue // not the first request of its program
		}
		mod, err := lp.compile(r.files, probeConfig(r.Config), fmt.Sprintf("probe-%d", i))
		o.attempted++
		got := expect{}
		switch {
		case err != nil:
			got.Diags = diagStrings(err)
		case mod.NumInstrs() != sizes[r.key]:
			o.fail("probe/"+r.Class+"/"+r.Name, fmt.Sprintf("staged compile has %d instructions, the server reported %d", mod.NumInstrs(), sizes[r.key]))
			continue
		case r.Path == "/run":
			got, _ = lp.run(mod, fmt.Sprintf("probe-%d", i))
		}
		if msg := r.Want.mismatch(got); msg != "" {
			o.fail("probe/"+r.Class+"/"+r.Name, msg)
		}
	}
	lp.report(o, 1, 1)
	return o, nil
}

// noServer reports the server and store metrics of a workload that
// runs no server: it sends no requests, so nothing hits, tiers up or
// is reused, and every count and ratio reads 0.
func noServer(o *outcome) {
	for _, m := range []struct{ name, unit string }{
		{"serve.cache_hit_ratio", "ratio"}, {"serve.coalesced", "count"},
		{"serve.tier2_share", "ratio"}, {"serve.tier_ups", "count"},
		{"store.incremental_share", "ratio"}, {"store.fallbacks", "count"},
		{"store.funcs_reused_per_edit", "count"},
	} {
		o.metric(m.name, 0, m.unit)
	}
	o.context["server"] = "none"
}
