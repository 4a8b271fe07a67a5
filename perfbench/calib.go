package main

import (
	"slices"
	"time"
)

// The host's speed drifts: on a shared machine the same work can take
// twice as long from one minute to the next. A fixed piece of Go work,
// independent of the program under test, run between the workload's
// operations (serve: beside its arrivals) measures
// that speed; timings are reported scaled to a host on which the
// calibration takes calibNominal. The scaling follows the host only in
// part: on a 2-vCPU VM it roughly halved the run-to-run variation of
// the timings, and it cannot see contention for the second CPU, which
// the parallel compiles of the largest programs use.

// calibNominal is the calibration's median duration on the reference
// host, a 2-vCPU Xeon VM in a quiet period. It is a fixed scale, not
// a measurement: changing it rescales every reported timing.
const calibNominal = 450 * time.Microsecond

// calibInterval is the least time between two calibrations.
const calibInterval = 50 * time.Millisecond

// calibWork is the calibration's working set, built once: a random
// cyclic permutation of 2 MB to chase through (load latency of the
// shared cache, which neighbours on the host contend for), a map to
// look up in (hashing and branches) and an unsorted slice to sort
// (compares and moves). Each calibration first reads all of it, so
// the caches the program under test left behind do not change how
// long the timed part takes, and nothing in it allocates, so neither
// does the program's heap: only the host's speed does.
type calibWork struct {
	next   []uint32
	table  map[uint64]uint64
	unsort []uint64
	buf    []uint64
	sink   uint64
}

func newCalibWork() *calibWork {
	const n, m = 1 << 19, 1 << 9
	w := &calibWork{next: make([]uint32, n), table: make(map[uint64]uint64, m), unsort: make([]uint64, m), buf: make([]uint64, m)}
	// Sattolo's algorithm with a fixed LCG gives one cycle over all n.
	x := uint64(12345)
	rnd := func() uint64 { x = x*6364136223846793005 + 1442695040888963407; return x >> 33 }
	for i := range w.next {
		w.next[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rnd() % uint64(i)
		w.next[i], w.next[j] = w.next[j], w.next[i]
	}
	for i := range w.unsort {
		w.unsort[i] = rnd()
		w.table[w.unsort[i]] = uint64(i)
	}
	return w
}

// run warms the working set, then does calibRounds rounds of the
// calibration work and returns how long they took.
func (w *calibWork) run() time.Duration {
	var acc uint32
	for _, v := range w.next {
		acc += v
	}
	w.sink += uint64(acc)
	w.round()
	t0 := time.Now()
	for r := 0; r < calibRounds; r++ {
		w.round()
	}
	return time.Since(t0)
}

// calibRounds is how many rounds one calibration times.
const calibRounds = 8

// round is one round of the calibration work.
func (w *calibWork) round() {
	p, acc := uint32(0), uint64(0)
	for i := 0; i < 5000; i++ {
		p = w.next[p]
		acc += uint64(p)
	}
	for r := 0; r < 4; r++ {
		for _, k := range w.unsort {
			acc += w.table[k^uint64(r&1)]
		}
	}
	copy(w.buf, w.unsort)
	slices.Sort(w.buf)
	w.sink += acc + w.buf[0]
}

// speedMeter calibrates at most once per calibInterval and gives the
// run's speed factor: the median calibration over calibNominal.
type speedMeter struct {
	w     *calibWork
	last  time.Time
	times []float64
}

func newSpeedMeter() *speedMeter { return &speedMeter{w: newCalibWork()} }

// tick calibrates if calibInterval has passed since the last time.
func (s *speedMeter) tick() {
	if time.Since(s.last) >= calibInterval {
		s.sample()
	}
}

// sample calibrates once.
func (s *speedMeter) sample() {
	s.times = append(s.times, ms(s.w.run()))
	s.last = time.Now()
}

// factor is how much slower than the reference host this run's host
// was: 2 means every operation took twice as long as it would there.
func (s *speedMeter) factor() float64 { return median(s.times) / ms(calibNominal) }
