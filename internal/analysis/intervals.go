package analysis

import "repro/internal/ir"

// Interval is a value range for an integer register. Known=false is
// top: the register holds an int but nothing is known about it. A
// register absent from the map was never seen defined with an integer
// value.
type Interval struct {
	Lo, Hi int64
	Known  bool
}

// top is the unknown-int interval.
var top = Interval{Known: false}

// point returns the exact-constant interval.
func point(v int64) Interval { return Interval{Lo: v, Hi: v, Known: true} }

// IsConst reports whether the interval pins a single value.
func (iv Interval) IsConst() bool { return iv.Known && iv.Lo == iv.Hi }

// join widens a toward b (lattice join: the smallest interval covering
// both).
func (a Interval) join(b Interval) Interval {
	if !a.Known || !b.Known {
		return top
	}
	if b.Lo < a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi > a.Hi {
		a.Hi = b.Hi
	}
	return a
}

const (
	int32Min = -1 << 31
	int32Max = 1<<31 - 1
)

// fit clamps an interval to the 32-bit value space; arithmetic in the
// IR wraps at 32 bits, so any bound outside that range means the true
// result set is unknown.
func fit(lo, hi int64) Interval {
	if lo < int32Min || hi > int32Max || lo > hi {
		return top
	}
	return Interval{Lo: lo, Hi: hi, Known: true}
}

// wideningLimit bounds how many times a register's interval may grow
// before it is widened straight to top. Loops like i = i + 1 would
// otherwise step the fixpoint 2^31 times.
const wideningLimit = 4

// computeIntervals runs a flow-insensitive interval propagation over
// f: every definition of a register joins into its interval, iterated
// in reverse postorder until stable. Flow-insensitivity keeps the
// domain sound for a register IR without SSA form (a register
// redefined on two paths gets the join of both), at the cost of
// precision its one consumer does not need: the facts feed only the
// constant and range counts of the analyze report (Result.Intervals),
// not any optimization or lint rule.
func computeIntervals(f *ir.Func, g *CFG) map[*ir.Reg]Interval {
	iv := map[*ir.Reg]Interval{}
	grows := map[*ir.Reg]int{}
	get := func(r *ir.Reg) (Interval, bool) {
		v, ok := iv[r]
		return v, ok
	}
	set := func(r *ir.Reg, v Interval) bool {
		old, ok := iv[r]
		if !ok {
			iv[r] = v
			return true
		}
		next := old.join(v)
		if next == old {
			return false
		}
		grows[r]++
		if grows[r] > wideningLimit {
			next = top
		}
		iv[r] = next
		return next != old
	}
	// Parameters are unknown ints (or non-int; top either way — the
	// consumer filters by register type).
	for _, p := range f.Params {
		iv[p] = top
	}
	for changed := true; changed; {
		changed = false
		for _, bi := range g.RPO {
			for _, in := range g.Blocks[bi].Instrs {
				if len(in.Dst) == 0 {
					continue
				}
				if v, ok := evalInterval(in, get); ok {
					if set(in.Dst[0], v) {
						changed = true
					}
				} else {
					for _, d := range in.Dst {
						if set(d, top) {
							changed = true
						}
					}
				}
			}
		}
	}
	return iv
}

// evalInterval computes the interval of in's first destination from
// its arguments, or ok=false when the op is not modeled (the caller
// assigns top to every destination).
func evalInterval(in *ir.Instr, get func(*ir.Reg) (Interval, bool)) (Interval, bool) {
	bin := func(f func(a, b Interval) Interval) (Interval, bool) {
		a, okA := get(in.Args[0])
		b, okB := get(in.Args[1])
		if !okA || !okB || !a.Known || !b.Known {
			return top, true
		}
		return f(a, b), true
	}
	switch in.Op {
	case ir.OpConstInt, ir.OpConstByte, ir.OpConstEnum:
		return point(in.IVal), true
	case ir.OpConstBool:
		return point(in.IVal & 1), true
	case ir.OpMove, ir.OpTypeCast:
		v, ok := get(in.Args[0])
		if !ok {
			return top, true
		}
		return v, true
	case ir.OpAdd:
		return bin(func(a, b Interval) Interval { return fit(a.Lo+b.Lo, a.Hi+b.Hi) })
	case ir.OpSub:
		return bin(func(a, b Interval) Interval { return fit(a.Lo-b.Hi, a.Hi-b.Lo) })
	case ir.OpMul:
		return bin(func(a, b Interval) Interval {
			lo, hi := a.Lo*b.Lo, a.Lo*b.Lo
			for _, v := range []int64{a.Lo * b.Lo, a.Lo * b.Hi, a.Hi * b.Lo, a.Hi * b.Hi} {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			// Guard against int64 overflow inside the products: any
			// operand magnitude beyond 2^31 already forced top via fit
			// on the inputs, so products fit in int64.
			return fit(lo, hi)
		})
	case ir.OpNeg:
		a, ok := get(in.Args[0])
		if !ok || !a.Known {
			return top, true
		}
		return fit(-a.Hi, -a.Lo), true
	case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpEq, ir.OpNe,
		ir.OpNot, ir.OpBoolAnd, ir.OpBoolOr, ir.OpTypeQuery:
		return Interval{Lo: 0, Hi: 1, Known: true}, true
	case ir.OpArrayLen:
		return Interval{Lo: 0, Hi: int32Max, Known: true}, true
	case ir.OpEnumTag:
		return Interval{Lo: 0, Hi: int32Max, Known: true}, true
	}
	return top, false
}

// IntervalSummary is the per-function rollup for the analyze report.
type IntervalSummary struct {
	// Consts counts registers pinned to a single value; Bounded counts
	// registers with a known non-trivial range (including consts);
	// Total counts tracked registers.
	Consts, Bounded, Total int
}

// SummarizeIntervals rolls up a function's interval map.
func SummarizeIntervals(iv map[*ir.Reg]Interval) IntervalSummary {
	var s IntervalSummary
	for _, v := range iv {
		s.Total++
		if v.Known {
			s.Bounded++
			if v.IsConst() {
				s.Consts++
			}
		}
	}
	return s
}
