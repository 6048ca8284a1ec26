package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// env is what one run knows about itself.
type env struct {
	ctx     context.Context
	seed    int64
	seconds int
	// workers pins the engine, census and model-checker worker counts
	// (at most the process's GOMAXPROCS).
	workers int
	dir     string    // per-run scratch directory, removed at exit
	log     io.Writer // progress and diagnostics (stderr)
}

// instance is one set-up copy of a workload, ready to be timed. One
// caller drives it in a closed loop: the next operation starts when the
// previous one has returned.
type instance interface {
	// roundLen is the number of operations in one round; a run times
	// whole rounds only.
	roundLen() int
	// op runs operation i of the current round and reports the work
	// items it completed and whether it succeeded.
	op(i int) (items int, ok bool)
	// check verifies, after the timed phase, the answers the timed
	// operations produced.
	check() error
	close()
}

// preparer is implemented by instances that generate inputs for the
// timed phase once set-up is over, outside both set-up and timing.
type preparer interface {
	prepare(d time.Duration)
}

// workload builds instances. setup does everything up to the first
// timed operation (construction, warm pass) and reports how long that
// took, leaving out the generation of the benchmark's own inputs; rep
// numbers the set-up repetitions so each can use disjoint inputs.
type workload struct {
	name  string
	setup func(e *env, rep int) (inst instance, seconds float64, err error)
	// overhead returns an untraced and a traced instance of the same
	// operation, for trace.overhead_pct.
	overhead func(e *env) (plain, traced instance, err error)
}

// setupReps is how many times a run sets a workload up; setup_s is the
// median, and the last copy is the one timed.
const setupReps = 5

// phase is the outcome of one timed phase.
type phase struct {
	samples []float64 // per-operation latency in seconds
	// p50 is the median, over the positions of a round, of each
	// position's median latency in seconds. A round mixes operations of
	// very different cost (the model-checking targets range from
	// milliseconds to a second), and the plain median of such a mixture
	// sits between two targets' extremes; the median of per-position
	// medians stays inside one.
	p50 float64
	// itemRate is the same statistic over each operation's work items
	// per second of its own latency. Host stalls (time stolen from the
	// virtual CPUs) land on a minority of operations and drag down a
	// rate taken over the wall clock; the per-operation median keeps the
	// rate of the typical operation.
	itemRate float64
	wall     float64 // seconds the timed phase took
	windows  []window
	failed   int64
	rss      float64 // process peak RSS in MiB at the end of the phase
}

// window is a stretch of the timed phase made of whole rounds and
// lasting at least windowMin. CPU and allocation per operation are
// taken per window and reported as the median over windows, so a burst
// of load from outside the process that covers a minority of the
// windows does not move them.
type window struct {
	cpu   float64 // process CPU seconds
	ops   int64
	alloc uint64 // heap bytes allocated
}

const windowMin = 500 * time.Millisecond

// rate returns the median of f over the windows.
func (p *phase) rate(f func(w window) float64) float64 {
	vs := make([]float64, len(p.windows))
	for i, w := range p.windows {
		vs[i] = f(w)
	}
	return median(vs)
}

// timed repeats whole rounds of inst until d has passed.
func timed(inst instance, d time.Duration) *phase {
	p := &phase{samples: make([]float64, 0, 1<<16)}
	rates := make([]float64, 0, 1<<16)
	var open window // counters at the start of the open window
	var openAt time.Time
	mark := func(now time.Time) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		cur := window{cpu: cpuSeconds(), ops: int64(len(p.samples)), alloc: ms.TotalAlloc}
		if !openAt.IsZero() {
			p.windows = append(p.windows, window{
				cpu: cur.cpu - open.cpu, ops: cur.ops - open.ops, alloc: cur.alloc - open.alloc,
			})
		}
		open, openAt = cur, now
	}
	runtime.GC()
	start := time.Now()
	mark(start)
	for deadline := start.Add(d); time.Now().Before(deadline); {
		for i := 0; i < inst.roundLen(); i++ {
			t0 := time.Now()
			n, ok := inst.op(i)
			secs := time.Since(t0).Seconds()
			p.samples = append(p.samples, secs)
			rates = append(rates, float64(n)/secs)
			if !ok {
				p.failed++
			}
		}
		if now := time.Now(); now.Sub(openAt) >= windowMin {
			mark(now)
		}
	}
	p.wall = time.Since(start).Seconds()
	p.rss = peakRSSMiB()
	p.p50 = roundMedian(inst.roundLen(), p.samples)
	p.itemRate = roundMedian(inst.roundLen(), rates)
	return p
}

// roundMedian groups per-operation values by their position in the
// round and returns the median of the positions' medians.
func roundMedian(roundLen int, samples []float64) float64 {
	byPos := make([][]float64, roundLen)
	for i, v := range samples {
		byPos[i%roundLen] = append(byPos[i%roundLen], v)
	}
	var meds []float64
	for _, vs := range byPos {
		if len(vs) > 0 {
			meds = append(meds, median(vs))
		}
	}
	return median(meds)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure is the untraced run: set the workload up setupReps times,
// time the last copy for e.seconds, check its answers, and derive the
// end-to-end metrics.
func measure(e *env, w *workload) (*result, error) {
	var setups []float64
	var inst instance
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			inst.close()
		}
		var secs float64
		var err error
		if inst, secs, err = w.setup(e, rep); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, secs)
	}
	defer inst.close()
	d := time.Duration(e.seconds) * time.Second
	if p, ok := inst.(preparer); ok {
		p.prepare(d)
	}
	p := timed(inst, d)
	fmt.Fprintf(e.log, "perfbench: %s timed %d ops in %d windows, checking\n", w.name, len(p.samples), len(p.windows))
	res := &result{Correct: true, Attempted: int64(len(p.samples)), Failed: p.failed}
	t0 := time.Now()
	if err := inst.check(); err != nil {
		fmt.Fprintf(e.log, "perfbench: %s check failed: %v\n", w.name, err)
		res.Correct = false
	}
	sorted := sortedCopy(p.samples)
	fmt.Fprintf(e.log, "perfbench: %s checks took %.2fs; setups %.3v s; %d samples, plain p50 %.4g ms, p99 %.4g ms, %.4g ops/s over the wall clock\n",
		w.name, time.Since(t0).Seconds(), setups, len(sorted), quantile(sorted, 0.5)*1e3, quantile(sorted, 0.99)*1e3, float64(len(sorted))/p.wall)
	res.Metrics = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"p50_ms":          {p.p50 * 1e3, "ms"},
		"items_per_s":     {p.itemRate, "1/s"},
		"cpu_ms_per_op":   {p.rate(func(w window) float64 { return w.cpu * 1e3 / float64(w.ops) }), "ms"},
		"alloc_kb_per_op": {p.rate(func(w window) float64 { return float64(w.alloc) / 1024 / float64(w.ops) }), "KiB"},
		"peak_rss_mb":     {p.rss, "MiB"},
	}
	return res, nil
}

// overheadBlocks is how many alternating untraced/traced blocks the
// traced run times; alternating spreads any drift of the host over
// both sides.
const overheadBlocks = 8

// overheadPct times the workload's operation with tracing off and on in
// alternating blocks and returns the traced p50 against the untraced
// p50 (each the median of its blocks' p50), in percent.
func overheadPct(e *env, w *workload, d time.Duration) (attempted, failed int64, pct float64, err error) {
	plain, traced, err := w.overhead(e)
	if err != nil {
		return 0, 0, 0, err
	}
	defer plain.close()
	defer traced.close()
	for _, inst := range []instance{plain, traced} {
		if p, ok := inst.(preparer); ok {
			p.prepare(d / 2)
		}
	}
	var a, b []float64
	for i := 0; i < overheadBlocks; i++ {
		for _, side := range []struct {
			inst instance
			p50s *[]float64
		}{{plain, &a}, {traced, &b}} {
			p := timed(side.inst, d/(2*overheadBlocks))
			*side.p50s = append(*side.p50s, p.p50)
			attempted += int64(len(p.samples))
			failed += p.failed
		}
	}
	for _, inst := range []instance{plain, traced} {
		if err := inst.check(); err != nil {
			return attempted, failed, 0, err
		}
	}
	return attempted, failed, (median(b)/median(a) - 1) * 100, nil
}

// finite replaces NaN and infinities (a ratio over nothing) with 0 so
// the result line stays valid JSON.
func finite(m map[string]metric) {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
}
