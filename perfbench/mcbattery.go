package main

import (
	"fmt"
	"math/rand"
	"time"

	"rcons/internal/mc"
	"rcons/internal/obs"
)

// Model-checking battery shape: every builtin target at mcN processes,
// schedule prefixes up to mcDepth steps and at most one crash. At depth
// 8 both broken targets already yield counterexamples.
const (
	mcN     = 3
	mcDepth = 8
	mcCrash = 1
	mcWarmN = 2 // the set-up's warm pass checks the n=2 instances
)

func mcOptions(e *env) mc.Options {
	return mc.Options{MaxDepth: mcDepth, CrashBudget: mcCrash, Workers: e.workers}
}

// mcInst is mc-battery: each operation is one mc.Check, a round checks
// every builtin target once.
type mcInst struct {
	e       *env
	tgts    []mc.Target
	results [][]*mc.Result // per target, one per round
	tracer  *obs.Tracer    // nil: untraced
}

func mcTargets(n int) ([]mc.Target, error) {
	var tgts []mc.Target
	for _, name := range mc.Targets() {
		t, err := mc.TargetByName(name, n)
		if err != nil {
			return nil, err
		}
		tgts = append(tgts, t)
	}
	return tgts, nil
}

// newMCInst builds the battery; the run seed fixes the order in which a
// round checks the targets.
func newMCInst(e *env, tracer *obs.Tracer) (*mcInst, error) {
	tgts, err := mcTargets(mcN)
	if err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(len(tgts), func(i, j int) { tgts[i], tgts[j] = tgts[j], tgts[i] })
	return &mcInst{e: e, tgts: tgts, results: make([][]*mc.Result, len(tgts)), tracer: tracer}, nil
}

// setupMC builds the targets and runs a warm pass over the n=2
// instances, which fills the process-wide intern table and the
// simulator's compiled object tables before timing.
func setupMC(e *env, _ int) (instance, float64, error) {
	t0 := time.Now()
	m, err := newMCInst(e, nil)
	if err != nil {
		return nil, 0, err
	}
	for _, name := range mc.Targets() {
		t, err := mc.TargetByName(name, mcWarmN)
		if err != nil {
			continue // a target that needs more processes has no warm instance
		}
		if _, err := mc.Check(e.ctx, t, mcOptions(e)); err != nil {
			return nil, 0, fmt.Errorf("warm %s: %w", t.Name, err)
		}
	}
	return m, time.Since(t0).Seconds(), nil
}

func (m *mcInst) roundLen() int { return len(m.tgts) }

func (m *mcInst) op(i int) (int, bool) {
	ctx := m.e.ctx
	var root *obs.Span
	if m.tracer != nil {
		ctx, root = m.tracer.StartTrace(ctx, "bench.mc", "", true)
	}
	res, err := mc.Check(ctx, m.tgts[i], mcOptions(m.e))
	root.End()
	if err != nil {
		fmt.Fprintf(m.e.log, "perfbench: mc %s: %v\n", m.tgts[i].Name, err)
		return 0, false
	}
	m.results[i] = append(m.results[i], res)
	return res.Stats.Nodes, true
}

// check requires every verdict to be right (safe targets Safe and
// Exhaustive, broken ones with a replayable 1-minimal counterexample)
// and the safe targets' node and pruned counts to be identical in every
// round.
func (m *mcInst) check() error {
	for i, t := range m.tgts {
		for _, res := range m.results[i] {
			if err := checkMCResult(t, res); err != nil {
				return err
			}
			if first := m.results[i][0]; mcExpectSafe(t.Name) &&
				(res.Stats.Nodes != first.Stats.Nodes || res.Stats.Pruned != first.Stats.Pruned) {
				return fmt.Errorf("%s: nodes/pruned %d/%d in one round, %d/%d in another",
					t.Name, res.Stats.Nodes, res.Stats.Pruned, first.Stats.Nodes, first.Stats.Pruned)
			}
		}
	}
	return nil
}

func (m *mcInst) close() {}

// mcOverhead pairs the untraced battery with one that opens a trace
// root per check.
func mcOverhead(e *env) (instance, instance, error) {
	plain, err := newMCInst(e, nil)
	if err != nil {
		return nil, nil, err
	}
	traced, err := newMCInst(e, obs.NewTracer(1, obs.NewRecorder(16)))
	if err != nil {
		return nil, nil, err
	}
	return plain, traced, nil
}
