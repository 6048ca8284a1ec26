package main

import (
	"fmt"
	"math/rand"
	"time"

	"rcons/internal/atlas/census"
	"rcons/internal/checker"
	"rcons/internal/engine"
	"rcons/internal/obs"
)

// Census pass shape: the ≤2-state/≤2-op/≤2-response enumeration block,
// censusRandom random tables of up to 4 states, 3 ops and 3 responses,
// and censusMutants mutation chains per tabulatable zoo type, classified
// at censusLimit.
const (
	censusRandom  = 150
	censusMutants = 2
	censusLimit   = 4
	// censusWitnessPasses is how many timed passes have every row's
	// witnesses re-verified; censusInterpreted is how many rows, drawn
	// over all passes, are reclassified with the interpreted checker.
	censusWitnessPasses = 2
	censusInterpreted   = 24
	// censusKept is how many passes keep their whole artifact for the
	// checks; later passes keep only their counts, so the run's memory
	// does not grow with the number of passes the host manages.
	censusKept = 12
)

// censusInst is the census workload: each operation is one census.Run
// pass with a fresh engine, a distinct seed and no store.
type censusInst struct {
	e      *env
	passes []censusPass
}

type censusPass struct {
	seed                         int64
	art                          *census.Artifact // nil past censusKept
	generated, duplicates, types int
	skipped                      int
}

func (ci *censusInst) pass(seed int64) (*census.Artifact, error) {
	eng := engine.New(engine.Options{Workers: ci.e.workers})
	return census.Run(ci.e.ctx, censusOptions(seed, eng, ci.e.workers))
}

// setupCensus runs one warm-up pass on inputs no timed pass uses, which
// fills the process-wide tables (canonical-form permutations, interned
// labels) that every later pass reuses.
func setupCensus(e *env, rep int) (instance, float64, error) {
	ci := &censusInst{e: e}
	t0 := time.Now()
	if _, err := ci.pass(subSeed(e.seed, "census-warm", rep)); err != nil {
		return nil, 0, err
	}
	return ci, time.Since(t0).Seconds(), nil
}

func (ci *censusInst) roundLen() int { return 1 }

func (ci *censusInst) op(int) (int, bool) {
	seed := subSeed(ci.e.seed, "census", len(ci.passes))
	art, err := ci.pass(seed)
	if err != nil {
		fmt.Fprintf(ci.e.log, "perfbench: census pass %d: %v\n", len(ci.passes), err)
		return 0, false
	}
	p := censusPass{seed: seed, generated: art.Generated, duplicates: art.Duplicates,
		types: art.Types, skipped: len(art.Skipped)}
	if len(ci.passes) < censusKept {
		p.art = art
	}
	ci.passes = append(ci.passes, p)
	return art.Types, true
}

// check regenerates every pass's inputs independently and checks its
// counts (and, for the kept passes, every row); re-verifies every
// witness of a seeded sample of kept passes; and reclassifies a seeded
// sample of kept rows with the interpreted checker.
func (ci *censusInst) check() error {
	kept := min(censusKept, len(ci.passes))
	if kept == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(subSeed(ci.e.seed, "census-check", 0)))
	witnessPass := map[int]bool{}
	for len(witnessPass) < min(censusWitnessPasses, kept) {
		witnessPass[rng.Intn(kept)] = true
	}
	var all []struct {
		row  census.Row
		item censusItem
	}
	for i, p := range ci.passes {
		g, err := censusItems(censusOptions(p.seed, nil, 0))
		if err != nil {
			return err
		}
		if p.skipped > 0 || p.generated != len(g.items)+g.dups || p.duplicates != g.dups ||
			p.types+p.duplicates != p.generated {
			return fmt.Errorf("pass %d: types %d, duplicates %d, generated %d, skipped %d; regenerated %d candidates, %d duplicates",
				i, p.types, p.duplicates, p.generated, p.skipped, len(g.items), g.dups)
		}
		if p.art == nil {
			continue
		}
		if err := checkCensusPass(p.art, g); err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		if witnessPass[i] {
			if err := checkCensusWitnesses(ci.e.ctx, p.art, g.items, ci.e.workers); err != nil {
				return fmt.Errorf("pass %d: %w", i, err)
			}
		}
		for _, it := range g.items {
			all = append(all, struct {
				row  census.Row
				item censusItem
			}{p.art.Rows[it.key], it})
		}
	}
	for k := 0; k < censusInterpreted; k++ {
		s := all[rng.Intn(len(all))]
		c, err := checker.Classify(s.item.typ, censusLimit, nil)
		if err != nil {
			return err
		}
		if err := checkRow(s.row, c); err != nil {
			return err
		}
	}
	return nil
}

func (ci *censusInst) close() {}

// classifyInst times the census's classification step type by type —
// engine.Classify with a fresh engine per round over one pass's
// candidates — optionally opening one trace root per classified type.
// It is the operation trace.overhead_pct is taken on for census, since
// a trace root around a whole pass would exceed the per-trace span cap.
type classifyInst struct {
	e      *env
	items  []censusItem
	eng    *engine.Engine
	tracer *obs.Tracer // nil: untraced
}

func newClassifyInst(e *env, seed int64, tracer *obs.Tracer) (*classifyInst, error) {
	g, err := censusItems(censusOptions(seed, nil, 0))
	if err != nil {
		return nil, err
	}
	return &classifyInst{e: e, items: g.items, tracer: tracer}, nil
}

func (ci *classifyInst) roundLen() int { return len(ci.items) }

func (ci *classifyInst) op(i int) (int, bool) {
	if i == 0 {
		ci.eng = engine.New(engine.Options{Workers: ci.e.workers})
	}
	ctx := ci.e.ctx
	var root *obs.Span
	if ci.tracer != nil {
		ctx, root = ci.tracer.StartTrace(ctx, "bench.classify", "", true)
	}
	_, err := ci.eng.Classify(ctx, ci.items[i].typ, censusLimit)
	root.End()
	return 1, err == nil
}

func (ci *classifyInst) check() error { return nil }
func (ci *classifyInst) close()       {}

// censusOverhead pairs the untraced and traced classification step.
func censusOverhead(e *env) (instance, instance, error) {
	seed := subSeed(e.seed, "census-overhead", 0)
	plain, err := newClassifyInst(e, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	traced, err := newClassifyInst(e, seed, obs.NewTracer(1, obs.NewRecorder(16)))
	if err != nil {
		return nil, nil, err
	}
	return plain, traced, nil
}
