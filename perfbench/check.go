package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"rcons/internal/atlas/census"
	"rcons/internal/checker"
	"rcons/internal/engine"
	"rcons/internal/mc"
	"rcons/internal/sim"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// Correctness checks. They run after the timed phase, are excluded from
// every metric, and compare the program's answers with computations
// made apart from the program's fast paths: the sequential interpreted
// checker, brute-force witness verification, an independent replay of
// the census generator, and replayed model-checker schedules.

// wireLevel, wireBand and wireClass mirror the classification JSON the
// service returns.
type wireLevel struct {
	Max     int  `json:"max"`
	AtLimit bool `json:"atLimit"`
}

type wireBand struct {
	Lo      int    `json:"lo"`
	Hi      *int   `json:"hi"`
	Display string `json:"display"`
}

type wireClass struct {
	Type       string    `json:"type"`
	Readable   bool      `json:"readable"`
	Discerning wireLevel `json:"discerning"`
	Recording  wireLevel `json:"recording"`
	Cons       wireBand  `json:"cons"`
	Rcons      wireBand  `json:"rcons"`
}

// reference computes classifications with the sequential interpreted
// checker, memoized per target so a pool is classified once.
type reference struct {
	limit int
	memo  map[string]checker.Classification
}

func newReference(limit int) *reference {
	return &reference{limit: limit, memo: map[string]checker.Classification{}}
}

func (r *reference) classify(t spec.Type, key string) (checker.Classification, error) {
	if c, ok := r.memo[key]; ok {
		return c, nil
	}
	c, err := checker.Classify(t, r.limit, nil)
	if err != nil {
		return c, err
	}
	r.memo[key] = c
	return c, nil
}

func (r *reference) target(t target) (checker.Classification, error) {
	typ, err := t.resolve()
	if err != nil {
		return checker.Classification{}, err
	}
	return r.classify(typ, t.name+"|"+string(t.table))
}

// checkBand compares one served band with the reference bounds.
func checkBand(what string, got wireBand, lo, hi int, display string) error {
	gotHi := checker.Unbounded
	if got.Hi != nil {
		gotHi = *got.Hi
	}
	if hi > checker.Unbounded {
		hi = checker.Unbounded
	}
	if got.Lo != lo || gotHi != hi || got.Display != display {
		return fmt.Errorf("%s band %q [%d,%d], reference %q [%d,%d]", what, got.Display, got.Lo, gotHi, display, lo, hi)
	}
	return nil
}

// checkClass compares one served classification with the reference.
func checkClass(got wireClass, want checker.Classification) error {
	if got.Type != want.TypeName || got.Readable != want.Readable {
		return fmt.Errorf("served %s (readable %v), reference %s (readable %v)", got.Type, got.Readable, want.TypeName, want.Readable)
	}
	if got.Recording.Max != want.Recording.Max || got.Recording.AtLimit != want.Recording.AtLimit ||
		got.Discerning.Max != want.Discerning.Max || got.Discerning.AtLimit != want.Discerning.AtLimit {
		return fmt.Errorf("%s: served levels rec=%d disc=%d, reference rec=%d disc=%d",
			got.Type, got.Recording.Max, got.Discerning.Max, want.Recording.Max, want.Discerning.Max)
	}
	if err := checkBand(got.Type+" cons", got.Cons, want.ConsLo, want.ConsHi, want.ConsBand()); err != nil {
		return err
	}
	return checkBand(got.Type+" rcons", got.Rcons, want.RconsLo, want.RconsHi, want.RconsBand())
}

// checkResponse verifies one response body of a serve workload against
// the reference: every classification it carries must have the
// reference's levels and cons/rcons bands.
func checkResponse(req request, body []byte, ref *reference) error {
	var got []wireClass
	switch {
	case req.zoo:
		var z struct {
			Count   int         `json:"count"`
			Results []wireClass `json:"results"`
		}
		if err := json.Unmarshal(body, &z); err != nil {
			return fmt.Errorf("%s: %w", req.path, err)
		}
		zoo := types.Zoo()
		if z.Count != len(zoo) || len(z.Results) != len(zoo) {
			return fmt.Errorf("%s: %d results, zoo has %d types", req.path, len(z.Results), len(zoo))
		}
		for i, t := range zoo {
			want, err := ref.classify(t, "zoo|"+t.Name())
			if err != nil {
				return err
			}
			if err := checkClass(z.Results[i], want); err != nil {
				return fmt.Errorf("%s: %w", req.path, err)
			}
		}
		return nil
	case strings.HasPrefix(req.path, "/v1/classify/batch"):
		var b struct {
			Count int `json:"count"`
			OK    int `json:"ok"`
			Items []struct {
				OK             bool      `json:"ok"`
				Classification wireClass `json:"classification"`
			} `json:"items"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		if b.Count != len(req.targets) || b.OK != len(req.targets) || len(b.Items) != len(req.targets) {
			return fmt.Errorf("batch: count %d ok %d items %d, sent %d", b.Count, b.OK, len(b.Items), len(req.targets))
		}
		for _, it := range b.Items {
			if !it.OK {
				return errors.New("batch: item not ok")
			}
			got = append(got, it.Classification)
		}
	default:
		var c wireClass
		if err := json.Unmarshal(body, &c); err != nil {
			return fmt.Errorf("classify: %w", err)
		}
		got = []wireClass{c}
	}
	for i, t := range req.targets {
		want, err := ref.target(t)
		if err != nil {
			return err
		}
		if err := checkClass(got[i], want); err != nil {
			return err
		}
	}
	return nil
}

// checkCensusPass checks one census artifact against an independent
// regeneration of its inputs: every generated candidate has its row,
// nothing else does, nothing was skipped, and
// Types + Duplicates == Generated.
func checkCensusPass(art *census.Artifact, g *censusGen) error {
	items, dups := g.items, g.dups
	if len(art.Skipped) > 0 {
		return fmt.Errorf("census: %d types skipped", len(art.Skipped))
	}
	if art.Generated != len(items)+dups || art.Duplicates != dups {
		return fmt.Errorf("census: generated %d (dups %d), regenerated %d (dups %d)",
			art.Generated, art.Duplicates, len(items)+dups, dups)
	}
	if art.Types+art.Duplicates != art.Generated || len(art.Rows) != art.Types {
		return fmt.Errorf("census: types %d + duplicates %d != generated %d (rows %d)",
			art.Types, art.Duplicates, art.Generated, len(art.Rows))
	}
	for _, it := range items {
		row, ok := art.Rows[it.key]
		if !ok {
			return fmt.Errorf("census: no row for generated %s", it.key)
		}
		if row.Name != it.typ.Name() {
			return fmt.Errorf("census: row %s names %q, generated %q", it.key, row.Name, it.typ.Name())
		}
	}
	return nil
}

// checkRow compares a census row with a classification of its type.
func checkRow(row census.Row, c checker.Classification) error {
	if row.RecMax != c.Recording.Max || row.RecAtLimit != c.Recording.AtLimit ||
		row.DiscMax != c.Discerning.Max || row.DiscAtLimit != c.Discerning.AtLimit {
		return fmt.Errorf("census row %s: rec=%d disc=%d, reference rec=%d disc=%d",
			row.Name, row.RecMax, row.DiscMax, c.Recording.Max, c.Discerning.Max)
	}
	hi := func(h int) int {
		if h == census.UnboundedHi {
			return checker.Unbounded
		}
		return h
	}
	if err := checkBand(row.Name+" cons", wireBand{Lo: row.Cons.Lo, Hi: ptr(hi(row.Cons.Hi)), Display: row.Cons.Display},
		c.ConsLo, c.ConsHi, c.ConsBand()); err != nil {
		return err
	}
	return checkBand(row.Name+" rcons", wireBand{Lo: row.Rcons.Lo, Hi: ptr(hi(row.Rcons.Hi)), Display: row.Rcons.Display},
		c.RconsLo, c.RconsHi, c.RconsBand())
}

func ptr(v int) *int { return &v }

// checkWitnesses re-verifies the witnesses behind a classification's
// levels: the recording witness with the brute-force Q-set verifier and
// the discerning witness with the interpreted verifier, each at exactly
// the level it certifies.
func checkWitnesses(t spec.Type, c checker.Classification) error {
	for _, p := range []struct {
		name   string
		level  checker.MaxLevel
		verify func(spec.Type, checker.Witness) (checker.Result, error)
	}{
		{"recording", c.Recording, checker.VerifyRecordingBrute},
		{"discerning", c.Discerning, checker.VerifyDiscerning},
	} {
		if p.level.Max < 2 {
			continue
		}
		w := p.level.Witness
		if w == nil || w.N() != p.level.Max {
			return fmt.Errorf("%s: %s level %d has no witness of that size", t.Name(), p.name, p.level.Max)
		}
		res, err := p.verify(t, *w)
		if err != nil {
			return fmt.Errorf("%s: %s witness: %w", t.Name(), p.name, err)
		}
		if !res.OK {
			return fmt.Errorf("%s: %s witness %s rejected: %s", t.Name(), p.name, w, res.Reason)
		}
	}
	return nil
}

// checkCensusWitnesses classifies every candidate of a pass with a
// fresh engine, requires the classification to match the pass's row,
// and re-verifies its witnesses.
func checkCensusWitnesses(ctx context.Context, art *census.Artifact, items []censusItem, workers int) error {
	eng := engine.New(engine.Options{Workers: workers})
	for _, it := range items {
		c, err := eng.Classify(ctx, it.typ, art.Limit)
		if err != nil {
			return err
		}
		if err := checkRow(art.Rows[it.key], c); err != nil {
			return err
		}
		if err := checkWitnesses(it.typ, c); err != nil {
			return err
		}
	}
	return nil
}

// violates reports whether replaying schedule against tgt ends in a
// safety violation (a script the target cannot follow does not).
func violates(tgt mc.Target, schedule []sim.Action) (bool, string) {
	inputs, m, out, err := mc.Replay(tgt, schedule, 0)
	if err != nil {
		return !errors.Is(err, sim.ErrScript), err.Error()
	}
	if cerr := tgt.Check(inputs, m, out); cerr != nil {
		return true, cerr.Error()
	}
	return false, ""
}

// checkCounterexample replays a counterexample to its violation and
// requires it to be 1-minimal: dropping any single action must remove
// the violation.
func checkCounterexample(tgt mc.Target, ce *mc.Counterexample) error {
	if ce == nil {
		return fmt.Errorf("%s: no counterexample", tgt.Name)
	}
	bad, msg := violates(tgt, ce.Schedule)
	if !bad {
		return fmt.Errorf("%s: counterexample %s does not violate on replay", tgt.Name, sim.FormatScript(ce.Schedule))
	}
	if msg != ce.Violation {
		return fmt.Errorf("%s: replay violates with %q, reported %q", tgt.Name, msg, ce.Violation)
	}
	for i := range ce.Schedule {
		cand := append(append([]sim.Action(nil), ce.Schedule[:i]...), ce.Schedule[i+1:]...)
		if bad, _ := violates(tgt, cand); bad {
			return fmt.Errorf("%s: counterexample not 1-minimal: dropping action %d still violates", tgt.Name, i)
		}
	}
	return nil
}

// mcExpectSafe reports whether a builtin target is a correct protocol;
// the unsafe-* targets are the deliberately broken ones.
func mcExpectSafe(name string) bool { return !strings.HasPrefix(name, "unsafe-") }

// checkMCResult checks one verdict: a safe target must come out Safe
// and Exhaustive, a broken one must yield a replayable minimal
// counterexample.
func checkMCResult(tgt mc.Target, res *mc.Result) error {
	if mcExpectSafe(tgt.Name) {
		if !res.Safe || !res.Exhaustive || res.CE != nil {
			return fmt.Errorf("%s: safe=%v exhaustive=%v, want a safe exhaustive verdict", tgt.Name, res.Safe, res.Exhaustive)
		}
		return nil
	}
	if res.Safe {
		return fmt.Errorf("%s: reported safe, want a counterexample", tgt.Name)
	}
	return checkCounterexample(tgt, res.CE)
}
