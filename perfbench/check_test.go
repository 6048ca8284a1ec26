package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rcons/internal/atlas/census"
	"rcons/internal/checker"
	"rcons/internal/engine"
	"rcons/internal/mc"
	"rcons/internal/serve"
	"rcons/internal/sim"
	"rcons/internal/spec"
)

// served returns the real handler's response body for r.
func served(t *testing.T, h http.Handler, r request) []byte {
	t.Helper()
	req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", r.method, r.path, w.Code, w.Body.Bytes())
	}
	return w.Body.Bytes()
}

func TestCheckResponseRejectsCorruptedBands(t *testing.T) {
	srv, err := serve.NewFromFlags("-log-level", "error", "-trace-sample", "0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	h := srv.Handler()
	const limit = 3
	pool := hotPool(1, len(zooNames())+4)
	ref := newReference(limit)
	for _, r := range hotRound(1, pool, limit) {
		body := served(t, h, r)
		if err := checkResponse(r, body, ref); err != nil {
			t.Fatalf("%s %s: correct response rejected: %v", r.method, r.path, err)
		}
		// Each corruption edits the first match of from after anchor.
		for _, c := range []struct{ anchor, from, to string }{
			{`"recording":`, `"max":`, `"max":9`},
			{`"cons":`, `"lo":`, `"lo":7`},
			{`"rcons":`, `"display":"`, `"display":"x`},
			{`"discerning":`, `"atLimit":false`, `"atLimit":true`},
		} {
			i := strings.Index(string(body), c.anchor)
			if i < 0 {
				t.Fatalf("%s %s: no %s in response", r.method, r.path, c.anchor)
			}
			bad := string(body[:i]) + strings.Replace(string(body[i:]), c.from, c.to, 1)
			if bad == string(body) {
				continue
			}
			if err := checkResponse(r, []byte(bad), ref); err == nil {
				t.Errorf("%s %s: response with %q → %q accepted", r.method, r.path, c.from, c.to)
			}
		}
	}
}

func smallCensus(seed int64) census.Options {
	return census.Options{
		Bounds: censusOptions(0, nil, 0).Bounds,
		Random: 20, MutantsPerZoo: 1, Seed: seed, Limit: 3, Workers: 2,
	}
}

func TestCensusChecksRejectCorruptedArtifacts(t *testing.T) {
	ctx := context.Background()
	o := smallCensus(7)
	o.Engine = engine.New(engine.Options{Workers: 2})
	art, err := census.Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	g, err := censusItems(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCensusPass(art, g); err != nil {
		t.Fatalf("correct artifact rejected: %v", err)
	}
	if err := checkCensusWitnesses(ctx, art, g.items, 2); err != nil {
		t.Fatalf("correct witnesses rejected: %v", err)
	}

	corrupt := func(name string, f func(a *census.Artifact)) {
		t.Helper()
		a := cloneArtifact(t, art)
		f(a)
		if checkCensusPass(a, g) == nil && checkCensusWitnesses(ctx, a, g.items, 2) == nil {
			t.Errorf("%s: corrupted artifact accepted", name)
		}
	}
	key := g.items[len(g.items)/2].key
	corrupt("generated count", func(a *census.Artifact) { a.Generated++ })
	corrupt("duplicates", func(a *census.Artifact) { a.Duplicates++; a.Types-- })
	corrupt("missing row", func(a *census.Artifact) { delete(a.Rows, key); a.Types-- })
	corrupt("renamed row", func(a *census.Artifact) { r := a.Rows[key]; r.Name += "'"; a.Rows[key] = r })
	corrupt("skipped type", func(a *census.Artifact) { a.Skipped = []string{key} })
	corrupt("recording level", func(a *census.Artifact) { r := a.Rows[key]; r.RecMax++; a.Rows[key] = r })
	corrupt("rcons band", func(a *census.Artifact) { r := a.Rows[key]; r.Rcons.Display += "?"; a.Rows[key] = r })

	// An interpreted reclassification rejects a row whose level is off.
	it := g.items[0]
	c, err := checker.Classify(it.typ, o.Limit, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := art.Rows[it.key]
	if err := checkRow(row, c); err != nil {
		t.Fatalf("correct row rejected: %v", err)
	}
	row.DiscMax++
	if checkRow(row, c) == nil {
		t.Error("row with a wrong discerning level accepted")
	}
}

func cloneArtifact(t *testing.T, a *census.Artifact) *census.Artifact {
	t.Helper()
	b := *a
	b.Rows = map[string]census.Row{}
	for k, v := range a.Rows {
		b.Rows[k] = v
	}
	return &b
}

// A witness with one process moved to the other team or given another
// operation must fail verification for at least one of the zoo's
// witnesses; the untouched witnesses must all pass.
func TestCheckWitnessesRejectsCorruptedWitness(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	g, err := censusItems(smallCensus(3))
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, it := range g.items {
		c, err := eng.Classify(context.Background(), it.typ, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkWitnesses(it.typ, c); err != nil {
			t.Fatalf("%s: correct witnesses rejected: %v", it.typ.Name(), err)
		}
		w := c.Recording.Witness
		if w == nil {
			continue
		}
		bad := *w
		bad.Teams = append([]int(nil), w.Teams...)
		bad.Teams[0] = 1 - bad.Teams[0]
		bad.Ops = append([]spec.Op(nil), w.Ops...)
		c.Recording.Witness = &bad
		if checkWitnesses(it.typ, c) != nil {
			rejected++
		}
		c.Recording.Witness = nil
		if checkWitnesses(it.typ, c) == nil {
			t.Fatalf("%s: missing recording witness accepted", it.typ.Name())
		}
	}
	if rejected == 0 {
		t.Error("no corrupted recording witness was rejected")
	}
}

func TestMCChecksRejectCorruptedVerdicts(t *testing.T) {
	ctx := context.Background()
	opts := mc.Options{MaxDepth: mcDepth, CrashBudget: mcCrash, Workers: 2}
	bad, err := mc.TargetByName("unsafe-yieldalways", mcN)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Check(ctx, bad, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMCResult(bad, res); err != nil {
		t.Fatalf("correct counterexample rejected: %v", err)
	}
	sched := res.CE.Schedule
	for name, s := range map[string][]sim.Action{
		"truncated": sched[:len(sched)-1],
		"padded":    append(append([]sim.Action(nil), sched[:1]...), sched...),
	} {
		ce := *res.CE
		ce.Schedule = s
		if checkCounterexample(bad, &ce) == nil {
			t.Errorf("%s counterexample accepted", name)
		}
	}
	ce := *res.CE
	ce.Violation += "!"
	if checkCounterexample(bad, &ce) == nil {
		t.Error("counterexample with another violation message accepted")
	}
	if checkMCResult(bad, &mc.Result{Safe: true, Exhaustive: true}) == nil {
		t.Error("broken target reported safe accepted")
	}

	good, err := mc.TargetByName("cas", 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err = mc.Check(ctx, good, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMCResult(good, res); err != nil {
		t.Fatalf("correct safe verdict rejected: %v", err)
	}
	notExh := *res
	notExh.Exhaustive = false
	if checkMCResult(good, &notExh) == nil {
		t.Error("non-exhaustive safe verdict accepted")
	}
	unsafe := *res
	unsafe.Safe = false
	if checkMCResult(good, &unsafe) == nil {
		t.Error("safe target reported unsafe accepted")
	}
}
