package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"

	"rcons/internal/atlas"
	"rcons/internal/atlas/census"
	"rcons/internal/engine"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// Input generators. Every input a run feeds the program is a pure
// function of the run's --seed (plus the set-up repetition or pass
// index); the program sees only the generated tables and requests.

// subSeed derives an independent stream seed from the run seed, a
// purpose tag and an index, so the warm-up, timed and traced inputs of
// one run never share tables by accident.
func subSeed(seed int64, tag string, i int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	for _, c := range []byte(tag) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= h >> 31
	return int64(h & (1<<62 - 1))
}

// randomTable draws a custom table with 2–4 states, 1–3 operations and
// 1–3 responses (the census's default random envelope) and names it.
func randomTable(rng *rand.Rand, name string) *types.Custom {
	t := atlas.Random(rng, 2+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3))
	c := t.Custom()
	c.TypeName = name
	return c
}

// zooNames lists the built-in zoo types whose display name resolves
// back through types.ByName, i.e. the ones a client can ask for by name.
func zooNames() []string {
	var names []string
	for _, t := range types.Zoo() {
		if _, err := types.ByName(t.Name()); err == nil {
			names = append(names, t.Name())
		}
	}
	return names
}

// target is one classification a request asks for: a built-in name or
// a custom table, with the JSON the client sends for it.
type target struct {
	name  string // built-in name; "" for a custom table
	table []byte // custom table JSON; nil for a built-in
}

// resolve parses the target the way the server does.
func (t target) resolve() (spec.Type, error) {
	if t.name != "" {
		return types.ByName(t.name)
	}
	return types.NewCustomFromJSON(t.table)
}

// request is one prepared HTTP request of a workload.
type request struct {
	method string
	path   string
	body   []byte
	// targets are the classifications the response carries, in
	// response order; zoo marks a /v1/zoo request (whole zoo).
	targets []target
	zoo     bool
}

// hotPool builds the serve-hot type pool: every named zoo type plus
// seeded random custom tables, size entries in all.
func hotPool(seed int64, size int) []target {
	var pool []target
	for _, n := range zooNames() {
		pool = append(pool, target{name: n})
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; len(pool) < size; i++ {
		raw, err := json.Marshal(randomTable(rng, "hot-"+strconv.Itoa(i)))
		if err != nil {
			panic(err) // a Custom of string maps always marshals
		}
		pool = append(pool, target{table: raw})
	}
	return pool
}

// hotRound is the request sequence serve-hot repeats: one single
// classify per pool entry (GET by name, POST by table), the pool again
// in batches of hotBatch items, and hotZoo /v1/zoo reads, shuffled.
func hotRound(seed int64, pool []target, limit int) []request {
	var rs []request
	q := "?limit=" + strconv.Itoa(limit)
	for _, t := range pool {
		if t.name != "" {
			rs = append(rs, request{method: http.MethodGet,
				path: "/v1/classify" + q + "&type=" + url.QueryEscape(t.name), targets: []target{t}})
		} else {
			rs = append(rs, request{method: http.MethodPost,
				path: "/v1/classify" + q, body: t.table, targets: []target{t}})
		}
	}
	for i := 0; i < len(pool); i += hotBatch {
		batch := pool[i:min(i+hotBatch, len(pool))]
		rs = append(rs, request{method: http.MethodPost, path: "/v1/classify/batch",
			body: batchBody(batch, limit), targets: batch})
	}
	for i := 0; i < hotZoo; i++ {
		rs = append(rs, request{method: http.MethodGet, path: "/v1/zoo" + q, zoo: true})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	return rs
}

// batchBody renders a /v1/classify/batch request body. Tables are
// embedded with exactly the bytes the single POSTs send, so the
// server's per-item memo serves both forms from one entry.
func batchBody(ts []target, limit int) []byte {
	type item struct {
		Type  string          `json:"type,omitempty"`
		Table json.RawMessage `json:"table,omitempty"`
	}
	items := make([]item, len(ts))
	for i, t := range ts {
		items[i] = item{Type: t.name, Table: t.table}
	}
	b, err := json.Marshal(struct {
		Limit int    `json:"limit"`
		Items []item `json:"items"`
	}{limit, items})
	if err != nil {
		panic(err)
	}
	return b
}

// coldTables yields custom tables that are new to the process: each
// carries a name no other table of the run has, and a transition
// structure (labels included) that no earlier table of the run had, so
// its exact fingerprint misses every memo and the store. Isomorphic
// repeats of earlier tables still occur, as they would from real users.
type coldTables struct {
	rng    *rand.Rand
	prefix string
	n      int
	seen   map[string]bool
}

func newColdTables(seed int64, prefix string, seen map[string]bool) *coldTables {
	return &coldTables{rng: rand.New(rand.NewSource(seed)), prefix: prefix, seen: seen}
}

func (g *coldTables) next() target {
	for {
		c := randomTable(g.rng, "")
		shape, err := json.Marshal(c)
		if err != nil {
			panic(err)
		}
		if g.seen[string(shape)] {
			continue
		}
		g.seen[string(shape)] = true
		c.TypeName = g.prefix + strconv.Itoa(g.n)
		g.n++
		raw, err := json.Marshal(c)
		if err != nil {
			panic(err)
		}
		return target{table: raw}
	}
}

// censusOptions is one census pass: a small exhaustive block, seeded
// random tables and zoo mutants, classified at censusLimit.
func censusOptions(seed int64, eng *engine.Engine, workers int) census.Options {
	return census.Options{
		Bounds:        atlas.Bounds{States: 2, Ops: 2, Resps: 2},
		Random:        censusRandom,
		MutantsPerZoo: censusMutants,
		Seed:          seed,
		Limit:         censusLimit,
		Workers:       workers,
		Engine:        eng,
	}
}

// censusItem is one candidate a census pass generates.
type censusItem struct {
	key string
	typ spec.Type
}

// censusGen is a census pass's generated input.
type censusGen struct {
	items []censusItem // distinct candidates, in generation order
	dups  int          // candidates dropped as duplicates of earlier ones
	drawn int          // tables drawn before any dedup, enumerated raw tables included
}

// censusItems regenerates a pass's candidates independently of
// census.Run, from the documented generation order (enumeration, then
// random sampling, then zoo mutants) and dedup keys (canonical keys for
// dense tables, neutral-name exact fingerprints plus readability for
// mutants).
func censusItems(o census.Options) (*censusGen, error) {
	g := &censusGen{}
	seen := map[string]bool{}
	add := func(key string, t spec.Type) {
		if seen[key] {
			g.dups++
			return
		}
		seen[key] = true
		g.items = append(g.items, censusItem{key: key, typ: t})
	}
	if o.Bounds != (atlas.Bounds{}) {
		raw, _, err := atlas.Enumerate(o.Bounds, func(key string, t *atlas.Table) bool {
			add(key, t)
			return true
		})
		if err != nil {
			return nil, err
		}
		g.drawn += raw
	}
	rb := o.RandomBounds
	if rb == (atlas.Bounds{}) {
		rb = census.DefaultRandomBounds
	}
	rng := rand.New(rand.NewSource(o.Seed))
	for i := 0; i < o.Random; i++ {
		s := 2 + rng.Intn(rb.States-1)
		op := 1 + rng.Intn(rb.Ops)
		r := 1 + rng.Intn(rb.Resps)
		g.drawn++
		canon, key, ok := atlas.Random(rng, s, op, r).CanonicalWithKey()
		if !ok {
			return nil, fmt.Errorf("random table %ds%do%dr not canonicalizable", s, op, r)
		}
		add(key, canon.WithLabel("atlas:"+key))
	}
	if o.MutantsPerZoo > 0 {
		rng := rand.New(rand.NewSource(o.Seed + 1))
		for _, zt := range types.Zoo() {
			base, err := atlas.Tabulate(zt, 3, 2048)
			if err != nil {
				continue
			}
			for m := 0; m < o.MutantsPerZoo; m++ {
				mut := atlas.Mutate(rng, base, 1+rng.Intn(3))
				g.drawn++
				anon := *mut
				anon.TypeName = "mutant"
				fp, ok := engine.Fingerprint(&anon, o.Limit)
				if !ok {
					continue
				}
				key := "f:" + fp
				if !mut.IsReadable() {
					key += ":nr"
				}
				mut.TypeName = fmt.Sprintf("%s~m%d", zt.Name(), m)
				add(key, mut)
			}
		}
	}
	return g, nil
}
