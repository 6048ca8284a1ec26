package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rcons/internal/atlas/census"
	"rcons/internal/compile"
	"rcons/internal/engine"
	"rcons/internal/mc"
	"rcons/internal/obs"
	"rcons/internal/serve"
	"rcons/internal/store"
)

// The traced run. It first times the workload's own operation with
// tracing off and on (trace.overhead_pct), then runs the layer sweep: a
// fixed, seeded set of calls into each layer's public functions, timed
// from outside the program, plus the counters and rc_stage_duration
// spans the program exports. Every traced run prints every per-layer
// metric, so the sweep does not depend on the workload; its inputs are
// the workloads' own generators at sweep seeds.

// Sweep sizes.
const (
	sweepHandlerRounds = 40  // serve-hot rounds replayed through the handler
	sweepColdWarm      = 50  // serve-cold warm-up requests before the /metrics baseline
	sweepColdRequests  = 300 // serve-cold requests between the two /metrics scrapes
	sweepStoreEntries  = 200 // store entries put and read back directly
	sweepAtlasPasses   = 5   // generation passes timed for atlas.generate_ms_per_pass
	sweepReusePasses   = 3   // census passes re-run from their own artifact
	sweepReplays       = 200 // replays of each counterexample for sim.replay_us
)

// stageTotal accumulates the spans of one stage name.
type stageTotal struct {
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// sweep holds the benchmark's own tracer: one trace root per classified
// type, per check or per request, never per census pass (a trace keeps
// at most 512 spans). Program spans started under a root nest beneath it
// and feed the same stage totals.
type sweep struct {
	e       *env
	tracer  *obs.Tracer
	rec     *obs.Recorder
	stages  map[string]*stageTotal
	m       map[string]metric
	serveDt map[string]float64 // /metrics deltas over the serve-cold burst
}

func newSweep(e *env) *sweep {
	s := &sweep{e: e, rec: obs.NewRecorder(1), stages: map[string]*stageTotal{}, m: map[string]metric{}}
	s.tracer = obs.NewTracer(1, s.rec)
	s.tracer.SetStageObserver(func(name string, secs float64) {
		t := s.stages[name]
		if t == nil {
			t = &stageTotal{}
			s.stages[name] = t
		}
		t.Count++
		t.Seconds += secs
	})
	return s
}

func (s *sweep) set(name string, v float64, unit string) { s.m[name] = metric{v, unit} }

// traced runs the traced mode for w and writes its spans and stage
// totals under traceDir.
func traced(e *env, w *workload, traceDir string) (*result, error) {
	attempted, failed, over, err := overheadPct(e, w, time.Duration(e.seconds)*time.Second)
	if err != nil {
		return nil, fmt.Errorf("overhead: %w", err)
	}
	s := newSweep(e)
	s.set("trace.overhead_pct", over, "%")
	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: s.m}
	for _, step := range []struct {
		name string
		run  func() (int, error)
	}{
		{"serve handler", s.serveHandler},
		{"serve-cold burst", s.serveCold},
		{"store", s.store},
		{"engine", s.engine},
		{"compile", s.compile},
		{"atlas", s.atlas},
		{"census reuse", s.censusReuse},
		{"mc", s.mc},
	} {
		t0 := time.Now()
		n, err := step.run()
		res.Attempted += int64(n)
		if err != nil {
			fmt.Fprintf(e.log, "perfbench: sweep %s: %v\n", step.name, err)
			res.Correct = false
		}
		fmt.Fprintf(e.log, "perfbench: sweep %s: %d ops in %.2fs\n", step.name, n, time.Since(t0).Seconds())
	}
	if err := s.write(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, e.seed)), w.name); err != nil {
		return nil, err
	}
	return res, nil
}

// traceOnce runs f under a fresh benchmark trace root and returns the
// completed trace.
func (s *sweep) traceOnce(name string, f func(ctx context.Context)) *obs.TraceRecord {
	ctx, root := s.tracer.StartTrace(s.e.ctx, name, "", true)
	f(ctx)
	root.End()
	if rs := s.rec.Recent(); len(rs) > 0 {
		return rs[0]
	}
	return nil
}

// selfSeconds sums the self time of the spans named name in tr: each
// span's duration minus the part of it its child spans cover.
func selfSeconds(tr *obs.TraceRecord, name string) float64 {
	if tr == nil {
		return 0
	}
	kids := map[uint32][]obs.SpanData{}
	for _, sp := range tr.Spans {
		kids[sp.Parent] = append(kids[sp.Parent], sp)
	}
	var total time.Duration
	for _, sp := range tr.Spans {
		if sp.Name != name {
			continue
		}
		end := sp.Start.Add(sp.Duration)
		var iv [][2]time.Time
		for _, k := range kids[sp.ID] {
			a, b := k.Start, k.Start.Add(k.Duration)
			if a.Before(sp.Start) {
				a = sp.Start
			}
			if b.After(end) {
				b = end
			}
			if a.Before(b) {
				iv = append(iv, [2]time.Time{a, b})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
		covered := time.Duration(0)
		var cur [2]time.Time
		for i, v := range iv {
			switch {
			case i == 0:
				cur = v
			case v[0].After(cur[1]):
				covered += cur[1].Sub(cur[0])
				cur = v
			case v[1].After(cur[1]):
				cur[1] = v[1]
			}
		}
		if len(iv) > 0 {
			covered += cur[1].Sub(cur[0])
		}
		total += sp.Duration - covered
	}
	return total.Seconds()
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so the handler replay measures the handler rather than a
// recorder.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
}
func (w *discardWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(b), nil
}

func (w *discardWriter) reset() {
	clear(w.h)
	w.code = 0
}

func newHandlerRequest(r request) *http.Request {
	req, err := http.NewRequest(r.method, "http://perfbench"+r.path, bytes.NewReader(r.body))
	if err != nil {
		panic(err) // the paths are generated and always parse
	}
	return req
}

// serveHandler replays the serve-hot request sequence through
// Handler().ServeHTTP with no socket: serve.handler_p50_us and
// serve.handler_alloc_kb_per_req (request construction excluded), and
// the engine memo's hit ratio over the server's life (the warm pass is
// where serve-hot traffic reaches the engine at all).
func (s *sweep) serveHandler() (int, error) {
	srv, err := serve.NewFromFlags(serverFlags(s.e, false, "")...)
	if err != nil {
		return 0, err
	}
	defer srv.Drain(s.e.ctx)
	h := srv.Handler()
	round := hotRound(subSeed(s.e.seed, "sweep-hot-round", 0),
		hotPool(subSeed(s.e.seed, "sweep-hot-pool", 0), hotPoolSize), hotLimit)
	w := &discardWriter{h: http.Header{}}
	for _, r := range round {
		w.reset()
		h.ServeHTTP(w, newHandlerRequest(r))
		if w.code != http.StatusOK {
			return 0, fmt.Errorf("warm %s %s: status %d", r.method, r.path, w.code)
		}
	}
	n := sweepHandlerRounds * len(round)
	var ms0, ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for k := 0; k < sweepHandlerRounds; k++ {
		for _, r := range round {
			_ = newHandlerRequest(r)
		}
	}
	runtime.ReadMemStats(&ms1)
	samples := make([]float64, 0, n)
	failed := 0
	for k := 0; k < sweepHandlerRounds; k++ {
		for _, r := range round {
			req := newHandlerRequest(r)
			w.reset()
			t0 := time.Now()
			h.ServeHTTP(w, req)
			samples = append(samples, time.Since(t0).Seconds())
			if w.code != http.StatusOK {
				failed++
			}
		}
	}
	runtime.ReadMemStats(&ms2)
	reqAlloc := float64(ms1.TotalAlloc - ms0.TotalAlloc)
	served := float64(ms2.TotalAlloc-ms1.TotalAlloc) - reqAlloc
	s.set("serve.handler_p50_us", quantile(sortedCopy(samples), 0.5)*1e6, "us")
	s.set("serve.handler_alloc_kb_per_req", served/1024/float64(n), "KiB")
	m := metricsOf(h)
	hits, misses := m["rc_engine_memo_hits_total"], m["rc_engine_memo_misses_total"]
	s.set("engine.memo_hit_ratio", hits/(hits+misses), "ratio")
	if failed > 0 {
		return n, fmt.Errorf("%d handler replays were not 200", failed)
	}
	return n, nil
}

// metricsOf scrapes GET /metrics through a handler.
func metricsOf(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseMetrics(rec.Body.Bytes())
}

// parseMetrics reads Prometheus text exposition into series → value.
func parseMetrics(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// delta sums after-before over every series whose name starts with
// prefix.
func delta(before, after map[string]float64, prefix string) float64 {
	var d float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			d += v - before[k]
		}
	}
	return d
}

// serveCold drives a burst of serve-cold requests through a traced
// server with a store and takes /metrics deltas: flight, engine-stage
// and store counters per request.
func (s *sweep) serveCold() (int, error) {
	dir := filepath.Join(s.e.dir, "sweep-store")
	ls, err := startServer(serverFlags(s.e, true, dir))
	if err != nil {
		return 0, err
	}
	defer ls.close()
	gen := newColdTables(subSeed(s.e.seed, "sweep-cold", 0), "sweep-", map[string]bool{})
	var buf bytes.Buffer
	send := func(t target) error {
		code, err := ls.do(coldRequest(t), &buf)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, buf.Bytes())
		}
		return err
	}
	for i := 0; i < sweepColdWarm; i++ {
		if err := send(gen.next()); err != nil {
			return i, err
		}
	}
	b0, err := ls.get("/metrics")
	if err != nil {
		return sweepColdWarm, err
	}
	ref := newReference(coldLimit)
	var checkErr error
	for i := 0; i < sweepColdRequests; i++ {
		t := gen.next()
		if err := send(t); err != nil {
			return sweepColdWarm + i, err
		}
		if i%coldSampleEvery == 0 && checkErr == nil {
			checkErr = checkResponse(coldRequest(t), buf.Bytes(), ref)
		}
	}
	b1, err := ls.get("/metrics")
	if err != nil {
		return sweepColdWarm + sweepColdRequests, err
	}
	before, after := parseMetrics(b0), parseMetrics(b1)
	s.serveDt = map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			s.serveDt[k] = d
		}
	}
	per := func(prefix string) float64 { return delta(before, after, prefix) / sweepColdRequests }
	stageMs := func(stage string) float64 {
		return per(`rc_stage_duration_seconds_sum{stage="`+stage+`"}`) * 1e3
	}
	s.set("stage.flight.lead_ms_per_req", stageMs("flight.lead"), "ms")
	s.set("stage.flight.wait_ms_per_req", stageMs("flight.wait"), "ms")
	s.set("serve.coalesced_per_req", per("rc_http_coalesced_total"), "count")
	s.set("stage.engine.classify_ms_per_req", stageMs("engine.classify"), "ms")
	s.set("stage.engine.search_ms_per_req", stageMs("engine.search"), "ms")
	s.set("stage.engine.persist_ms_per_req", stageMs("engine.persist"), "ms")
	s.set("store.puts_per_req", per("rc_store_puts_total"), "count")
	s.set("store.misses_per_req", per("rc_store_misses_total"), "count")
	return sweepColdWarm + sweepColdRequests, checkErr
}

// storeEntry is one entry file's envelope as the store writes it.
type storeEntry struct {
	Kind    string          `json:"kind"`
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// store times Put and Get directly on a fresh store with the payloads
// the serve-cold burst persisted: store.put_p50_ms (fsync'd writes),
// store.get_disk_p50_us (a new handle, so the first read of each entry
// comes from disk) and store.get_mem_p50_us (the second read, from the
// memory front).
func (s *sweep) store() (int, error) {
	var entries []storeEntry
	root := filepath.Join(s.e.dir, "sweep-store", "v1")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") || len(entries) == sweepStoreEntries {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var en storeEntry
		if err := json.Unmarshal(raw, &en); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		entries = append(entries, en)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if len(entries) == 0 {
		return 0, fmt.Errorf("the serve-cold burst persisted nothing under %s", root)
	}
	dir := filepath.Join(s.e.dir, "probe-store")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, err
	}
	var puts, disk, mem []float64
	for _, en := range entries {
		t0 := time.Now()
		if err := st.Put(s.e.ctx, en.Kind, en.Key, en.Payload); err != nil {
			return len(puts), err
		}
		puts = append(puts, time.Since(t0).Seconds())
	}
	rd, err := store.Open(dir, store.Options{})
	if err != nil {
		return len(puts), err
	}
	for _, tier := range []*[]float64{&disk, &mem} {
		for _, en := range entries {
			t0 := time.Now()
			got, ok, err := rd.Get(s.e.ctx, en.Kind, en.Key)
			*tier = append(*tier, time.Since(t0).Seconds())
			if err != nil || !ok {
				return len(puts) + len(disk) + len(mem), fmt.Errorf("get %s/%s: ok=%v err=%v", en.Kind, en.Key, ok, err)
			}
			if !jsonEqual(got, en.Payload) {
				return len(puts) + len(disk) + len(mem), fmt.Errorf("get %s/%s returned another payload", en.Kind, en.Key)
			}
		}
	}
	if st := rd.Stats(); st.DiskHits != int64(len(entries)) || st.MemHits != int64(len(entries)) {
		return 3 * len(entries), fmt.Errorf("store reads: %d disk and %d memory hits, want %d each", st.DiskHits, st.MemHits, len(entries))
	}
	s.set("store.put_p50_ms", quantile(sortedCopy(puts), 0.5)*1e3, "ms")
	s.set("store.get_disk_p50_us", quantile(sortedCopy(disk), 0.5)*1e6, "us")
	s.set("store.get_mem_p50_us", quantile(sortedCopy(mem), 0.5)*1e6, "us")
	return 3 * len(entries), nil
}

func jsonEqual(a, b []byte) bool {
	var ca, cb bytes.Buffer
	return json.Compact(&ca, a) == nil && json.Compact(&cb, b) == nil && bytes.Equal(ca.Bytes(), cb.Bytes())
}

// sweepItems is the census pass whose candidates the engine, compile
// and atlas probes use.
func (s *sweep) sweepItems(i int) (*censusGen, census.Options, error) {
	o := censusOptions(subSeed(s.e.seed, "sweep-census", i), nil, 0)
	g, err := censusItems(o)
	return g, o, err
}

// engine classifies one census pass's candidates type by type with a
// fresh engine, untraced for the latencies and the search count, then
// with a fresh engine and one trace root per type for the self time of
// the sharded checker search.
func (s *sweep) engine() (int, error) {
	g, _, err := s.sweepItems(0)
	if err != nil {
		return 0, err
	}
	items := g.items
	eng := engine.New(engine.Options{Workers: s.e.workers})
	lat := make([]float64, 0, len(items))
	for _, it := range items {
		t0 := time.Now()
		c, err := eng.Classify(s.e.ctx, it.typ, censusLimit)
		lat = append(lat, time.Since(t0).Seconds())
		if err != nil {
			return len(lat), err
		}
		if err := checkWitnesses(it.typ, c); err != nil {
			return len(lat), err
		}
	}
	sorted := sortedCopy(lat)
	st := eng.Stats()
	s.set("engine.classify_p50_us", quantile(sorted, 0.5)*1e6, "us")
	s.set("engine.classify_p99_us", quantile(sorted, 0.99)*1e6, "us")
	s.set("engine.searches_per_type", float64(st.Misses)/float64(len(items)), "count")

	eng = engine.New(engine.Options{Workers: s.e.workers})
	var self float64
	for _, it := range items {
		var err error
		tr := s.traceOnce("bench.engine.classify", func(ctx context.Context) {
			_, err = eng.Classify(ctx, it.typ, censusLimit)
		})
		if err != nil {
			return 2 * len(items), err
		}
		self += selfSeconds(tr, "engine.search")
		if tr != nil && tr.Dropped > 0 {
			return 2 * len(items), fmt.Errorf("trace of %s dropped %d spans", it.typ.Name(), tr.Dropped)
		}
	}
	s.set("stage.engine.search_ms_per_type", self*1e3/float64(len(items)), "ms")
	return 2 * len(items), nil
}

// compile lowers every candidate of the sweep pass at every process
// count the census scans.
func (s *sweep) compile() (int, error) {
	g, _, err := s.sweepItems(0)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, it := range g.items {
		s.traceOnce("bench.compile", func(context.Context) {
			for n := 2; n <= censusLimit; n++ {
				t0 := time.Now()
				_, cerr := compile.Compile(it.typ, n)
				total += time.Since(t0)
				if cerr != nil && err == nil {
					err = fmt.Errorf("compile %s at n=%d: %w", it.typ.Name(), n, cerr)
				}
			}
		})
	}
	s.set("compile.build_us_per_type", total.Seconds()*1e6/float64(len(g.items)), "us")
	return len(g.items) * (censusLimit - 1), err
}

// atlas times the generation of census passes' inputs (enumeration,
// random tables with their canonical forms, zoo tabulation and
// mutation) and reports the share of generated tables kept.
func (s *sweep) atlas() (int, error) {
	var times []float64
	var kept, drawn int
	for i := 0; i < sweepAtlasPasses; i++ {
		var g *censusGen
		var err error
		s.traceOnce("bench.atlas.generate", func(context.Context) {
			t0 := time.Now()
			g, _, err = s.sweepItems(i)
			times = append(times, time.Since(t0).Seconds())
		})
		if err != nil {
			return i, err
		}
		kept += len(g.items)
		drawn += g.drawn
	}
	s.set("atlas.generate_ms_per_pass", median(times)*1e3, "ms")
	s.set("atlas.dedup_ratio", float64(kept)/float64(drawn), "ratio")
	return sweepAtlasPasses, nil
}

// censusReuse re-runs census passes with Prior set to their own
// artifact — generation, zoo scan and aggregation with no
// classification — and requires the result to be byte-identical.
func (s *sweep) censusReuse() (int, error) {
	var times []float64
	for i := 0; i < sweepReusePasses; i++ {
		g, o, err := s.sweepItems(i)
		if err != nil {
			return i, err
		}
		o.Workers = s.e.workers
		o.Engine = engine.New(engine.Options{Workers: s.e.workers})
		art, err := census.Run(s.e.ctx, o)
		if err != nil {
			return i, err
		}
		if err := checkCensusPass(art, g); err != nil {
			return i, err
		}
		o.Prior = art
		o.Engine = engine.New(engine.Options{Workers: s.e.workers})
		var again *census.Artifact
		s.traceOnce("bench.census.reuse", func(context.Context) {
			t0 := time.Now()
			again, err = census.Run(s.e.ctx, o)
			times = append(times, time.Since(t0).Seconds())
		})
		if err != nil {
			return i, err
		}
		a, _ := json.Marshal(art)
		b, _ := json.Marshal(again)
		if !bytes.Equal(a, b) {
			return i, fmt.Errorf("census pass %d re-run from its own artifact differs", i)
		}
	}
	s.set("census.reuse_pass_ms", median(times)*1e3, "ms")
	return 2 * sweepReusePasses, nil
}

// mc runs the battery once with one trace root per check: exact node
// and pruned counts over the safe targets, their node rate and
// allocation per node, the broken targets' node counts, and the replay
// time of each counterexample.
func (s *sweep) mc() (int, error) {
	if _, _, err := setupMC(s.e, 0); err != nil {
		return 0, err
	}
	tgts, err := mcTargets(mcN)
	if err != nil {
		return 0, err
	}
	var nodes, pruned, unsafeNodes int
	var secs float64
	var alloc uint64
	var replays []float64
	for _, t := range tgts {
		var res *mc.Result
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		s.traceOnce("bench.mc", func(ctx context.Context) { res, err = mc.Check(ctx, t, mcOptions(s.e)) })
		el := time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return len(tgts), err
		}
		if err := checkMCResult(t, res); err != nil {
			return len(tgts), err
		}
		if !mcExpectSafe(t.Name) {
			unsafeNodes += res.Stats.Nodes
			var rs []float64
			for k := 0; k < sweepReplays; k++ {
				t0 := time.Now()
				_, _, _, _ = mc.Replay(t, res.CE.Schedule, 0)
				rs = append(rs, time.Since(t0).Seconds())
			}
			replays = append(replays, median(rs))
			continue
		}
		nodes += res.Stats.Nodes
		pruned += res.Stats.Pruned
		secs += el
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
	}
	s.set("mc.nodes", float64(nodes), "count")
	s.set("mc.pruned", float64(pruned), "count")
	s.set("mc.prune_ratio", float64(pruned)/float64(nodes+pruned), "ratio")
	s.set("mc.nodes_per_s", float64(nodes)/secs, "1/s")
	s.set("mc.alloc_kb_per_node", float64(alloc)/1024/float64(nodes), "KiB")
	s.set("mc.nodes_unsafe", float64(unsafeNodes), "count")
	var sum float64
	for _, r := range replays {
		sum += r
	}
	s.set("sim.replay_us", sum/float64(len(replays))*1e6, "us")
	return len(tgts) + sweepReplays*len(replays), nil
}

// write saves the stage totals, the /metrics deltas of the serve-cold
// burst and the slowest traces as text trees.
func (s *sweep) write(path, workload string) error {
	var trees []string
	for _, tr := range s.rec.Slowest() {
		var b strings.Builder
		obs.WriteTraceTree(&b, tr)
		trees = append(trees, b.String())
	}
	out, err := json.MarshalIndent(map[string]any{
		"workload":      workload,
		"seed":          s.e.seed,
		"stages":        s.stages,
		"serve_metrics": s.serveDt,
		"slowest":       trees,
		"metrics":       s.m,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
