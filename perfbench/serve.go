package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"slices"
	"strconv"
	"time"

	"rcons/internal/serve"
)

// Serve workload sizes. The hot pool (hotPoolSize types, each reachable
// by a single request and inside a batch) stays below every memo cap on
// the serving path: the serve item memo (2048 entries), the engine memo
// (4096) and the store's memory front (1024).
const (
	hotPoolSize = 300
	hotBatch    = 16
	hotZoo      = 8
	hotLimit    = 4

	coldLimit = 4
	// coldWarm is the number of fresh tables a serve-cold set-up sends
	// before timing: the first requests of a process run several times
	// slower than the steady state, and that cost belongs to set-up.
	coldWarm = 200
	// coldPerSecond sizes the pre-generated table supply per timed
	// second per client, well above the measured rate; a run that
	// outruns it generates further tables inline.
	coldPerSecond = 1500
	// coldSampleEvery selects the timed serve-cold responses that the
	// check compares with the interpreted checker.
	coldSampleEvery = 25
)

// liveServer is the real rcserve handler behind a loopback listener,
// with one keep-alive client connection.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	tr     *http.Transport
}

func serverFlags(e *env, traced bool, storeDir string) []string {
	sample := "0"
	if traced {
		sample = "1"
	}
	args := []string{"-log-level", "error", "-workers", strconv.Itoa(e.workers),
		"-trace-sample", sample, "-max-limit", "6"}
	if storeDir != "" {
		args = append(args, "-store", storeDir)
	}
	return args
}

func startServer(args []string) (*liveServer, error) {
	srv, err := serve.NewFromFlags(args...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		tr: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
	ls.client = &http.Client{Transport: ls.tr}
	go func() { _ = ls.hs.Serve(ln) }()
	return ls, nil
}

// do sends one request and reads the whole response body into buf.
func (ls *liveServer) do(r request, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(r.method, ls.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// get fetches a path and returns its body (used for /metrics).
func (ls *liveServer) get(path string) ([]byte, error) {
	var buf bytes.Buffer
	code, err := ls.do(request{method: http.MethodGet, path: path}, &buf)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, code)
	}
	return buf.Bytes(), err
}

// close stops the listener, waits for the handlers and drains the
// server's jobs; every goroutine the server started has ended when it
// returns.
func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ls.hs.Shutdown(ctx)
	ls.tr.CloseIdleConnections()
	_ = ls.srv.Drain(ctx)
}

// hotInst is serve-hot: whole rounds of a fixed request sequence over a
// warm pool, every response a memo hit.
type hotInst struct {
	ls    *liveServer
	round []request
	warm  [][]byte // the warm pass's response to each request
	buf   bytes.Buffer
}

func setupHot(e *env, rep int, traced bool) (instance, float64, error) {
	pool := hotPool(subSeed(e.seed, "hot-pool", rep), hotPoolSize)
	round := hotRound(subSeed(e.seed, "hot-round", rep), pool, hotLimit)
	t0 := time.Now()
	ls, err := startServer(serverFlags(e, traced, ""))
	if err != nil {
		return nil, 0, err
	}
	h := &hotInst{ls: ls, round: round}
	for _, r := range round {
		code, err := ls.do(r, &h.buf)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("%s %s: status %d", r.method, r.path, code)
		}
		if err != nil {
			ls.close()
			return nil, 0, fmt.Errorf("warm pass: %w", err)
		}
		h.warm = append(h.warm, bytes.Clone(h.buf.Bytes()))
	}
	return h, time.Since(t0).Seconds(), nil
}

func (h *hotInst) roundLen() int { return len(h.round) }

// op sends request i of the round. A response must be a 200 carrying
// exactly the warm pass's bytes for that request.
func (h *hotInst) op(i int) (int, bool) {
	r := h.round[i]
	code, err := h.ls.do(r, &h.buf)
	if err != nil || code != http.StatusOK || !bytes.Equal(h.buf.Bytes(), h.warm[i]) {
		return 0, false
	}
	if r.zoo {
		return zooSize, true
	}
	return len(r.targets), true
}

// check compares every response of the round with the interpreted
// checker; the timed responses were byte-identical to these.
func (h *hotInst) check() error {
	ref := newReference(hotLimit)
	for i, r := range h.round {
		if err := checkResponse(r, h.warm[i], ref); err != nil {
			return err
		}
	}
	return nil
}

func (h *hotInst) close() { h.ls.close() }

// coldInst is serve-cold: single POST /v1/classify requests, each with
// a table the process has never seen. The server runs without -store:
// its fsync'd writes made every timing follow the shared disk rather
// than the program (see README.md); the store is measured in the traced
// run instead.
type coldInst struct {
	ls     *liveServer
	gen    *coldTables
	tables []target
	next   int
	// sampled holds the bodies of the timed responses the check
	// compares with the interpreted checker, by table index.
	sampled  map[int][]byte
	buf      bytes.Buffer
	sampleAt int
}

func setupCold(e *env, rep int, traced bool) (instance, float64, error) {
	seen := map[string]bool{}
	warmGen := newColdTables(subSeed(e.seed, "cold-warm", rep), fmt.Sprintf("warm%d-", rep), seen)
	warm := make([]target, coldWarm)
	for i := range warm {
		warm[i] = warmGen.next()
	}
	c := &coldInst{
		gen:      newColdTables(subSeed(e.seed, "cold", rep), fmt.Sprintf("cold%d-", rep), seen),
		sampled:  map[int][]byte{},
		sampleAt: int(uint64(e.seed) % coldSampleEvery),
	}
	t0 := time.Now()
	ls, err := startServer(serverFlags(e, traced, ""))
	if err != nil {
		return nil, 0, err
	}
	c.ls = ls
	for _, t := range warm {
		code, err := ls.do(coldRequest(t), &c.buf)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, c.buf.Bytes())
		}
		if err != nil {
			ls.close()
			return nil, 0, fmt.Errorf("warm pass: %w", err)
		}
	}
	return c, time.Since(t0).Seconds(), nil
}

// prepare generates the table supply for a timed phase of length d.
func (c *coldInst) prepare(d time.Duration) {
	for n := int(d.Seconds() * coldPerSecond); len(c.tables) < n; {
		c.tables = append(c.tables, c.gen.next())
	}
}

func coldRequest(t target) request {
	return request{method: http.MethodPost, path: "/v1/classify?limit=" + strconv.Itoa(coldLimit),
		body: t.table, targets: []target{t}}
}

// roundLen is 1: every request is its own round, since no request
// repeats.
func (c *coldInst) roundLen() int { return 1 }

func (c *coldInst) op(int) (int, bool) {
	k := c.next
	c.next++
	if k == len(c.tables) {
		c.tables = append(c.tables, c.gen.next())
	}
	code, err := c.ls.do(coldRequest(c.tables[k]), &c.buf)
	if err != nil || code != http.StatusOK {
		return 0, false
	}
	if k%coldSampleEvery == c.sampleAt {
		c.sampled[k] = bytes.Clone(c.buf.Bytes())
	}
	return 1, true
}

// check compares the sampled timed responses with the interpreted
// checker.
func (c *coldInst) check() error {
	if len(c.sampled) == 0 && c.next > coldSampleEvery {
		return errors.New("serve-cold: no response sampled")
	}
	ref := newReference(coldLimit)
	for _, k := range slices.Sorted(maps.Keys(c.sampled)) {
		if err := checkResponse(coldRequest(c.tables[k]), c.sampled[k], ref); err != nil {
			return err
		}
	}
	return nil
}

func (c *coldInst) close() { c.ls.close() }
