// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload in its own process, checks the
// program's answers against computations made apart from the program,
// and prints one JSON result line last:
//
//	perfbench --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off; with --trace 1 it carries the per-layer metrics of a
// separate traced run. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"rcons/internal/types"
)

// zooSize is the number of classifications one /v1/zoo response carries.
var zooSize = len(types.Zoo())

// maxWorkers caps GOMAXPROCS and the pinned engine, census and
// model-checker worker counts, so results do not depend on how many
// cores the host has beyond it. Every workload is driven by one caller
// in a closed loop, which leaves the second core to the program's own
// workers and the garbage collector.
const maxWorkers = 2

var workloads = []*workload{
	{
		name:     "serve-hot",
		setup:    func(e *env, rep int) (instance, float64, error) { return setupHot(e, rep, false) },
		overhead: func(e *env) (instance, instance, error) { return pair(e, setupHot) },
	},
	{
		name:     "serve-cold",
		setup:    func(e *env, rep int) (instance, float64, error) { return setupCold(e, rep, false) },
		overhead: func(e *env) (instance, instance, error) { return pair(e, setupCold) },
	},
	{name: "census", setup: setupCensus, overhead: censusOverhead},
	{name: "mc-battery", setup: setupMC, overhead: mcOverhead},
}

// pair sets a serve workload up twice, once with the server's tracing
// off and once with every request traced.
func pair(e *env, setup func(*env, int, bool) (instance, float64, error)) (instance, instance, error) {
	plain, _, err := setup(e, 0, false)
	if err != nil {
		return nil, nil, err
	}
	traced, _, err := setup(e, 0, true)
	if err != nil {
		plain.close()
		return nil, nil, err
	}
	return plain, traced, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics of a traced run")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench-runs"), "directory for run scratch space and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}

	procs := min(runtime.NumCPU(), maxWorkers)
	runtime.GOMAXPROCS(procs)
	runDir := filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	e := &env{ctx: context.Background(), seed: *seed, seconds: *seconds,
		workers: procs, dir: runDir, log: stderr}
	host, _ := json.Marshal(map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": procs, "go": runtime.Version(),
		"cpu": cpuModel(), "workers": e.workers, "clients": 1,
	})
	fmt.Fprintf(stdout, "perfbench host %s\n", host)

	var res *result
	var err error
	if *trace == 0 {
		res, err = measure(e, w)
	} else {
		res, err = traced(e, w, filepath.Join(*dir, "traces"))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	finite(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// cpuModel reads the CPU model name for the run's provenance line.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
