// Command perfbench is the repository's end-to-end benchmark. It builds
// cmd/snapshotd, launches it on a loopback port and drives it over HTTP
// with one connection, through a closed-loop and then an open-loop phase,
// checking every response, the daemon's conformance verdict and its drain
// on SIGINT. The gated timings are scaled to the host's speed during the
// run, measured against a reference server that is a second instance of
// this binary (see hostScaled). A traced run also replays each layer
// (snapshot object, server handler, spec checker) in-process on the same
// streams and derives the per-layer ledger. METRICS.md defines every
// metric and why each workload exists.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload point-mixed --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 40
//	bash perfbench/run.sh --steady 10 --seconds 40
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The exit status is
// nonzero when the run failed or any output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

// buildDir holds everything the benchmark builds and writes, relative to
// the repository root.
const buildDir = ".bench_build"

// output is the result line the benchmark's contract fixes.
type output struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the workload's op streams and arrival schedule")
	seconds := flag.Int("seconds", 40, "seconds of served traffic per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	steady := flag.Int("steady", 0, "steadiness mode: runs per set for each workload")
	reference := flag.String("reference-server", "", "serve as the reference server on this address (used by the benchmark itself)")
	flag.Parse()
	if *reference != "" {
		fatal(serveReference(*reference))
	}
	// The client is one connection, and one P serves it best. With two, on
	// a 2-vCPU VM, its idle scheduler spun on the second core while
	// waiting for replies: the client spent half again the CPU per op on
	// the cores it shares with the daemon, and the closed loop completed
	// about a quarter fewer ops per second.
	runtime.GOMAXPROCS(1)

	// The benchmark runs from the repository root.
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	if *seconds < 2 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want --seconds >= 2 and --trace 0 or 1, got %d and %d", *seconds, *trace))
	}
	// A signal ends the benchmark; the daemon dies with it (Pdeathsig).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fatal(fmt.Errorf("interrupted by %v", s))
	}()

	switch {
	case *steady > 0:
		if err := runSteady(root, *name, *seed, *seconds, *steady); err != nil {
			fatal(err)
		}
	case *name == "all":
		runAll(root, *seed, *seconds, *trace == 1)
	default:
		wl, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		res, err := runOnce(root, wl, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		report(res)
		out := output{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.EndToEnd}
		if res.Env.Trace {
			out.Metrics = res.PerLayer
		}
		emit(out)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// runAll runs every workload once and prints each one's metrics, then one
// result line whose metric names are prefixed with the workload.
func runAll(root string, seed int64, seconds int, trace bool) {
	all := output{Correct: true, Metrics: metrics{}}
	for _, wl := range workloads {
		res, err := runOnce(root, wl, seed, seconds, trace)
		if err != nil {
			fatal(err)
		}
		report(res)
		m := res.EndToEnd
		if trace {
			m = res.PerLayer
		}
		printTable(os.Stdout, wl.name, m)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range m {
			all.Metrics[wl.name+"."+k] = v
		}
	}
	emit(all)
	if !all.Correct {
		os.Exit(1)
	}
}

// report writes a run's environment, problems and metrics to stderr.
func report(res *runResult) {
	envLine, _ := json.Marshal(res.Env)
	fmt.Fprintf(os.Stderr, "perfbench: env %s\n", envLine)
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", p)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests attempted, %d failed, correct=%v\n",
		res.Env.Workload, res.Attempted, res.Failed, res.Correct)
	printTable(os.Stderr, fmt.Sprintf("%s end-to-end, scaled to a %.0f us reference round trip", res.Env.Workload, refNominalUs), res.EndToEnd)
	printTable(os.Stderr, fmt.Sprintf("%s end-to-end, as measured (reference round trip %.2f us)", res.Env.Workload, res.Env.RefRttUs), res.Raw)
	if res.PerLayer != nil {
		printTable(os.Stderr, res.Env.Workload+" per-layer", res.PerLayer)
		fmt.Fprintf(os.Stderr, "%s ledger (self time per closed-loop request, from span medians)\n", res.Env.Workload)
		for _, r := range res.Ledger {
			fmt.Fprintf(os.Stderr, "  %-18s %10.2f us  %5.1f%%\n", r.Layer, r.SelfUs, 100*r.Share)
		}
	}
}

func printTable(w *os.File, title string, m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s\n", title)
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func emit(out output) {
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
