// Command snapload drives a closed-loop HTTP load run against a snapshotd
// instance: N connection workers replay an internal/workload shape over
// the wire (the same deterministic streams the parity suite model-checks),
// then fetch the server's /conformance verdict and write the latency/
// throughput report to a JSON file.
//
//	snapload -addr http://127.0.0.1:8080 -conns 128 -duration 10s \
//	         -scenario mixed -batch 4 -out BENCH_serving.json
//
// Exit status is nonzero if any request drew a 5xx, if unexpected 4xx
// traffic appeared, or if the conformance check failed — a load run is a
// correctness probe, not just a stopwatch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"partialsnapshot/internal/loadgen"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "snapshotd base URL")
	conns := flag.Int("conns", 128, "closed-loop connection workers")
	duration := flag.Duration("duration", 10*time.Second, "run duration")
	scenario := flag.String("scenario", "mixed", "workload shape (mixed, partitioned, zipfian, batch-heavy, scan-heavy, update-heavy, churn, flash-crowd)")
	components := flag.Int("components", 0, "workload component count (0 = read from the server's /stats)")
	scanWidth := flag.Int("scan-width", 0, "components per scan (0 = shape default)")
	updateWidth := flag.Int("update-width", 0, "components per update (0 = shape default)")
	scanFrac := flag.Float64("scan-frac", -1, "fraction of ops that are scans (-1 = shape default)")
	resizeEvery := flag.Int("resize-every", 0, "resizing scenarios: churner cadence (0 = shape default)")
	batch := flag.Int("batch", 1, "consecutive updates coalesced per /update request")
	seed := flag.Int64("seed", 1, "workload random seed")
	out := flag.String("out", "BENCH_serving.json", "report output path")
	flag.StringVar(out, "o", *out, "shorthand for -out")
	noConf := flag.Bool("no-conformance", false, "skip the end-of-run /conformance check")
	flag.Parse()

	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:         *addr,
		Conns:           *conns,
		Duration:        *duration,
		Scenario:        *scenario,
		Components:      *components,
		ScanWidth:       *scanWidth,
		UpdateWidth:     *updateWidth,
		ScanFrac:        *scanFrac,
		ResizeEvery:     *resizeEvery,
		Batch:           *batch,
		Seed:            *seed,
		SkipConformance: *noConf,
	})
	// A failed conformance check still produced a report worth writing —
	// write first, judge after.
	if rep.Requests > 0 || err == nil {
		if werr := write(*out, rep); werr != nil {
			fmt.Fprintln(os.Stderr, "snapload:", werr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapload:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr,
		"snapload: %s x%d for %.1fs: %d ops (%d upd, %d scan, %d resize) in %d requests, %.0f ops/sec\n",
		rep.Config.Scenario, rep.Config.Conns, rep.ElapsedSec,
		rep.Ops, rep.UpdateOps, rep.ScanOps, rep.ResizeOps, rep.Requests, rep.OpsPerSec)
	fmt.Fprintf(os.Stderr, "snapload: latency p50 %.2fms p95 %.2fms p99 %.2fms max %.2fms; %d rejected\n",
		rep.LatencyP50Ms, rep.LatencyP95Ms, rep.LatencyP99Ms, rep.LatencyMaxMs, rep.Rejected)
	if rep.Conformance != nil {
		fmt.Fprintf(os.Stderr, "snapload: conformance OK over %d recorded ops\n", rep.Conformance.CheckedOps)
	}
	if rep.Errors5xx > 0 {
		fmt.Fprintf(os.Stderr, "snapload: FAILED: %d 5xx responses\n", rep.Errors5xx)
		os.Exit(1)
	}
	if rep.Errors4xx > 0 {
		fmt.Fprintf(os.Stderr, "snapload: FAILED: %d unexpected 4xx responses\n", rep.Errors4xx)
		os.Exit(1)
	}
}

func write(path string, rep loadgen.Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "snapload: wrote", path)
	return nil
}
