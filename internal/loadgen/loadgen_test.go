package loadgen

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"partialsnapshot/internal/server"
	"partialsnapshot/internal/snapshot"
)

// loopback serves a fresh object on snapshotd's connection loop over a
// loopback port and returns its base URL.
func loopback(t *testing.T, impl snapshot.Impl, n int) string {
	t.Helper()
	obj, err := snapshot.New[int64](impl, n)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(obj, impl, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	})
	return "http://" + ln.Addr().String()
}

// TestLoopbackRoundTrip is the snapload round trip in miniature: a lockfree
// snapshotd on loopback, a short mixed closed-loop run with batching, zero
// 5xx, a passing conformance check, and a sane report (all ops accounted,
// percentiles ordered, histogram totals matching the request count).
func TestLoopbackRoundTrip(t *testing.T) {
	base := loopback(t, snapshot.ImplLockFree, 16)
	dur := 500 * time.Millisecond
	if testing.Short() {
		dur = 150 * time.Millisecond
	}
	rep, err := Run(Config{
		BaseURL:  base,
		Conns:    8,
		Duration: dur,
		Scenario: "mixed",
		Batch:    4,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("run failed: %v (report %+v)", err, rep)
	}
	if rep.Errors5xx != 0 || rep.Errors4xx != 0 || rep.Rejected != 0 {
		t.Fatalf("errors on a fixed-universe loopback run: %+v", rep)
	}
	if rep.Ops == 0 || rep.Requests == 0 {
		t.Fatalf("no traffic delivered: %+v", rep)
	}
	if rep.UpdateOps+rep.ScanOps != rep.Ops {
		t.Fatalf("op accounting diverged: %+v", rep)
	}
	// Batching must actually coalesce: fewer HTTP requests than ops.
	if rep.Requests >= rep.Ops {
		t.Fatalf("batching never coalesced: %d requests for %d ops", rep.Requests, rep.Ops)
	}
	if rep.LatencyP50Ms <= 0 || rep.LatencyP50Ms > rep.LatencyP95Ms || rep.LatencyP95Ms > rep.LatencyP99Ms || rep.LatencyP99Ms > rep.LatencyMaxMs {
		t.Fatalf("latency percentiles disordered: %+v", rep)
	}
	hist := rep.Overflow.Count
	for _, b := range rep.Histogram {
		hist += b.Count
	}
	if hist != rep.Requests {
		t.Fatalf("histogram counts %d requests of %d", hist, rep.Requests)
	}
	if rep.Conformance == nil || !rep.Conformance.OK || rep.Conformance.CheckedOps == 0 {
		t.Fatalf("conformance not verified: %+v", rep.Conformance)
	}
	// The server's components were auto-detected from /stats.
	if rep.Config.Components != 16 {
		t.Fatalf("component autodetection read %d, want 16", rep.Config.Components)
	}
	t.Logf("loopback: %d ops in %d requests, %.0f ops/sec, p50 %.2fms, %d recorded ops conform",
		rep.Ops, rep.Requests, rep.OpsPerSec, rep.LatencyP50Ms, rep.Conformance.CheckedOps)
}

// TestLoopbackPartitioned drives the partitioned shape — conns pinned to
// disjoint component ranges — and checks the paper's locality end to end
// on the lockfree store: its per-component registry is the partition.
func TestLoopbackPartitioned(t *testing.T) {
	// 8 conns over 16 components: partition width 2.
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(obj, snapshot.ImplLockFree, server.Config{}).Handler())
	defer ts.Close()
	rep, err := Run(Config{
		BaseURL:     ts.URL,
		Conns:       8,
		Duration:    200 * time.Millisecond,
		Scenario:    "partitioned",
		ScanWidth:   2,
		UpdateWidth: 1,
		Seed:        3,
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if rep.Errors5xx != 0 || rep.Errors4xx != 0 {
		t.Fatalf("errors on a partitioned run: %+v", rep)
	}
	// Each conn's scans and updates name only its own partition, and a
	// conn runs its ops one after another, so an update's registry walk
	// only passes slots where no scan is live.
	st := obj.(snapshot.StatsReader).Stats()
	if st.RecordsVisited != 0 {
		t.Fatalf("partitioned traffic met %d foreign scan records: %+v", st.RecordsVisited, st)
	}
	if rep.Conformance == nil || !rep.Conformance.OK {
		t.Fatalf("conformance not verified: %+v", rep.Conformance)
	}
}

// TestRunValidation pins the fail-fast surface: bad conns/duration/
// scenario and an unreachable server are errors before any traffic.
func TestRunValidation(t *testing.T) {
	url := loopback(t, snapshot.ImplRWMutex, 8)
	base := Config{BaseURL: url, Conns: 2, Duration: 50 * time.Millisecond}
	bad := []Config{
		{BaseURL: url, Conns: 0, Duration: time.Second},
		{BaseURL: url, Conns: 2, Duration: 0},
		func() Config { c := base; c.Scenario = "nonsense"; return c }(),
		{BaseURL: "http://127.0.0.1:1", Conns: 2, Duration: time.Second},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: Run accepted a bad config %+v", i, cfg)
		}
	}
}
