// Command snapshotd serves a partial snapshot object over HTTP/JSON — the
// repository's serving layer. The store defaults to lockfree, the paper's
// wait-free construction: its per-component registry already gives
// disjoint operations disjoint memory, with wait-free scans over any id
// set. -impl selects any other snapshot.Impls() store; see internal/server
// for the endpoint and correctness surface.
//
// It serves on internal/server's own HTTP/1.1 connection loop, not on
// net/http's server: keep-alive, pipelining, Connection: close, HTTP/1.0
// and Expect: 100-continue, with bodies framed by Content-Length only
// (chunked bodies are answered 411). Each request has 10 s to arrive, head
// and body, and 10 s for its reply to be written, and an idle connection
// is closed after 2 minutes; these limits are constants, not flags.
//
//	snapshotd -addr 127.0.0.1:8080 -components 64
//
// On SIGINT/SIGTERM the daemon drains in-flight requests, runs the
// conformance oracle (spec.Check over the recorded traffic prefix) one
// last time, and exits nonzero if the history fails — a lifetime of
// traffic is never declared healthy without the spec signing off. The
// signal handler is installed before the listener opens, so a signal that
// arrives once /healthz has answered is always drained.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"partialsnapshot/internal/server"
	"partialsnapshot/internal/snapshot"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	impl := flag.String("impl", string(snapshot.ImplLockFree), fmt.Sprintf("implementation %v", snapshot.Impls()))
	components := flag.Int("components", 64, "number of components")
	attempts := flag.Int("optimistic-attempts", -1, "versioned: torn-read budget before escalating (-1 = default)")
	maxRecorded := flag.Int("max-recorded-ops", 0, "conformance recording admission cap (0 = default)")
	flag.Parse()

	if err := run(*addr, *impl, *components, *attempts, *maxRecorded); err != nil {
		fmt.Fprintln(os.Stderr, "snapshotd:", err)
		os.Exit(1)
	}
}

func run(addr, impl string, components, attempts, maxRecorded int) error {
	var opts []snapshot.Option
	if attempts >= 0 {
		opts = append(opts, snapshot.WithOptimisticAttempts(attempts))
	}
	obj, err := snapshot.New[int64](snapshot.Impl(impl), components, opts...)
	if err != nil {
		return err
	}
	srv := server.New(obj, snapshot.Impl(impl), server.Config{MaxRecordedOps: maxRecorded})

	// Catch the shutdown signals before anything can answer /healthz: a
	// client that saw the daemon healthy may signal it at once, and that
	// signal must drain and check, not kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, server.ErrServerClosed) {
			errCh <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "snapshotd: serving %s (%d components) on http://%s\n", impl, components, ln.Addr())

	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "snapshotd: %v, draining\n", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// The shutdown conformance hook: the drained history must pass the
	// sequential spec or the daemon's exit status says so.
	cr, err := srv.Conformance()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "snapshotd: conformance OK over %d recorded ops\n", cr.CheckedOps)
	return nil
}
