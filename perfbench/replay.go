package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"partialsnapshot/internal/server"
	"partialsnapshot/internal/snapshot"
	"partialsnapshot/internal/spec"
	"partialsnapshot/internal/workload"
)

// The replays call one layer's public entry points in-process, on the same
// streams and with the same worker count as the served phases, and time
// each call from outside. They never wrap the object handed to server.New:
// the server inspects the object's concrete type, so a wrapper would
// measure a different server.

// Replay sizes, split evenly across the workers: enough calls of the rarer
// kind for a supported p99 on every workload, few enough that a traced run
// stays short.
const (
	snapshotOps           = 100000
	serverReqs            = 16000
	allocSampleCalls      = 2000
	snapshotAllocSampleOp = 20000
)

type snapshotReplay struct {
	scan, update Histogram
	ops          int
	elapsed      time.Duration
	allocs       float64 // per op
	bytes        float64 // per op
}

type serverReplay struct {
	scan, update   Histogram
	decode, encode Histogram
	allocs         float64 // per request
	bytes          float64 // per request
}

// runWorkers runs fn once per worker concurrently and returns the first
// error any of them reported.
func runWorkers(n int, fn func(w int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// allocsPerCall reports the heap allocations and bytes one call of fn
// makes, averaged over n calls on the calling goroutine.
func allocsPerCall(n int, fn func(i int) error) (allocs, bytes float64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), nil
}

func applyOp(obj snapshot.Object[int64], op workload.Op) error {
	if op.Kind == workload.OpUpdate {
		return obj.Update(op.Comps, op.Vals)
	}
	vals, err := obj.PartialScan(op.Comps)
	if err == nil && len(vals) != len(op.Comps) {
		err = fmt.Errorf("PartialScan of %d ids returned %d values", len(op.Comps), len(vals))
	}
	return err
}

// replaySnapshot applies the workload's op streams straight to a fresh
// object built as the daemon reports it was built.
func replaySnapshot(wl workloadDef, impl string, workers int, seed int64, tr *tracer, parent uint64) (*snapshotReplay, error) {
	obj, err := snapshot.New[int64](snapshot.Impl(impl), wl.components)
	if err != nil {
		return nil, err
	}
	g, err := wl.generator(workers, seed)
	if err != nil {
		return nil, err
	}
	hists := make([]*snapshotReplay, workers)
	bufs := make([]*spanBuf, workers)
	perWorker := snapshotOps / workers
	for w := range bufs {
		hists[w] = &snapshotReplay{}
		bufs[w] = tr.buf(perWorker)
	}
	start := time.Now()
	err = runWorkers(workers, func(w int) error {
		s, h, buf := g.Stream(w), hists[w], bufs[w]
		for i := 0; i < perWorker; i++ {
			op := s.Next()
			t0 := time.Now()
			err := applyOp(obj, op)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("snapshot replay: %w", err)
			}
			if op.Kind == workload.OpUpdate {
				buf.record(tr, parent, "snapshot.update", t0, t1)
				h.update.Record(t1.Sub(t0).Nanoseconds())
			} else {
				buf.record(tr, parent, "snapshot.scan", t0, t1)
				h.scan.Record(t1.Sub(t0).Nanoseconds())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &snapshotReplay{ops: workers * perWorker, elapsed: time.Since(start)}
	for _, h := range hists {
		out.scan.Merge(&h.scan)
		out.update.Merge(&h.update)
	}

	fresh, err := snapshot.New[int64](snapshot.Impl(impl), wl.components)
	if err != nil {
		return nil, err
	}
	s := g.Stream(0)
	out.allocs, out.bytes, err = allocsPerCall(snapshotAllocSampleOp, func(int) error { return applyOp(fresh, s.Next()) })
	return out, err
}

// decodeRequest decodes a request body the way the server's handler does.
func decodeRequest(req request) error {
	dec := json.NewDecoder(bytes.NewReader(req.body))
	dec.DisallowUnknownFields()
	if req.kind == kindScan {
		return dec.Decode(&server.ScanReq{})
	}
	return dec.Decode(&server.UpdateReq{})
}

// decodeResponse decodes a response body into its public wire type.
func decodeResponse(req request, body []byte) (any, error) {
	if req.kind == kindScan {
		var r server.ScanResp
		return r, json.Unmarshal(body, &r)
	}
	var r server.UpdateResp
	return r, json.Unmarshal(body, &r)
}

func newServer(wl workloadDef, impl string) (http.Handler, error) {
	obj, err := snapshot.New[int64](snapshot.Impl(impl), wl.components)
	if err != nil {
		return nil, err
	}
	return server.New(obj, snapshot.Impl(impl), server.Config{}).Handler(), nil
}

func newRecorder() *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rec.Body.Grow(8 << 10) // keep response-buffer growth out of the handler's allocations
	return rec
}

// replayServer sends the workload's request bodies through a fresh
// server's handler in-process, timing each ServeHTTP call, and times the
// JSON codec on the public request and response types.
func replayServer(wl workloadDef, impl string, workers int, seed int64, tr *tracer, parent uint64) (*serverReplay, error) {
	h, err := newServer(wl, impl)
	if err != nil {
		return nil, err
	}
	g, err := wl.generator(workers, seed)
	if err != nil {
		return nil, err
	}
	sources := newSources(g, wl.batch)
	parts := make([]*serverReplay, workers)
	bufs := make([]*spanBuf, workers)
	perWorker := serverReqs / workers
	for w := range parts {
		parts[w] = &serverReplay{}
		bufs[w] = tr.buf(perWorker)
	}
	err = runWorkers(workers, func(w int) error {
		p, buf := parts[w], bufs[w]
		var enc bytes.Buffer
		for i := 0; i < perWorker; i++ {
			req, err := sources[w].next()
			if err != nil {
				return err
			}
			t0 := time.Now()
			if err := decodeRequest(req); err != nil {
				return fmt.Errorf("decoding %s request: %w", req.path, err)
			}
			p.decode.Record(time.Since(t0).Nanoseconds())

			hreq := httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
			rec := newRecorder()
			t0 = time.Now()
			h.ServeHTTP(rec, hreq)
			t1 := time.Now()
			hist, name := &p.scan, "server.scan"
			if req.kind == kindUpdate {
				hist, name = &p.update, "server.update"
			}
			buf.record(tr, parent, name, t0, t1)
			hist.Record(t1.Sub(t0).Nanoseconds())

			body := rec.Body.Bytes()
			if err := checkResponse(req, rec.Code, body); err != nil {
				return fmt.Errorf("server replay: %w", err)
			}
			resp, err := decodeResponse(req, body)
			if err != nil {
				return err
			}
			enc.Reset()
			t0 = time.Now()
			if err := json.NewEncoder(&enc).Encode(resp); err != nil {
				return err
			}
			p.encode.Record(time.Since(t0).Nanoseconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &serverReplay{}
	for _, p := range parts {
		out.scan.Merge(&p.scan)
		out.update.Merge(&p.update)
		out.decode.Merge(&p.decode)
		out.encode.Merge(&p.encode)
	}

	// Allocations: a fresh server, requests and recorders built up front
	// so only ServeHTTP's own allocations are counted.
	fresh, err := newServer(wl, impl)
	if err != nil {
		return nil, err
	}
	src := newSources(g, wl.batch)[0]
	reqs := make([]request, allocSampleCalls)
	hreqs := make([]*http.Request, allocSampleCalls)
	recs := make([]*httptest.ResponseRecorder, allocSampleCalls)
	for i := range reqs {
		if reqs[i], err = src.next(); err != nil {
			return nil, err
		}
		hreqs[i] = httptest.NewRequest(http.MethodPost, reqs[i].path, bytes.NewReader(reqs[i].body))
		recs[i] = newRecorder()
	}
	out.allocs, out.bytes, err = allocsPerCall(allocSampleCalls, func(i int) error {
		fresh.ServeHTTP(recs[i], hreqs[i])
		if recs[i].Code != http.StatusOK {
			return fmt.Errorf("server replay: %s returned %d", reqs[i].path, recs[i].Code)
		}
		return nil
	})
	return out, err
}

// replaySpec records a history of target ops from the workload's streams
// against a fresh object, as the daemon's recorder does, and times
// spec.Check over it.
func replaySpec(wl workloadDef, impl string, workers int, seed int64, target int, tr *tracer, parent uint64) (int, time.Duration, error) {
	obj, err := snapshot.New[int64](snapshot.Impl(impl), wl.components)
	if err != nil {
		return 0, 0, err
	}
	g, err := wl.generator(workers, seed)
	if err != nil {
		return 0, 0, err
	}
	var rec spec.Recorder[int64]
	var admitted atomic.Int64
	err = runWorkers(workers, func(w int) error {
		s := g.Stream(w)
		for admitted.Add(1) <= int64(target) {
			op := s.Next()
			start := rec.Now()
			var vals []int64
			var err error
			if op.Kind == workload.OpUpdate {
				err = obj.Update(op.Comps, op.Vals)
				vals = append([]int64(nil), op.Vals...)
			} else {
				vals, err = obj.PartialScan(op.Comps)
			}
			if err != nil {
				return fmt.Errorf("spec replay: %w", err)
			}
			kind := spec.Scan
			if op.Kind == workload.OpUpdate {
				kind = spec.Update
			}
			rec.Add(spec.Op[int64]{Kind: kind, Start: start, End: rec.Now(),
				Comps: append([]int(nil), op.Comps...), Vals: vals})
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	ops := rec.Ops()
	buf := tr.buf(1)
	t0 := time.Now()
	err = spec.Check(wl.components, ops)
	t1 := time.Now()
	buf.record(tr, parent, "spec.check", t0, t1)
	if err != nil {
		return 0, 0, fmt.Errorf("spec replay: history of %d ops rejected: %w", len(ops), err)
	}
	return len(ops), t1.Sub(t0), nil
}
