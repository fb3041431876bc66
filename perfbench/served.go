package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// probeEvery spaces the probes worker 0 sends between its requests, one to
// the daemon's /healthz and a burst to the reference server: sparse enough
// to leave the mix alone, dense enough for a p50.
const probeEvery = 20 * time.Millisecond

// refBurst is how many timed reference round trips each probe makes.
const refBurst = 4

// openGrace is how long past the open phase's end a request due inside it
// may still be sent; later ones count as failed.
const openGrace = 5 * time.Second

// failedNs is the latency recorded for a failed request: it lands in the
// histogram's overflow bucket, so a failure counts as missing every
// latency limit.
const failedNs = math.MaxInt64

// tally is one worker's account of a phase.
type tally struct {
	scan, update Histogram // closed loop: request latency by kind
	open         Histogram // open loop: latency from the request's due time
	late         Histogram // open loop: wake-up time minus due time, after a sleep
	queue        Histogram // open loop: send time minus due time
	healthz      Histogram
	ref          Histogram // closed loop: reference server round trips
	secOps       []uint64  // closed loop: ops completed in each second of the phase

	requests, failed     uint64
	onTime               uint64 // open loop: answered within the limit of their due time
	ops                  uint64
	scanReqs, updateReqs uint64
	updateOps            uint64
	firstErr             error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) ok(req request) {
	t.ops += uint64(req.ops)
	if req.kind == kindScan {
		t.scanReqs++
	} else {
		t.updateReqs++
		t.updateOps += uint64(req.ops)
	}
}

// phase is what a served phase needs: the load client, the daemon's base
// URL, one request source and span buffer per connection worker, and the
// span the phase's requests are children of.
type phase struct {
	client  *http.Client
	base    string
	ref     string // the reference server's base URL
	sources []*source
	tr      *tracer
	bufs    []*spanBuf
	parent  uint64
}

// newLoadClient returns the client every served request goes through. It
// holds at most n connections to the daemon.
func newLoadClient(n int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

var clientSpan = [...]string{kindScan: "client.scan", kindUpdate: "client.update"}

// send posts req and reads the whole response into buf. The caller
// checks the response after timing the round trip.
func send(client *http.Client, base string, req request, buf *bytes.Buffer) (status int, err error) {
	resp, err := client.Post(base+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, fmt.Errorf("%s: reading response: %w", req.path, err)
	}
	return resp.StatusCode, nil
}

// checkResponse is the structural check every response passes: a 200, a
// scan echoing its ids with one value per id, an update acknowledging
// every op it carried.
func checkResponse(req request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", req.path, status, bytes.TrimSpace(body[:min(len(body), 512)]))
	}
	if req.kind == kindScan {
		return checkScanBody(body, req.ids)
	}
	return checkUpdateBody(body, req.ops)
}

// runClosed drives the closed loop for dur: each worker keeps exactly one
// request in flight. Worker 0 also probes /healthz and the reference server
// every probeEvery. It returns the workers' tallies.
func runClosed(p phase, dur time.Duration) []*tally {
	tallies := make([]*tally, len(p.sources))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := range p.sources {
		t := &tally{}
		tallies[w] = t
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src, buf := p.sources[w], p.bufs[w]
			var body bytes.Buffer
			nextProbe := start
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				if w == 0 && !now.Before(nextProbe) {
					nextProbe = now.Add(probeEvery)
					p.probe(t, buf, p.base+"/healthz", "transport.healthz", &t.healthz)
					// The reference server is idle between probes; the
					// first of a burst wakes it, the rest find it as warm
					// as the daemon under load.
					p.probe(t, buf, p.ref+"/", "transport.reference", nil)
					for i := 0; i < refBurst; i++ {
						p.probe(t, buf, p.ref+"/", "transport.reference", &t.ref)
					}
				}
				req, err := src.next()
				if err != nil {
					t.fail(err)
					return
				}
				t.requests++
				t0 := time.Now()
				status, err := send(p.client, p.base, req, &body)
				t1 := time.Now()
				buf.record(p.tr, p.parent, clientSpan[req.kind], t0, t1)
				if err == nil {
					err = checkResponse(req, status, body.Bytes())
				}
				h := &t.scan
				if req.kind == kindUpdate {
					h = &t.update
				}
				ns := t1.Sub(t0).Nanoseconds()
				if err != nil {
					t.fail(err)
					ns = failedNs
				} else {
					t.ok(req)
					sec := int(t1.Sub(start) / time.Second)
					for len(t.secOps) <= sec {
						t.secOps = append(t.secOps, 0)
					}
					t.secOps[sec] += uint64(req.ops)
				}
				h.Record(ns)
			}
		}(w)
	}
	wg.Wait()
	return tallies
}

// probe times one GET of url into h, when h is not nil.
func (p phase) probe(t *tally, buf *spanBuf, url, span string, h *Histogram) {
	t0 := time.Now()
	resp, err := p.client.Get(url)
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
		}
	}
	t1 := time.Now()
	buf.record(p.tr, p.parent, span, t0, t1)
	t.requests++
	if err != nil {
		t.fail(err)
		return
	}
	if h != nil {
		h.Record(t1.Sub(t0).Nanoseconds())
	}
}

// runOpen drives the open loop for dur. Each connection worker is an
// independent client with its own Poisson arrivals at rate/workers
// requests per second, drawn from seed, so the phase offers rate in total.
// A request is timed from its due time, so a stall is charged to every
// request it delays, including those that wait for the connection; it is
// on time if answered within limit.
func runOpen(p phase, dur time.Duration, rate float64, limit time.Duration, seed int64) []*tally {
	start := time.Now()
	end := start.Add(dur)
	perWorker := rate / float64(len(p.sources))
	tallies := make([]*tally, len(p.sources))
	var wg sync.WaitGroup
	for w := range p.sources {
		t := &tally{}
		tallies[w] = t
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src, buf := p.sources[w], p.bufs[w]
			rng := rand.New(rand.NewSource(seed + int64(w)))
			var body bytes.Buffer
			due := start
			for {
				due = due.Add(time.Duration(rng.ExpFloat64() / perWorker * float64(time.Second)))
				if due.After(end) {
					return
				}
				if now := time.Now(); now.Before(due) {
					sleepFor(due.Sub(now))
					t.late.Record(time.Since(due).Nanoseconds())
				}
				t.requests++
				var err error
				if time.Now().After(end.Add(openGrace)) {
					err = fmt.Errorf("open loop: request due at +%v not sent within %v of the phase end", due.Sub(start), openGrace)
				}
				var req request
				if err == nil {
					req, err = src.next()
				}
				ns := int64(failedNs)
				if err == nil {
					t0 := time.Now()
					t.queue.Record(t0.Sub(due).Nanoseconds())
					var status int
					status, err = send(p.client, p.base, req, &body)
					t1 := time.Now()
					buf.record(p.tr, p.parent, clientSpan[req.kind], t0, t1)
					if err == nil {
						err = checkResponse(req, status, body.Bytes())
					}
					ns = t1.Sub(due).Nanoseconds()
				}
				if err != nil {
					t.fail(err)
					ns = failedNs
				} else {
					t.ok(req)
					if ns <= limit.Nanoseconds() {
						t.onTime++
					}
				}
				t.open.Record(ns)
			}
		}(w)
	}
	wg.Wait()
	return tallies
}

// mergeTallies folds the workers' tallies into one.
func mergeTallies(ts []*tally) *tally {
	out := &tally{}
	for _, t := range ts {
		for i, n := range t.secOps {
			for len(out.secOps) <= i {
				out.secOps = append(out.secOps, 0)
			}
			out.secOps[i] += n
		}
		out.scan.Merge(&t.scan)
		out.update.Merge(&t.update)
		out.open.Merge(&t.open)
		out.late.Merge(&t.late)
		out.queue.Merge(&t.queue)
		out.healthz.Merge(&t.healthz)
		out.ref.Merge(&t.ref)
		out.requests += t.requests
		out.failed += t.failed
		out.onTime += t.onTime
		out.ops += t.ops
		out.scanReqs += t.scanReqs
		out.updateReqs += t.updateReqs
		out.updateOps += t.updateOps
		if out.firstErr == nil {
			out.firstErr = t.firstErr
		}
	}
	return out
}
