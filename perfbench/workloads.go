package main

import (
	"fmt"
	"time"

	"partialsnapshot/internal/workload"
)

// workloadDef is one traffic mix. The daemon learns only the component
// count; everything else shapes the streams the client sends. Why each mix
// exists is recorded in METRICS.md and BENCHMARK.json.
type workloadDef struct {
	name        string
	shape       workload.Shape
	components  int
	scanWidth   int
	updateWidth int
	scanFrac    float64
	// batch is the number of consecutive updates sent in one /update.
	batch int
	// openRate is the open-loop phase's offered rate in requests per
	// second: a quarter to a third of the closed-loop request rate
	// measured on a 2-vCPU x86 VM. Nearer saturation, a slow spell of a
	// shared machine turns into a backlog, and open-loop latency measures
	// the machine's neighbours rather than the daemon.
	openRate float64
	// openLimit is the latency, from its due time, within which an
	// open-loop request counts as on time: about ten times the closed-loop
	// median under load, so only stalls and backlogs make requests late.
	openLimit time.Duration
}

// workloads are the mixes --workload accepts. BENCHMARK.json gates the
// first two; batched-writes did not hold its bounds on a shared 2-vCPU VM
// (see METRICS.md) and runs only when named.
var workloads = []workloadDef{
	{name: "point-mixed", shape: workload.Uniform, components: 64, scanWidth: 4, updateWidth: 2, scanFrac: 0.5, batch: 1, openRate: 2000, openLimit: 2 * time.Millisecond},
	{name: "wide-scan", shape: workload.ScanHeavy, components: 1024, scanWidth: 256, updateWidth: 1, scanFrac: 0.9, batch: 1, openRate: 800, openLimit: 5 * time.Millisecond},
	{name: "batched-writes", shape: workload.BatchHeavy, components: 64, scanWidth: 2, updateWidth: 32, scanFrac: 0.15, batch: 8, openRate: 800, openLimit: 5 * time.Millisecond},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// generator returns the seeded generator of the workload's per-worker
// streams. The served phases and every replay draw from it, so they see
// the same operations.
func (w workloadDef) generator(workers int, seed int64) (*workload.Generator, error) {
	return workload.New(workload.Config{
		Shape:       w.shape,
		Components:  w.components,
		Workers:     workers,
		ScanWidth:   w.scanWidth,
		UpdateWidth: w.updateWidth,
		ScanFrac:    w.scanFrac,
		Seed:        seed,
	})
}

type reqKind uint8

const (
	kindScan reqKind = iota
	kindUpdate
)

// request is one HTTP request of a workload: a scan of ids, or a train of
// ops updates.
type request struct {
	kind reqKind
	path string
	body []byte
	ids  []int // scans: the ids the response must echo
	ops  int   // logical ops carried: 1 for a scan, the batch size for an update
}

// source turns one worker's op stream into requests, coalescing up to
// batch consecutive updates into one /update the way a batching client
// would. A scan ends the pending batch and is sent next.
type source struct {
	stream *workload.Stream
	batch  int
	held   *workload.Op // a scan that ended a batch, sent by the next call
}

func newSources(g *workload.Generator, batch int) []*source {
	out := make([]*source, g.Config().Workers)
	for w := range out {
		out[w] = &source{stream: g.Stream(w), batch: batch}
	}
	return out
}

func (s *source) next() (request, error) {
	var body []byte
	n := 0
	for {
		var op workload.Op
		if s.held != nil {
			op, s.held = *s.held, nil
		} else {
			op = s.stream.Next()
		}
		switch op.Kind {
		case workload.OpScan:
			if n > 0 {
				held := op.Clone()
				s.held = &held
				return s.updateRequest(body, n), nil
			}
			ids := append([]int(nil), op.Comps...)
			return request{kind: kindScan, path: "/scan", body: appendScanReq(nil, ids), ids: ids, ops: 1}, nil
		case workload.OpUpdate:
			switch {
			case s.batch == 1:
				body = append(body, '{')
			case n == 0:
				body = append(body, `{"ops":[{`...)
			default:
				body = append(body, ",{"...)
			}
			body = append(appendUpdate(body, op.Comps, op.Vals), '}')
			if n++; n >= s.batch {
				return s.updateRequest(body, n), nil
			}
		default:
			return request{}, fmt.Errorf("workload emitted op kind %d, which no benchmark workload uses", op.Kind)
		}
	}
}

// updateRequest closes a body of n updates: a server.UpdateReq with ids
// and vals for one update, or with ops for a batch.
func (s *source) updateRequest(body []byte, n int) request {
	if s.batch > 1 {
		body = append(body, "]}"...)
	}
	return request{kind: kindUpdate, path: "/update", body: body, ops: n}
}
