package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span is one timed call at a layer boundary, recorded from the
// benchmark's side of the call. Start and End are nanoseconds since the
// tracer's base; Parent is the span that caused this one (0 for the run).
type Span struct {
	ID, Parent uint64
	Name       string
	Start, End int64
}

// tracer hands out per-goroutine span buffers, so recording takes no lock.
// A nil *tracer records nothing.
type tracer struct {
	base time.Time
	bufs []*spanBuf
}

type spanBuf struct {
	id    uint64 // ids are id<<40 | seq, unique across buffers
	seq   uint64
	spans []Span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// buf returns a fresh span buffer for one goroutine. Not safe for
// concurrent use: call it before starting the goroutines.
func (t *tracer) buf(capacity int) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{id: uint64(len(t.bufs) + 1), spans: make([]Span, 0, capacity)}
	t.bufs = append(t.bufs, b)
	return b
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

// record appends a finished span and returns its id (0 when not tracing).
func (b *spanBuf) record(t *tracer, parent uint64, name string, start, end time.Time) uint64 {
	if b == nil {
		return 0
	}
	b.seq++
	id := b.id<<40 | b.seq
	b.spans = append(b.spans, Span{ID: id, Parent: parent, Name: name, Start: t.ns(start), End: t.ns(end)})
	return id
}

// begin records a span that ends when the returned func is called, and
// returns its id for the spans it causes.
func (b *spanBuf) begin(t *tracer, parent uint64, name string) (uint64, func()) {
	if b == nil {
		return 0, func() {}
	}
	now := time.Now()
	id := b.record(t, parent, name, now, now)
	i := len(b.spans) - 1
	return id, func() { b.spans[i].End = t.ns(time.Now()) }
}

// count is the number of spans recorded so far.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// write stores header (a JSON object) and every span in path: one JSON
// document whose "spans" array holds [id, parent, name, start_ns, end_ns]
// rows, one per line.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	head, err := json.Marshal(header)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "{\"header\": %s,\n\"spans\": [\n", head)
	first := true
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if !first {
				w.WriteString(",\n")
			}
			first = false
			name, _ := json.Marshal(s.Name)
			fmt.Fprintf(w, "[%d,%d,%s,%d,%d]", s.ID, s.Parent, name, s.Start, s.End)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCost measures, in nanoseconds, what recording one span adds to a
// traced call: the append into a preallocated buffer. The two clock reads
// a span needs are taken in untraced runs too, to time the call.
func spanCost() float64 {
	const n = 1 << 18
	t := newTracer()
	b := &spanBuf{id: 1, spans: make([]Span, 0, n)}
	now := time.Now()
	start := time.Now()
	for i := 0; i < n; i++ {
		b.record(t, 1, "cost", now, now)
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
