// Package server is snapshotd's serving layer: an HTTP/JSON front end over
// any snapshot.Object[int64] built by snapshot.New. It is store-agnostic:
// it calls only the Object methods, plus snapshot.StatsReader's Stats for
// /stats when the store has it.
//
// Endpoints:
//
//	POST /update      {"ids":[...],"vals":[...]} or {"ops":[{...},{...}]}
//	POST /scan        {"ids":[...]} or {"all":true}
//	POST /grow        {"delta":k}
//	POST /shrink      {"delta":k}
//	GET  /stats       server + object counters
//	GET  /conformance run spec.Check over the recorded traffic prefix
//	GET  /healthz     liveness
//
// Errors carry a machine-readable code from the snapshot package's wire
// taxonomy: bad ids are HTTP 400 {"code":"bad_component"}, infeasible
// resizes HTTP 409 {"code":"bad_resize"}, bodies over MaxBodyBytes HTTP 413
// {"code":"too_large"}, malformed requests HTTP 400 {"code":"bad_request"},
// unknown paths HTTP 404 {"code":"not_found"}; anything else is a 500
// {"code":"internal"}.
//
// Framing. Every request runs through one dispatch core: method, path and
// body bytes in, status and reply bytes out. It has two fronts, which
// answer every request with the same status, Content-Type and body bytes.
// Serve is the package's own HTTP/1.1 connection loop, the one snapshotd
// serves with; Handler adapts the core to net/http for in-process callers
// (httptest, the benchmark's handler replay). Serve reads the subset of
// HTTP snapshotd's clients (Go's net/http client, curl) send, and refuses
// the rest:
//
//   - HTTP/1.1 and HTTP/1.0 request lines whose target is an absolute path;
//     keep-alive (HTTP/1.1 by default, HTTP/1.0 with Connection:
//     keep-alive), Connection: close, and pipelined requests, answered in
//     order;
//   - bodies only with a Content-Length, and Expect: 100-continue answered
//     with an interim 100;
//   - Transfer-Encoding is answered 411, a Content-Length over MaxBodyBytes
//     413 too_large before the body is read, a head over 8 KiB 431, any
//     other expectation 417, and a malformed head 400; each of these
//     closes the connection;
//   - each reply is a status line, Content-Type, Content-Length (and
//     Connection where the default does not hold) and the body, sent in
//     one Write from a per-connection buffer, reused across requests and
//     capped like the codec's buffers.
//
// A request must arrive, head and body, within ReadTimeout of its first
// byte; its reply must be written within WriteTimeout; a connection waits
// at most IdleTimeout for its next request. Serve does not use net/http's
// server because, for every keep-alive request, that server starts a
// background read and aborts it by moving a deadline into the past, resets
// deadlines several more times, and builds a header map and a URL; for
// snapshotd's small requests that work is a large share of a round trip.
//
// Wire codec. A request costs about what its object call costs: the body
// is read whole into a pooled buffer (at most MaxBodyBytes) and decoded by
// one strict, reflection-free parser, and /scan and /update replies are
// appended into a pooled buffer and sent with an explicit Content-Length in
// a single Write. The decoder's contract, for every request type: every
// body it accepts, encoding/json (with DisallowUnknownFields) decodes to
// the same value, and it accepts every body json.Marshal produces from the
// request types. It accepts one JSON object, with whitespace around it and
// between tokens; keys without escapes, matched exactly against the field
// names; integers with no fraction or exponent, within the field's range;
// arrays of integers; true/false for "all"; null for any field, meaning
// the field's zero value. It deliberately rejects some bodies encoding/json
// accepts: keys in another case than the field's ("IDS") or written with
// escapes, a key given twice, data after the top-level object, null array
// elements, and a top-level null. Replies carry no "cached" field:
// ScanResp.Cached is always false.
//
// Conformance oracle. The server records a complete prefix of its traffic
// through spec.Recorder: every operation is recorded until the admission
// cap, after which writes keep recording for exactly as long as a recorded
// scan is still in flight (a scan can only observe a write that completed
// before the scan's own response, so once the last recorded scan has
// finished, later writes are unobservable by the history and recording
// closes). The recorded history therefore explains every value any
// recorded scan can have seen. GET /conformance (and the snapshotd
// shutdown hook) runs spec.Check over the prefix: the sequential spec as
// the service's conformance oracle.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"partialsnapshot/internal/snapshot"
	"partialsnapshot/internal/spec"
)

// Config sizes a Server.
type Config struct {
	// MaxRecordedOps is the conformance recording admission cap (<=0 =
	// DefaultMaxRecordedOps). Recording self-closes shortly after the cap:
	// see the package comment.
	MaxRecordedOps int
}

// DefaultMaxRecordedOps is the conformance prefix admission cap.
const DefaultMaxRecordedOps = 32768

// MaxBodyBytes caps every request body; a longer one is answered 413
// too_large. A 256-id scan is about 1.5 KB and an 8-op batch of 32-id
// updates about 4 KB.
const MaxBodyBytes = 1 << 20

// Server serves one snapshot object over HTTP.
type Server struct {
	obj  snapshot.Object[int64]
	impl snapshot.Impl
	conf *conformance

	requests    atomic.Uint64
	badRequests atomic.Uint64
	rejected    atomic.Uint64
	resizeBusy  atomic.Uint64
	internal    atomic.Uint64
	updates     atomic.Uint64
	updateOps   atomic.Uint64
	scans       atomic.Uint64
	resizes     atomic.Uint64

	// The connection loop's state: Serve's listeners and connections, and
	// Shutdown's progress.
	limits    limits
	closing   atomic.Bool
	mu        sync.Mutex
	lns       map[net.Listener]struct{}
	conns     map[*conn]struct{}
	drained   chan struct{} // closed once closing and no connection is left
	isDrained bool
}

// New builds a server over obj. impl is the snapshot.Impl name obj was
// built with, reported by /stats.
func New(obj snapshot.Object[int64], impl snapshot.Impl, cfg Config) *Server {
	if cfg.MaxRecordedOps <= 0 {
		cfg.MaxRecordedOps = DefaultMaxRecordedOps
	}
	return &Server{
		obj:  obj,
		impl: impl,
		conf: &conformance{cap: int64(cfg.MaxRecordedOps), initial: obj.Components()},

		limits:  limits{read: ReadTimeout, write: WriteTimeout, idle: IdleTimeout},
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[*conn]struct{}),
		drained: make(chan struct{}),
	}
}

// Handler returns the server as an http.Handler: an adapter that reads the
// body (capped at MaxBodyBytes) and hands the request to the same dispatch
// core Serve uses, so both fronts answer every request with the same status,
// Content-Type and body bytes. snapshotd serves with Serve; Handler is for
// in-process callers such as httptest.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wb := getWireBuf()
		defer putWireBuf(wb)
		wb.in.Reset()
		_, err := wb.in.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		if err != nil {
			// Declared here, not above: errors.As makes its target escape,
			// and a successful read should not pay for the allocation.
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				err = errTooLarge
			}
		}
		status, ctype := s.dispatch(wb, request{method: r.Method, path: r.URL.Path, body: wb.in.Bytes(), bodyErr: err})
		writeBody(w, status, ctype, wb.out)
	})
}

// request is one request as the dispatch core sees it, whichever front
// framed it.
type request struct {
	method, path string
	body         []byte
	// bodyErr is set, with body empty, when the body could not be read:
	// errTooLarge when it is longer than MaxBodyBytes.
	bodyErr error
}

var errTooLarge = fmt.Errorf("request body exceeds %d bytes", MaxBodyBytes)

// Reply content types.
const (
	jsonType = "application/json"
	textType = "text/plain; charset=utf-8"
)

// paths are the endpoints' paths. The connection loop interns request paths
// against them, so routing a known path allocates nothing.
var paths = [...]string{"/update", "/scan", "/grow", "/shrink", "/stats", "/conformance", "/healthz"}

// dispatch is the framing-agnostic core behind both fronts: it runs one
// request and leaves the reply body in wb.out, returning the status and the
// reply's Content-Type.
func (s *Server) dispatch(wb *wireBuf, r request) (status int, ctype string) {
	switch r.path {
	case "/update":
		return s.handleUpdate(wb, r), jsonType
	case "/scan":
		return s.handleScan(wb, r), jsonType
	case "/grow":
		return s.handleResize(wb, r, true), jsonType
	case "/shrink":
		return s.handleResize(wb, r, false), jsonType
	case "/stats":
		return s.handleStats(wb, r), jsonType
	case "/conformance":
		return s.handleConformance(wb), jsonType
	case "/healthz":
		wb.out = append(wb.out[:0], "ok\n"...)
		return http.StatusOK, textType
	}
	return s.fail(wb, http.StatusNotFound, "not_found", fmt.Errorf("no endpoint %s", r.path)), jsonType
}

// ---- wire types ----

// UpdateReq is POST /update's body: either one update (ids/vals) or a
// batch (ops) — the per-connection batching surface, one round trip for a
// train of updates. Each op is individually linearizable; the batch as a
// whole is not atomic (the same contract as Object.Update).
type UpdateReq struct {
	IDs  []int    `json:"ids,omitempty"`
	Vals []int64  `json:"vals,omitempty"`
	Ops  []OneOp  `json:"ops,omitempty"`
	_    struct{} // keep the zero value distinguishable in tests
}

// OneOp is one update of a batch.
type OneOp struct {
	IDs  []int   `json:"ids"`
	Vals []int64 `json:"vals"`
}

// UpdateResp acknowledges how many updates of the request were applied.
type UpdateResp struct {
	Applied int `json:"applied"`
}

// ScanReq is POST /scan's body: the component ids to read, or all=true for
// a full snapshot.
type ScanReq struct {
	IDs []int `json:"ids,omitempty"`
	All bool  `json:"all,omitempty"`
}

// ScanResp carries an atomic view of the requested components. Cached is
// always false: the server has no scan cache, and the field stays only so
// existing clients of the wire type keep compiling.
type ScanResp struct {
	IDs    []int   `json:"ids"`
	Vals   []int64 `json:"vals"`
	Cached bool    `json:"cached,omitempty"`
}

// ResizeReq is POST /grow's and /shrink's body.
type ResizeReq struct {
	Delta int `json:"delta"`
}

// ResizeResp reports the component count after the resize.
type ResizeResp struct {
	Components int `json:"components"`
}

// ErrorResp is every non-2xx body: a human-readable error plus the stable
// machine code (snapshot.CodeBadComponent, snapshot.CodeBadResize,
// snapshot.CodeTooLarge, "bad_request", "internal").
type ErrorResp struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// StatsResp is GET /stats's body.
type StatsResp struct {
	Impl       string `json:"impl"`
	Components int    `json:"components"`

	Requests    uint64 `json:"requests"`
	UpdateReqs  uint64 `json:"update_reqs"`
	UpdateOps   uint64 `json:"update_ops"`
	Scans       uint64 `json:"scans"`
	Resizes     uint64 `json:"resizes"`
	BadRequests uint64 `json:"bad_requests"`
	Rejected    uint64 `json:"rejected"`
	ResizeBusy  uint64 `json:"resize_busy"`
	Internal    uint64 `json:"internal_errors"`

	RecordedOps     int             `json:"recorded_ops"`
	RecordingClosed bool            `json:"recording_closed"`
	ObjectStats     *snapshot.Stats `json:"object_stats,omitempty"`
}

// ConformanceResp is GET /conformance's body on success.
type ConformanceResp struct {
	CheckedOps      int  `json:"checked_ops"`
	Components      int  `json:"initial_components"`
	RecordingClosed bool `json:"recording_closed"`
	OK              bool `json:"ok"`
}

// ---- handlers ----

func (s *Server) handleUpdate(wb *wireBuf, r request) int {
	s.requests.Add(1)
	var req UpdateReq
	if st := s.decode(wb, r, func(b []byte) error { return wb.dec.update(b, &req) }); st != 0 {
		return st
	}
	ops := req.Ops
	if len(ops) == 0 {
		if len(req.IDs) == 0 {
			return s.fail(wb, http.StatusBadRequest, "bad_request", errors.New("update: ids or ops required"))
		}
		one := [1]OneOp{{IDs: req.IDs, Vals: req.Vals}}
		ops = one[:]
	} else if len(req.IDs) != 0 {
		return s.fail(wb, http.StatusBadRequest, "bad_request", errors.New("update: ids and ops are mutually exclusive"))
	}
	applied := 0
	for _, op := range ops {
		if err := s.applyUpdate(op.IDs, op.Vals); err != nil {
			// Batch semantics: earlier ops of the batch stay applied (each
			// is individually linearizable); the response reports how far
			// the batch got beside the error.
			return s.failApplied(wb, err, applied)
		}
		applied++
	}
	s.updates.Add(1)
	wb.out = appendUpdateResp(wb.out[:0], applied)
	return http.StatusOK
}

// applyUpdate runs one update through the conformance recorder and the
// object. ids and vals were decoded for this request alone, so the recorder
// keeps them as they are.
func (s *Server) applyUpdate(ids []int, vals []int64) error {
	tok := s.conf.admit(spec.Update)
	start := tok.start()
	if err := s.obj.Update(ids, vals); err != nil {
		tok.abort()
		return err
	}
	tok.commit(spec.Op[int64]{Kind: spec.Update, Start: start, Comps: ids, Vals: vals})
	s.updateOps.Add(1)
	return nil
}

func (s *Server) handleScan(wb *wireBuf, r request) int {
	s.requests.Add(1)
	var req ScanReq
	if st := s.decode(wb, r, func(b []byte) error { return wb.dec.scan(b, &req) }); st != 0 {
		return st
	}
	ids := req.IDs
	if req.All {
		if len(ids) != 0 {
			return s.fail(wb, http.StatusBadRequest, "bad_request", errors.New("scan: ids and all are mutually exclusive"))
		}
		ids = make([]int, s.obj.Components())
		for i := range ids {
			ids[i] = i
		}
	}
	if len(ids) == 0 {
		return s.fail(wb, http.StatusBadRequest, "bad_request", errors.New("scan: ids or all required"))
	}

	tok := s.conf.admit(spec.Scan)
	start := tok.start()
	vals, err := s.obj.PartialScan(ids)
	if err != nil {
		tok.abort()
		return s.failApplied(wb, err, 0)
	}
	// ids was decoded (or built) for this request and vals is the scan's
	// own result: the recorder keeps both as they are.
	tok.commit(spec.Op[int64]{Kind: spec.Scan, Start: start, Comps: ids, Vals: vals})
	s.scans.Add(1)
	wb.out = appendScanResp(wb.out[:0], ids, vals)
	return http.StatusOK
}

func (s *Server) handleResize(wb *wireBuf, r request, grow bool) int {
	s.requests.Add(1)
	var req ResizeReq
	if st := s.decode(wb, r, func(b []byte) error { return wb.dec.resize(b, &req) }); st != 0 {
		return st
	}
	kind, apply := spec.Shrink, s.obj.Shrink
	if grow {
		kind, apply = spec.Grow, s.obj.Grow
	}
	tok := s.conf.admit(kind)
	start := tok.start()
	n, err := apply(req.Delta)
	if err != nil {
		tok.abort()
		return s.failApplied(wb, err, 0)
	}
	tok.commit(spec.Op[int64]{Kind: kind, Start: start, Delta: req.Delta, Size: n})
	s.resizes.Add(1)
	return s.reply(wb, http.StatusOK, ResizeResp{Components: n})
}

func (s *Server) handleStats(wb *wireBuf, r request) int {
	s.requests.Add(1)
	if r.method != http.MethodGet {
		return s.fail(wb, http.StatusMethodNotAllowed, "bad_request", fmt.Errorf("stats: %s not allowed", r.method))
	}
	resp := StatsResp{
		Impl:        string(s.impl),
		Components:  s.obj.Components(),
		Requests:    s.requests.Load(),
		UpdateReqs:  s.updates.Load(),
		UpdateOps:   s.updateOps.Load(),
		Scans:       s.scans.Load(),
		Resizes:     s.resizes.Load(),
		BadRequests: s.badRequests.Load(),
		Rejected:    s.rejected.Load(),
		ResizeBusy:  s.resizeBusy.Load(),
		Internal:    s.internal.Load(),
	}
	resp.RecordedOps, resp.RecordingClosed = s.conf.status()
	if sr, ok := s.obj.(snapshot.StatsReader); ok {
		st := sr.Stats()
		resp.ObjectStats = &st
	}
	return s.reply(wb, http.StatusOK, resp)
}

func (s *Server) handleConformance(wb *wireBuf) int {
	s.requests.Add(1)
	resp, err := s.Conformance()
	if err != nil {
		return s.fail(wb, http.StatusInternalServerError, "conformance_failed", err)
	}
	return s.reply(wb, http.StatusOK, resp)
}

// Conformance runs spec.Check over the recorded traffic prefix. It first
// waits (bounded) for in-flight recorded operations to commit, so the
// history it checks is causally complete — a recorded scan is never
// checked before the write it observed is in the history.
func (s *Server) Conformance() (ConformanceResp, error) {
	if !s.conf.settle(5 * time.Second) {
		return ConformanceResp{}, errors.New("conformance: recorded operations still in flight")
	}
	ops := s.conf.rec.Ops()
	if err := spec.Check(s.conf.initial, ops); err != nil {
		return ConformanceResp{}, fmt.Errorf("conformance: history of %d recorded ops rejected by spec: %w", len(ops), err)
	}
	_, closed := s.conf.status()
	return ConformanceResp{CheckedOps: len(ops), Components: s.conf.initial, RecordingClosed: closed, OK: true}, nil
}

// ---- plumbing ----

// wireBuf is one request's pooled codec state: the body read buffer, the
// reply buffer and the decoder's scratch.
type wireBuf struct {
	in  bytes.Buffer
	out []byte
	dec decoder
}

var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}

// maxPooledBuf bounds the buffers a wireBuf keeps across requests, so one
// large body does not pin its buffer in the pool.
const maxPooledBuf = 64 << 10

func getWireBuf() *wireBuf { return wireBufs.Get().(*wireBuf) }

func putWireBuf(wb *wireBuf) {
	if wb.oversize() {
		return
	}
	wireBufs.Put(wb)
}

// oversize reports whether wb holds a buffer too large to keep for the next
// request.
func (wb *wireBuf) oversize() bool {
	return wb.in.Cap() > maxPooledBuf || cap(wb.out) > maxPooledBuf
}

// decode checks the method and the body read, and hands the body to parse.
// It returns 0 on success; on any failure it has answered the request and
// returns the reply's status.
func (s *Server) decode(wb *wireBuf, r request, parse func([]byte) error) int {
	if r.method != http.MethodPost {
		return s.fail(wb, http.StatusMethodNotAllowed, "bad_request", fmt.Errorf("%s not allowed", r.method))
	}
	if errors.Is(r.bodyErr, errTooLarge) {
		return s.fail(wb, http.StatusRequestEntityTooLarge, snapshot.CodeTooLarge, errTooLarge)
	}
	if r.bodyErr != nil {
		return s.fail(wb, http.StatusBadRequest, "bad_request", fmt.Errorf("reading request body: %w", r.bodyErr))
	}
	if err := parse(r.body); err != nil {
		return s.fail(wb, http.StatusBadRequest, "bad_request", fmt.Errorf("bad request body: %w", err))
	}
	return 0
}

// failApplied maps an Object error to its HTTP status via the snapshot
// wire taxonomy; applied (>0 only for batches) reports partial progress.
func (s *Server) failApplied(wb *wireBuf, err error, applied int) int {
	switch snapshot.ErrorCode(err) {
	case snapshot.CodeBadComponent:
		s.rejected.Add(1)
		return s.failBody(wb, http.StatusBadRequest, snapshot.CodeBadComponent, err, applied)
	case snapshot.CodeBadResize:
		s.resizeBusy.Add(1)
		return s.failBody(wb, http.StatusConflict, snapshot.CodeBadResize, err, applied)
	default:
		s.internal.Add(1)
		return s.failBody(wb, http.StatusInternalServerError, "internal", err, applied)
	}
}

func (s *Server) fail(wb *wireBuf, status int, code string, err error) int {
	if status < http.StatusInternalServerError {
		s.badRequests.Add(1)
	} else {
		s.internal.Add(1)
	}
	return s.failBody(wb, status, code, err, 0)
}

func (s *Server) failBody(wb *wireBuf, status int, code string, err error, applied int) int {
	return s.reply(wb, status, struct {
		ErrorResp
		Applied int `json:"applied,omitempty"`
	}{ErrorResp{Error: err.Error(), Code: code}, applied})
}

// reply encodes a body off the hot path (errors, resizes, /stats,
// /conformance) with encoding/json into wb.out, and returns status.
func (s *Server) reply(wb *wireBuf, status int, body any) int {
	data, err := json.Marshal(body)
	if err != nil {
		// Every body is one of this package's wire types, which always
		// marshal; a failure here is a bug.
		panic(fmt.Sprintf("server: encoding %T: %v", body, err))
	}
	wb.out = append(append(wb.out[:0], data...), '\n')
	return status
}

// writeBody sends one reply with an explicit Content-Length in a single
// Write.
func writeBody(w http.ResponseWriter, status int, ctype string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", ctype)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// conformance is the bounded-prefix recorder: every operation records
// until the admission cap; past it, writes keep recording exactly while a
// recorded scan is in flight (see the package comment for the soundness
// argument), then recording closes for good.
type conformance struct {
	rec     spec.Recorder[int64]
	cap     int64
	initial int

	mu            sync.Mutex
	admitted      int64
	scansInFlight int
	opsInFlight   int
	closed        bool
}

// confToken carries one admitted operation from admission to commit.
// A zero/nil-conf token (past-close admission) is inert.
type confToken struct {
	c    *conformance
	kind spec.Kind
	rec  bool
}

// admit decides, under the prefix protocol, whether this operation is part
// of the recorded history.
func (c *conformance) admit(kind spec.Kind) confToken {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return confToken{}
	}
	c.admitted++
	if c.admitted <= c.cap {
		if kind == spec.Scan {
			c.scansInFlight++
		}
		c.opsInFlight++
		return confToken{c: c, kind: kind, rec: true}
	}
	if kind != spec.Scan && c.scansInFlight > 0 {
		// Drain: a recorded scan may still observe this write.
		c.opsInFlight++
		return confToken{c: c, kind: kind, rec: true}
	}
	if c.scansInFlight == 0 {
		c.closed = true
	}
	return confToken{}
}

// start draws the op's Start timestamp (0 for unrecorded ops — the zero
// Op is never Added).
func (t confToken) start() int64 {
	if !t.rec {
		return 0
	}
	return t.c.rec.Now()
}

// commit stamps End and adds the op to the history.
func (t confToken) commit(op spec.Op[int64]) {
	if !t.rec {
		return
	}
	op.End = t.c.rec.Now()
	t.c.rec.Add(op)
	t.c.release(t.kind)
}

// abort releases an admitted op that failed (rejected operations are
// tolerated traffic, not history).
func (t confToken) abort() {
	if !t.rec {
		return
	}
	t.c.release(t.kind)
}

func (c *conformance) release(kind spec.Kind) {
	c.mu.Lock()
	if kind == spec.Scan {
		c.scansInFlight--
		if c.admitted > c.cap && c.scansInFlight == 0 {
			c.closed = true
		}
	}
	c.opsInFlight--
	c.mu.Unlock()
}

// status reports the recorded op count and whether recording has closed.
func (c *conformance) status() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.rec.Ops()), c.closed
}

// settle waits until no recorded operation is in flight, so a conformance
// check never misses a write one of its scans observed.
func (c *conformance) settle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		inflight := c.opsInFlight
		c.mu.Unlock()
		if inflight == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}
