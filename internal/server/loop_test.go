package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"partialsnapshot/internal/snapshot"
)

// serveLoop runs srv's connection loop on a loopback port and returns its
// address. Cleanup shuts it down and checks Serve returned ErrServerClosed.
func serveLoop(t *testing.T, srv *Server) string {
	t.Helper()
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
		if err := <-done; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return ln.Addr().String()
}

// newLockFree returns a server over a fresh lockfree object of n
// components.
func newLockFree(tb testing.TB, n int) *Server {
	tb.Helper()
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, n)
	if err != nil {
		tb.Fatal(err)
	}
	return New(obj, snapshot.ImplLockFree, Config{})
}

// rawConn is one client connection that writes raw bytes and parses the
// replies.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (c *rawConn) write(s string) {
	c.t.Helper()
	if _, err := io.WriteString(c.nc, s); err != nil {
		c.t.Fatal(err)
	}
}

// read parses one reply and its body.
func (c *rawConn) read() (*http.Response, string) {
	c.t.Helper()
	return c.readFor(nil)
}

// readFor parses one reply to req (nil for a GET) and its body.
func (c *rawConn) readFor(req *http.Request) (*http.Response, string) {
	c.t.Helper()
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		c.t.Fatalf("reading a reply: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("reading a reply body: %v", err)
	}
	return resp, string(body)
}

// closed reports whether the server has closed the connection: a read sees
// end of input rather than a deadline.
func (c *rawConn) closed() bool {
	c.t.Helper()
	if err := c.nc.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		c.t.Fatal(err)
	}
	_, err := c.br.ReadByte()
	return err != nil && !isTimeout(err)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func postHead(path string, n int, extra string) string {
	return "POST " + path + " HTTP/1.1\r\nHost: x\r\n" + extra + "Content-Length: " + strconv.Itoa(n) + "\r\n\r\n"
}

func postReq(path, body, extra string) string { return postHead(path, len(body), extra) + body }

// TestLoopProtocol pins the HTTP/1.1 subset the connection loop serves,
// over raw connections: each step writes bytes and reads the replies it
// expects, in order. Then the connection must be closed, its last reply
// saying Connection: close, or still serve.
func TestLoopProtocol(t *testing.T) {
	type reply struct {
		status int
		body   string // a substring of the body
		header string // "Name: value" the reply must carry, if set
	}
	type step struct {
		send string
		want []reply
	}
	scan0 := postReq("/scan", `{"ids":[0]}`, "")
	ok := reply{status: 200, body: `"vals":[`}
	cases := []struct {
		name   string
		steps  []step
		closed bool
	}{
		{"keep-alive", []step{
			{postReq("/update", `{"ids":[0],"vals":[5]}`, ""), []reply{{status: 200, body: `{"applied":1}`}}},
			{scan0, []reply{{status: 200, body: `"vals":[5]`}}},
		}, false},
		{"pipelined in one write, answered in order", []step{
			{postReq("/update", `{"ids":[1],"vals":[7]}`, "") + postReq("/scan", `{"ids":[1]}`, ""),
				[]reply{{status: 200, body: `{"applied":1}`}, {status: 200, body: `"vals":[7]`}}},
		}, false},
		{"Connection: close", []step{
			{postReq("/scan", `{"ids":[0]}`, "Connection: close\r\n"), []reply{{status: 200}}},
		}, true},
		{"HTTP/1.0 closes by default", []step{
			{"POST /scan HTTP/1.0\r\nContent-Length: 11\r\n\r\n{\"ids\":[0]}", []reply{ok}},
		}, true},
		{"HTTP/1.0 keep-alive", []step{
			{"POST /scan HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: 11\r\n\r\n{\"ids\":[0]}",
				[]reply{{status: 200, header: "Connection: keep-alive"}}},
			{"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", []reply{{status: 200, body: "ok"}}},
		}, false},
		{"Expect: 100-continue", []step{
			{postHead("/scan", 11, "Expect: 100-continue\r\n"), []reply{{status: 100}}},
			{`{"ids":[0]}`, []reply{ok}},
		}, false},
		{"413 before the body is read", []step{
			{postHead("/scan", MaxBodyBytes+1, ""), []reply{{status: 413, body: `"code":"too_large"`}}},
		}, true},
		{"413 instead of 100 Continue", []step{
			{postHead("/update", 1<<30, "Expect: 100-continue\r\n"), []reply{{status: 413, body: `"code":"too_large"`}}},
		}, true},
		{"411 on a chunked body", []step{
			{"POST /scan HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nb\r\n{\"ids\":[0]}\r\n0\r\n\r\n", []reply{{status: 411, body: `"code":"bad_request"`}}},
		}, true},
		{"431 on an oversize head", []step{
			{"GET /healthz HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", maxHeadBytes) + "\r\n\r\n", []reply{{status: 431, body: `"code":"too_large"`}}},
		}, true},
		{"400 on a malformed request line", []step{
			{"GARBAGE\r\n\r\n", []reply{{status: 400, body: `"code":"bad_request"`}}},
		}, true},
		{"417 on an unknown expectation", []step{
			{postHead("/scan", 11, "Expect: 200-ok\r\n"), []reply{{status: 417}}},
		}, true},
		{"404 keeps the connection", []step{
			{"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", []reply{{status: 404, body: `"code":"not_found"`}}},
		}, false},
		{"a grow past MaxComponents is refused and the daemon serves on", []step{
			{postReq("/grow", `{"delta":9223372036854775807}`, ""), []reply{{status: 409, body: `"code":"bad_resize"`}}},
		}, false},
		{"HEAD carries no body", []step{
			{"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n", []reply{{status: 200, header: "Content-Length: 3"}}},
		}, false},
	}
	addr := serveLoop(t, newLockFree(t, 8))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := dialRaw(t, addr)
			for i, st := range tc.steps {
				c.write(st.send)
				var req *http.Request
				if strings.HasPrefix(st.send, "HEAD ") {
					req = &http.Request{Method: http.MethodHead}
				}
				for j, w := range st.want {
					resp, body := c.readFor(req)
					last := i == len(tc.steps)-1 && j == len(st.want)-1
					if resp.StatusCode != w.status || !strings.Contains(body, w.body) || resp.Close != (last && tc.closed) {
						t.Fatalf("got %d %q (close %v), want %d with %q",
							resp.StatusCode, body, resp.Close, w.status, w.body)
					}
					if w.header != "" {
						name, value, _ := strings.Cut(w.header, ": ")
						if got := resp.Header.Get(name); got != value {
							t.Fatalf("%s: %q, want %q", name, got, value)
						}
					}
				}
			}
			if tc.closed {
				if !c.closed() {
					t.Fatal("connection still open")
				}
				return
			}
			// Still serving: one more request on the same connection.
			c.write("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
			if resp, body := c.read(); resp.StatusCode != 200 || body != "ok\n" {
				t.Fatalf("connection no longer serves: %d %q", resp.StatusCode, body)
			}
		})
	}
}

// TestLoopShutdown: Shutdown closes idle connections at once, stops
// accepting, lets the request in flight finish with Connection: close, and
// returns only after it has.
func TestLoopShutdown(t *testing.T) {
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, 4)
	if err != nil {
		t.Fatal(err)
	}
	blocked := &blockingScans{Object: obj, entered: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(blocked.release) }) }
	defer release() // on an early failure too, so nothing stays blocked
	srv := New(blocked, snapshot.ImplLockFree, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	idle := dialRaw(t, addr)
	idle.write("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
	idle.read()
	busy := dialRaw(t, addr)
	busy.write(postReq("/scan", `{"ids":[0]}`, ""))
	<-blocked.entered

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()
	if !idle.closed() {
		t.Fatal("Shutdown left an idle connection open")
	}
	if err := <-served; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if nc, err := net.Dial("tcp", addr); err == nil {
		nc.Close()
		t.Fatal("listener still accepts after Shutdown")
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	resp, body := busy.read()
	if resp.StatusCode != 200 || !resp.Close {
		t.Fatalf("in-flight request: %d %q, want 200 with Connection: close", resp.StatusCode, body)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !busy.closed() {
		t.Fatal("connection open after its last reply")
	}
}

// blockingScans holds its first scan until release is closed.
type blockingScans struct {
	snapshot.Object[int64]
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (o *blockingScans) PartialScan(ids []int) ([]int64, error) {
	o.once.Do(func() {
		close(o.entered)
		<-o.release
	})
	return o.Object.PartialScan(ids)
}

// TestLoopDeadlines: a head trickled in slower than the read limit allows
// gets its connection closed, and so does a connection idle past the idle
// limit. Each subtest shortens only the limit it checks.
func TestLoopDeadlines(t *testing.T) {
	serve := func(t *testing.T, set func(*limits)) string {
		srv := newLockFree(t, 4)
		set(&srv.limits)
		return serveLoop(t, srv)
	}
	t.Run("slowloris", func(t *testing.T) {
		const limit = 200 * time.Millisecond
		c := dialRaw(t, serve(t, func(l *limits) { l.read = limit }))
		start := time.Now()
		c.write("POST /scan HTTP/1.1\r\n")
		gone := make(chan struct{})
		go func() {
			defer close(gone)
			_, _ = c.br.ReadByte()
		}()
	trickle:
		for i := 0; ; i++ {
			select {
			case <-gone:
				break trickle
			case <-time.After(20 * time.Millisecond):
			}
			if time.Since(start) > 5*time.Second {
				t.Fatal("a trickled head kept its connection for 5s")
			}
			if _, err := io.WriteString(c.nc, "X-Slow-"+strconv.Itoa(i)+": a\r\n"); err != nil {
				break
			}
		}
		if took := time.Since(start); took < limit {
			t.Fatalf("connection closed after %v, before the read limit", took)
		}
	})
	t.Run("idle", func(t *testing.T) {
		c := dialRaw(t, serve(t, func(l *limits) { l.idle = 200 * time.Millisecond }))
		c.write("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
		c.read()
		if !c.closed() {
			t.Fatal("idle connection outlived the idle limit")
		}
	})
}

// frontCase is one request of the both-fronts comparison.
type frontCase struct {
	method, path, body string
}

// TestFrontsAgree sends every request of TestHandlerRoundTrip and
// TestHandlerErrorTaxonomy, in order, to one server behind Handler and to
// another behind Serve: both must answer each with the same status,
// Content-Type and body bytes.
func TestFrontsAgree(t *testing.T) {
	j := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	post := func(path string, v any) frontCase { return frontCase{"POST", path, j(v)} }
	huge := `{"ids":[` + strings.Repeat(" ", MaxBodyBytes) + `0]}`
	atCap := `{"ids":[` + strings.Repeat(" ", MaxBodyBytes-len(`{"ids":[0]}`)) + `0]}`
	cases := []frontCase{
		// TestHandlerRoundTrip
		post("/update", UpdateReq{IDs: []int{0, 7}, Vals: []int64{10, 70}}),
		post("/scan", ScanReq{IDs: []int{7, 0}}),
		post("/update", UpdateReq{Ops: []OneOp{
			{IDs: []int{1}, Vals: []int64{11}},
			{IDs: []int{2}, Vals: []int64{22}},
			{IDs: []int{3}, Vals: []int64{33}},
		}}),
		post("/scan", ScanReq{All: true}),
		post("/grow", ResizeReq{Delta: 2}),
		post("/shrink", ResizeReq{Delta: 2}),
		// TestHandlerErrorTaxonomy
		{"POST", "/update", "{not json"},
		post("/update", map[string]any{"ids": []int{0}, "vals": []int64{1}, "bogus": true}),
		post("/update", UpdateReq{}),
		post("/update", UpdateReq{IDs: []int{99}, Vals: []int64{1}}),
		post("/scan", ScanReq{IDs: []int{-1}}),
		post("/scan", ScanReq{}),
		post("/shrink", ResizeReq{Delta: 8}),
		post("/grow", ResizeReq{Delta: 0}),
		{"POST", "/scan", huge},
		{"POST", "/update", huge},
		{"POST", "/grow", huge},
		{"POST", "/shrink", huge},
		{"POST", "/scan", atCap},
		{"GET", "/update", ""},
		// The rest of the surface.
		{"POST", "/stats", ""},
		{"GET", "/nope", ""},
		{"GET", "/healthz", ""},
		{"GET", "/conformance", ""},
		{"GET", "/stats", ""},
	}
	ts := httptest.NewServer(newLockFree(t, 8).Handler())
	defer ts.Close()
	loop := "http://" + serveLoop(t, newLockFree(t, 8))
	for _, tc := range cases {
		a := frontDo(t, ts.URL, tc)
		b := frontDo(t, loop, tc)
		if a != b {
			t.Fatalf("%s %s: fronts disagree:\nHandler: %s\nServe:   %s", tc.method, tc.path, a, b)
		}
	}
}

// frontDo sends tc and returns the reply's status, Content-Type and body.
func frontDo(t *testing.T, base string, tc frontCase) string {
	t.Helper()
	req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return strconv.Itoa(resp.StatusCode) + " " + resp.Header.Get("Content-Type") + " " + buf.String()
}

// BenchmarkRoundTrip times one update as a loopback HTTP round trip from
// Go's client, against each front: Handler under net/http's server, and
// Serve. Allocations count both sides, client and server.
func BenchmarkRoundTrip(b *testing.B) {
	body := []byte(`{"ids":[3,17],"vals":[30,170]}`)
	run := func(b *testing.B, base string) {
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		defer client.CloseIdleConnections()
		b.ReportAllocs()
		for b.Loop() {
			resp, err := client.Post(base+"/update", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	}
	b.Run("handler", func(b *testing.B) {
		ts := httptest.NewServer(newLockFree(b, 64).Handler())
		defer ts.Close()
		run(b, ts.URL)
	})
	b.Run("serve", func(b *testing.B) {
		srv := newLockFree(b, 64)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		run(b, "http://"+ln.Addr().String())
		if err := srv.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := <-done; !errors.Is(err, ErrServerClosed) {
			b.Fatal(err)
		}
	})
}
