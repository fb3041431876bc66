package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"partialsnapshot/internal/snapshot"
)

func newTestServer(t *testing.T, impl snapshot.Impl, n int) (*Server, *httptest.Server) {
	t.Helper()
	obj, err := snapshot.New[int64](impl, n)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(obj, impl, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func wantStatus(t *testing.T, resp *http.Response, body []byte, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, status, body)
	}
	if code == "" {
		return
	}
	var e ErrorResp
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body not JSON: %s", body)
	}
	if e.Code != code {
		t.Fatalf("error code %q, want %q (body %s)", e.Code, code, body)
	}
}

// TestHandlerRoundTrip drives the happy path over every endpoint: update,
// partial scan, full scan, batch update, grow, shrink, stats.
func TestHandlerRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, snapshot.ImplLockFree, 8)

	resp, body := post(t, ts, "/update", UpdateReq{IDs: []int{0, 7}, Vals: []int64{10, 70}})
	wantStatus(t, resp, body, http.StatusOK, "")

	resp, body = post(t, ts, "/scan", ScanReq{IDs: []int{7, 0}})
	wantStatus(t, resp, body, http.StatusOK, "")
	var sc ScanResp
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Vals[0] != 70 || sc.Vals[1] != 10 {
		t.Fatalf("scan read %v, want [70 10]", sc.Vals)
	}

	// Batch form: one request, three updates.
	resp, body = post(t, ts, "/update", UpdateReq{Ops: []OneOp{
		{IDs: []int{1}, Vals: []int64{11}},
		{IDs: []int{2}, Vals: []int64{22}},
		{IDs: []int{3}, Vals: []int64{33}},
	}})
	wantStatus(t, resp, body, http.StatusOK, "")
	var ur UpdateResp
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Applied != 3 {
		t.Fatalf("batch applied %d, want 3", ur.Applied)
	}

	resp, body = post(t, ts, "/scan", ScanReq{All: true})
	wantStatus(t, resp, body, http.StatusOK, "")
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.Vals) != 8 || sc.Vals[2] != 22 {
		t.Fatalf("full scan read %v", sc.Vals)
	}

	resp, body = post(t, ts, "/grow", ResizeReq{Delta: 2})
	wantStatus(t, resp, body, http.StatusOK, "")
	var rr ResizeResp
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Components != 10 {
		t.Fatalf("grow to %d, want 10", rr.Components)
	}
	resp, body = post(t, ts, "/shrink", ResizeReq{Delta: 2})
	wantStatus(t, resp, body, http.StatusOK, "")

	resp, body = get(t, ts, "/stats")
	wantStatus(t, resp, body, http.StatusOK, "")
	var st StatsResp
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Impl != "lockfree" || st.Components != 8 {
		t.Fatalf("stats identity wrong: %+v", st)
	}
	if st.UpdateOps != 4 || st.Scans != 2 || st.Resizes != 2 {
		t.Fatalf("stats counters wrong: %+v", st)
	}
	if st.ObjectStats == nil {
		t.Fatalf("lockfree store exposed no object stats")
	}
}

// TestHandlerErrorTaxonomy pins the wire mapping: malformed JSON and
// unknown fields are 400 bad_request, out-of-range ids 400 bad_component,
// infeasible resizes 409 bad_resize, bodies over MaxBodyBytes 413
// too_large, wrong methods 405.
func TestHandlerErrorTaxonomy(t *testing.T) {
	_, ts := newTestServer(t, snapshot.ImplLockFree, 8)

	resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	wantStatus(t, resp, buf.Bytes(), http.StatusBadRequest, "bad_request")

	resp2, body := post(t, ts, "/update", map[string]any{"ids": []int{0}, "vals": []int64{1}, "bogus": true})
	wantStatus(t, resp2, body, http.StatusBadRequest, "bad_request")

	resp2, body = post(t, ts, "/update", UpdateReq{})
	wantStatus(t, resp2, body, http.StatusBadRequest, "bad_request")

	resp2, body = post(t, ts, "/update", UpdateReq{IDs: []int{99}, Vals: []int64{1}})
	wantStatus(t, resp2, body, http.StatusBadRequest, snapshot.CodeBadComponent)

	resp2, body = post(t, ts, "/scan", ScanReq{IDs: []int{-1}})
	wantStatus(t, resp2, body, http.StatusBadRequest, snapshot.CodeBadComponent)

	resp2, body = post(t, ts, "/scan", ScanReq{})
	wantStatus(t, resp2, body, http.StatusBadRequest, "bad_request")

	// Shrinking away every component: a resize conflict, 409.
	resp2, body = post(t, ts, "/shrink", ResizeReq{Delta: 8})
	wantStatus(t, resp2, body, http.StatusConflict, snapshot.CodeBadResize)
	resp2, body = post(t, ts, "/grow", ResizeReq{Delta: 0})
	wantStatus(t, resp2, body, http.StatusConflict, snapshot.CodeBadResize)

	// One byte over the cap, on every endpoint that reads a body: 413,
	// whatever the body would have decoded to.
	huge := `{"ids":[` + strings.Repeat(" ", MaxBodyBytes) + `0]}`
	for _, path := range []string{"/scan", "/update", "/grow", "/shrink"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		wantStatus(t, resp, buf.Bytes(), http.StatusRequestEntityTooLarge, snapshot.CodeTooLarge)
	}
	// Exactly at the cap is still decoded.
	atCap := `{"ids":[` + strings.Repeat(" ", MaxBodyBytes-len(`{"ids":[0]}`)) + `0]}`
	resp, err = http.Post(ts.URL+"/scan", "application/json", strings.NewReader(atCap))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	wantStatus(t, resp, buf.Bytes(), http.StatusOK, "")

	resp3, err := http.Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	_, _ = buf.ReadFrom(resp3.Body)
	resp3.Body.Close()
	wantStatus(t, resp3, buf.Bytes(), http.StatusMethodNotAllowed, "bad_request")
}

// TestConformanceOverConcurrentTraffic hammers the server with concurrent
// writers and scanners (batches mixed in), then requires the recorded
// prefix to pass spec.Check via the /conformance endpoint — the oracle
// proving the whole serving stack (codec, batching, recording) linearizes.
func TestConformanceOverConcurrentTraffic(t *testing.T) {
	_, ts := newTestServer(t, snapshot.ImplLockFree, 8)
	client := ts.Client()

	var wg sync.WaitGroup
	iters := 150
	if testing.Short() {
		iters = 40
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				// Distinct nonzero values, parity-suite style, so the
				// checker can pin every observation to its writer.
				v := int64(w*1_000_000 + k + 1)
				var body any
				switch k % 3 {
				case 0:
					body = UpdateReq{IDs: []int{(w*2 + k) % 8}, Vals: []int64{v}}
				case 1:
					body = UpdateReq{Ops: []OneOp{
						{IDs: []int{w % 8}, Vals: []int64{v}},
						{IDs: []int{(w + 4) % 8}, Vals: []int64{-v}},
					}}
				default:
					body = ScanReq{IDs: []int{w % 8, (w + 3) % 8, (w + 6) % 8}}
				}
				path := "/update"
				if k%3 == 2 {
					path = "/scan"
				}
				data, _ := json.Marshal(body)
				resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(data))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					var buf bytes.Buffer
					_, _ = buf.ReadFrom(resp.Body)
					t.Errorf("worker %d: %s %d: %s", w, path, resp.StatusCode, buf.String())
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	resp, body := get(t, ts, "/conformance")
	wantStatus(t, resp, body, http.StatusOK, "")
	var cr ConformanceResp
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.OK || cr.CheckedOps == 0 {
		t.Fatalf("conformance did not check anything: %+v", cr)
	}
	t.Logf("conformance: %d recorded ops pass spec.Check", cr.CheckedOps)
}

// TestConformanceRecordingCloses pins the bounded-prefix protocol: with a
// tiny cap, recording admits every op up to the cap, drains, closes, and
// later traffic is not recorded — the history stays bounded no matter how
// long the server lives.
func TestConformanceRecordingCloses(t *testing.T) {
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(obj, snapshot.ImplLockFree, Config{MaxRecordedOps: 10})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for k := 0; k < 30; k++ {
		resp, body := post(t, ts, "/update", UpdateReq{IDs: []int{k % 4}, Vals: []int64{int64(k + 1)}})
		wantStatus(t, resp, body, http.StatusOK, "")
	}
	recorded, closed := srv.conf.status()
	if !closed {
		t.Fatalf("recording still open after 30 sequential ops with cap 10")
	}
	// Sequential traffic: no scan is ever in flight at the cap, so the
	// drain window admits nothing and the history is exactly the cap.
	if recorded != 10 {
		t.Fatalf("recorded %d ops, want exactly the cap 10", recorded)
	}
	cr, err := srv.Conformance()
	if err != nil {
		t.Fatal(err)
	}
	if !cr.OK || cr.CheckedOps != 10 || !cr.RecordingClosed {
		t.Fatalf("conformance after close: %+v", cr)
	}
}

// TestServerOverEveryImpl smoke-runs the server over each factory
// implementation — the serving layer calls only the Object interface, so
// every store must serve, check and report alike.
func TestServerOverEveryImpl(t *testing.T) {
	for _, impl := range snapshot.Impls() {
		t.Run(string(impl), func(t *testing.T) {
			_, ts := newTestServer(t, impl, 8)
			resp, body := post(t, ts, "/update", UpdateReq{IDs: []int{3}, Vals: []int64{9}})
			wantStatus(t, resp, body, http.StatusOK, "")
			resp, body = post(t, ts, "/scan", ScanReq{All: true})
			wantStatus(t, resp, body, http.StatusOK, "")
			var sc ScanResp
			if err := json.Unmarshal(body, &sc); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(sc.Vals) != "[0 0 0 9 0 0 0 0]" {
				t.Fatalf("%s served %v", impl, sc.Vals)
			}
			resp, body = get(t, ts, "/conformance")
			wantStatus(t, resp, body, http.StatusOK, "")
			resp, body = get(t, ts, "/stats")
			wantStatus(t, resp, body, http.StatusOK, "")
			var st StatsResp
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if st.Impl != string(impl) || st.Components != 8 {
				t.Fatalf("%s /stats: %+v", impl, st)
			}
		})
	}
}

// staleScans is a deliberately broken store: after its first scan it
// serves that view forever, as a cache that is never invalidated would.
type staleScans struct {
	snapshot.Object[int64]
	mu   sync.Mutex
	view []int64
}

func (o *staleScans) PartialScan(ids []int) ([]int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.view == nil {
		vals, err := o.Object.PartialScan(ids)
		if err != nil {
			return nil, err
		}
		o.view = vals
	}
	return append([]int64(nil), o.view...), nil
}

// TestConformanceConvictsStaleReads is the oracle's mutation test: a store
// that serves one stale view must fail /conformance, so a green verdict
// over real traffic means something.
func TestConformanceConvictsStaleReads(t *testing.T) {
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(&staleScans{Object: obj}, snapshot.ImplLockFree, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, step := range []struct {
		path string
		body any
	}{
		{"/update", UpdateReq{IDs: []int{0}, Vals: []int64{1}}},
		{"/scan", ScanReq{IDs: []int{0}}},
		{"/update", UpdateReq{IDs: []int{0}, Vals: []int64{2}}},
		{"/scan", ScanReq{IDs: []int{0}}}, // served the overwritten 1
	} {
		resp, body := post(t, ts, step.path, step.body)
		wantStatus(t, resp, body, http.StatusOK, "")
	}
	resp, body := get(t, ts, "/conformance")
	wantStatus(t, resp, body, http.StatusInternalServerError, "conformance_failed")
	t.Logf("convicted as designed: %s", body)
}
