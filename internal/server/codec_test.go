package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"partialsnapshot/internal/snapshot"
)

// checkAgainstJSON is the decoders' differential oracle. decode must not
// panic; every body it accepts, encoding/json with DisallowUnknownFields
// must accept with an equal value; and every body json.Marshal produces
// from a value encoding/json decoded must be accepted too.
func checkAgainstJSON[T any](t *testing.T, body []byte, decode func(*decoder, []byte, *T) error) {
	t.Helper()
	var got T
	err := decode(new(decoder), body, &got)

	var want T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	jerr := dec.Decode(&want)
	if err == nil {
		if jerr != nil {
			t.Fatalf("accepted %q, which encoding/json rejects: %v", body, jerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q decoded to %#v, encoding/json to %#v", body, got, want)
		}
	}
	if jerr != nil {
		return
	}
	marshalled, merr := json.Marshal(want)
	if merr != nil {
		t.Fatal(merr)
	}
	var again, wantAgain T
	if err := decode(new(decoder), marshalled, &again); err != nil {
		t.Fatalf("rejected json.Marshal output %s: %v", marshalled, err)
	}
	if err := json.Unmarshal(marshalled, &wantAgain); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, wantAgain) {
		t.Fatalf("%s decoded to %#v, encoding/json to %#v", marshalled, again, wantAgain)
	}
}

func idsBody(n int) string {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i * 4
	}
	b, _ := json.Marshal(ScanReq{IDs: ids})
	return string(b)
}

func batchBody(ops, width int) string {
	req := UpdateReq{}
	for k := 0; k < ops; k++ {
		op := OneOp{}
		for j := 0; j < width; j++ {
			op.IDs = append(op.IDs, k*width+j)
			op.Vals = append(op.Vals, int64(k*1_000_003+j+1))
		}
		req.Ops = append(req.Ops, op)
	}
	b, _ := json.Marshal(req)
	return string(b)
}

// Seed corpora: the error-taxonomy cases, perfbench-shaped bodies (256-id
// scans, 8-op batches) and the edges of the decoder's contract.
var (
	commonSeeds = []string{
		"", "{not json", "{}", "null", " { } ", "[]", `"ids"`, "{}{}", "{} x",
		`{"bogus":true}`, `{"":1}`, `{"ids\u0000":1}`, `{"ids":[1]}`,
		"{\"ids\":[1]}\n", "\t{ \"ids\" :\r\n[ 1 , 2 ] }",
	}
	scanSeeds = []string{
		`{"ids":[7,0]}`, `{"ids":[-1]}`, `{"all":true}`, `{"all":false}`, `{"all":null}`,
		`{"ids":null}`, `{"ids":[]}`, `{"ids":[0],"all":true}`, `{"IDS":[1]}`, `{"Ids":[1]}`,
		`{"ids":[1],"ids":[2]}`, `{"ids":[1,null]}`, `{"ids":[01]}`, `{"ids":[-0]}`,
		`{"ids":[1.0]}`, `{"ids":[1e3]}`, `{"ids":[+1]}`, `{"ids":[-]}`, `{"ids":[1,]}`,
		`{"ids":[9223372036854775807]}`, `{"ids":[-9223372036854775808]}`,
		`{"ids":[9223372036854775808]}`, `{"ids":[-9223372036854775809]}`,
		`{"ids":[99999999999999999999]}`, `{"all":1}`, `{"all":"true"}`, `{"ids":"1"}`,
		idsBody(256),
	}
	updateSeeds = []string{
		`{"ids":[0,7],"vals":[10,70]}`, `{"ids":[99],"vals":[1]}`, `{"ids":[0],"vals":[1],"bogus":true}`,
		`{"ops":[{"ids":[1],"vals":[11]},{"ids":[2],"vals":[22]}]}`, `{"ops":[]}`, `{"ops":null}`,
		`{"ops":[{}]}`, `{"ops":[null]}`, `{"ops":[{"ids":null,"vals":null}]}`, `{"ops":[{"bogus":1}]}`,
		`{"ops":[{"ids":[1],"ids":[2]}]}`, `{"ids":[1],"ops":[]}`, `{"vals":[1]}`,
		`{"ids":[1],"vals":[-9223372036854775808]}`, `{"ops":{}}`, `{"ops":[{"ids":[1]},]}`,
		batchBody(8, 1), batchBody(8, 32),
	}
	resizeSeeds = []string{
		`{"delta":2}`, `{"delta":0}`, `{"delta":-3}`, `{"delta":null}`, `{"delta":5,"delta":6}`,
		`{"Delta":2}`, `{"delta":2.5}`, `{"delta":"2"}`, `{"delta":[2]}`, `{"delta":4000000}`,
		`{"delta":9223372036854775808}`,
	}
)

func addSeeds(f *testing.F, lists ...[]string) {
	for _, l := range lists {
		for _, s := range l {
			f.Add([]byte(s))
		}
	}
}

func FuzzDecodeScan(f *testing.F) {
	addSeeds(f, commonSeeds, scanSeeds)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstJSON(t, body, (*decoder).scan)
	})
}

func FuzzDecodeUpdate(f *testing.F) {
	addSeeds(f, commonSeeds, updateSeeds)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstJSON(t, body, (*decoder).update)
	})
}

func FuzzDecodeResize(f *testing.F) {
	addSeeds(f, commonSeeds, resizeSeeds)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstJSON(t, body, (*decoder).resize)
	})
}

// TestDecoderNarrowing pins the bodies the package comment says the
// decoder rejects although encoding/json accepts them.
func TestDecoderNarrowing(t *testing.T) {
	for _, body := range []string{
		`{"IDS":[1]}`,           // key in another case
		`{"\u0069ds":[1]}`,      // key written with an escape
		`{"ids":[1],"ids":[2]}`, // key given twice
		`{"ids":[1]} {}`,        // data after the top-level object
		`{"ids":[1,null]}`,      // null array element
		`null`,                  // top-level null
	} {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(new(ScanReq)); err != nil {
			t.Fatalf("%s: encoding/json rejects it too (%v): not a narrowing", body, err)
		}
		if err := new(decoder).scan([]byte(body), new(ScanReq)); err == nil {
			t.Fatalf("%s: accepted, want rejected", body)
		}
	}
}

// TestRepliesMatchEncodingJSON pins the appended replies to the bytes
// encoding/json writes for the same wire values.
func TestRepliesMatchEncodingJSON(t *testing.T) {
	encode := func(v any) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, sc := range []ScanResp{
		{IDs: []int{0}, Vals: []int64{0}},
		{IDs: []int{7, 0, 1023}, Vals: []int64{-9223372036854775808, 9223372036854775807, -1}},
	} {
		if got, want := string(appendScanResp(nil, sc.IDs, sc.Vals)), encode(sc); got != want {
			t.Fatalf("scan reply %q, encoding/json %q", got, want)
		}
	}
	for _, n := range []int{0, 1, 8, 12345} {
		if got, want := string(appendUpdateResp(nil, n)), encode(UpdateResp{Applied: n}); got != want {
			t.Fatalf("update reply %q, encoding/json %q", got, want)
		}
	}
}

// writeCounter is a ResponseWriter that counts Write calls.
type writeCounter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(b)
}

// TestRepliesAreOneWrite checks a wide scan's and a batch's reply go out
// as one Write with a Content-Length that matches the body.
func TestRepliesAreOneWrite(t *testing.T) {
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, 1024)
	if err != nil {
		t.Fatal(err)
	}
	h := New(obj, snapshot.ImplLockFree, Config{}).Handler()
	for _, c := range []struct{ path, body string }{
		{"/scan", idsBody(256)},
		{"/update", batchBody(8, 32)},
	} {
		w := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, w.Code, w.Body.Bytes())
		}
		if cl := w.Header().Get("Content-Length"); w.writes != 1 || cl != fmt.Sprint(w.Body.Len()) {
			t.Fatalf("%s: %d writes, Content-Length %q for a %d-byte body", c.path, w.writes, cl, w.Body.Len())
		}
	}
}
