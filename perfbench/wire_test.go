package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"partialsnapshot/internal/server"
	"partialsnapshot/internal/workload"
)

// TestRequestBodiesDecodeAsServerTypes decodes every workload's hand-built
// bodies the way the server's handler does and compares them with the ops
// of the same stream.
func TestRequestBodiesDecodeAsServerTypes(t *testing.T) {
	for _, wl := range workloads {
		g, err := wl.generator(1, 7)
		if err != nil {
			t.Fatal(err)
		}
		src := newSources(g, wl.batch)[0]
		want := g.Stream(0)
		for i := 0; i < 200; i++ {
			req, err := src.next()
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(req.body))
			dec.DisallowUnknownFields()
			if req.kind == kindScan {
				var got server.ScanReq
				if err := dec.Decode(&got); err != nil {
					t.Fatalf("%s: scan body %s: %v", wl.name, req.body, err)
				}
				op := want.Next()
				if op.Kind != workload.OpScan || !reflect.DeepEqual(got.IDs, op.Comps) || !reflect.DeepEqual(req.ids, op.Comps) {
					t.Fatalf("%s: scan body %s, want ids %v", wl.name, req.body, op.Comps)
				}
				continue
			}
			var got server.UpdateReq
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s: update body %s: %v", wl.name, req.body, err)
			}
			ops := got.Ops
			if len(ops) == 0 {
				ops = []server.OneOp{{IDs: got.IDs, Vals: got.Vals}}
			}
			if len(ops) != req.ops || req.ops > wl.batch {
				t.Fatalf("%s: body carries %d ops, request says %d (batch %d)", wl.name, len(ops), req.ops, wl.batch)
			}
			for _, o := range ops {
				op := want.Next()
				if op.Kind != workload.OpUpdate || !reflect.DeepEqual(o.IDs, op.Comps) || !reflect.DeepEqual(o.Vals, op.Vals) {
					t.Fatalf("%s: update %+v, want %v=%v", wl.name, o, op.Comps, op.Vals)
				}
			}
		}
	}
}

func TestCheckScanBody(t *testing.T) {
	ids := []int{5, 1, 9}
	enc := func(r server.ScanResp) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	good := []byte(`{"ids":[5,1,9],"vals":[0,-3,1099511627777]}` + "\n")
	if err := checkScanBody(good, ids); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	if err := checkScanBody(enc(server.ScanResp{IDs: ids, Vals: []int64{1, 2, 3}, Cached: true}), ids); err != nil {
		t.Fatalf("server encoding of a cached scan rejected: %v", err)
	}
	if err := checkScanBody([]byte(`{ "cached" : true, "vals" : [1, 2, 3], "ids" : [5, 1, 9] }`), ids); err != nil {
		t.Fatalf("reordered fields rejected: %v", err)
	}
	for _, bad := range []string{
		`{"ids":[5,1,9],"vals":[1,2]}`,
		`{"ids":[5,9,1],"vals":[1,2,3]}`,
		`{"ids":[5,1],"vals":[1,2,3]}`,
		`{"ids":[5,1,9,4],"vals":[1,2,3,4]}`,
		`{"vals":[1,2,3]}`,
		`{"ids":[5,1,9],"vals":[1,2,"x"]}`,
		`{"ids":[5,1,9],"vals":[1,2,3]`,
		`{"ids":[5,1,9],"vals":[1,2,3]} trailing`,
		`{"error":"boom","code":"internal"}`,
		``,
	} {
		if err := checkScanBody([]byte(bad), ids); err == nil {
			t.Errorf("malformed body %q accepted", bad)
		}
	}
}

func TestCheckUpdateBody(t *testing.T) {
	b, err := json.Marshal(server.UpdateResp{Applied: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkUpdateBody(b, 8); err != nil {
		t.Fatalf("server encoding rejected: %v", err)
	}
	for _, bad := range []string{string(b), `{"applied":"8"}`, `{}`, `{"error":"x","code":"bad_component","applied":3}`} {
		if err := checkUpdateBody([]byte(bad), 7); err == nil {
			t.Errorf("body %q accepted for 7 ops", bad)
		}
	}
}
