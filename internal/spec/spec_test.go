package spec_test

import (
	"strings"
	"testing"

	"partialsnapshot/internal/spec"
)

func TestModelSequentialSemantics(t *testing.T) {
	m := spec.NewModel[int64](4)
	if got := m.Components(); got != 4 {
		t.Fatalf("Components() = %d, want 4", got)
	}
	m.Apply([]int{1, 3}, []int64{10, 30})
	m.Apply([]int{3}, []int64{31})
	got := m.Read([]int{0, 1, 3})
	want := []int64{0, 10, 31}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Read = %v, want %v", got, want)
		}
	}
}

func TestCheckSequential(t *testing.T) {
	good := []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{0}, Vals: []int64{7}},
		{Kind: spec.Scan, Start: 3, End: 4, Comps: []int{0, 1}, Vals: []int64{7, 0}},
		{Kind: spec.Update, Start: 5, End: 6, Comps: []int{0}, Vals: []int64{8}},
		{Kind: spec.Scan, Start: 7, End: 8, Comps: []int{0}, Vals: []int64{8}},
	}
	if err := spec.CheckSequential(2, good); err != nil {
		t.Fatalf("valid sequential history rejected: %v", err)
	}

	stale := []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{0}, Vals: []int64{7}},
		{Kind: spec.Scan, Start: 3, End: 4, Comps: []int{0}, Vals: []int64{0}},
	}
	if err := spec.CheckSequential(2, stale); err == nil {
		t.Fatal("stale sequential read accepted")
	}

	overlapping := []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 5, Comps: []int{0}, Vals: []int64{7}},
		{Kind: spec.Scan, Start: 2, End: 6, Comps: []int{0}, Vals: []int64{7}},
	}
	if err := spec.CheckSequential(2, overlapping); err == nil || !strings.Contains(err.Error(), "not sequential") {
		t.Fatalf("overlapping history: err = %v, want 'not sequential'", err)
	}
}

func TestCheckAdmitsConcurrentReads(t *testing.T) {
	// A scan overlapping an update may see the old or the new value.
	for _, seen := range []int64{0, 7} {
		ops := []spec.Op[int64]{
			{Kind: spec.Update, Start: 2, End: 6, Comps: []int{0}, Vals: []int64{7}},
			{Kind: spec.Scan, Start: 3, End: 5, Comps: []int{0}, Vals: []int64{seen}},
		}
		if err := spec.Check(1, ops); err != nil {
			t.Fatalf("concurrent scan seeing %d rejected: %v", seen, err)
		}
	}
}

func TestCheckRejectsStaleRead(t *testing.T) {
	// Update completed strictly before the scan began: the zero value is
	// no longer admissible.
	ops := []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{0}, Vals: []int64{7}},
		{Kind: spec.Scan, Start: 3, End: 4, Comps: []int{0}, Vals: []int64{0}},
	}
	if err := spec.Check(1, ops); err == nil {
		t.Fatal("stale read accepted")
	}
}

func TestCheckRejectsFutureRead(t *testing.T) {
	// Scan ended before the update began, yet observed its value.
	ops := []spec.Op[int64]{
		{Kind: spec.Scan, Start: 1, End: 2, Comps: []int{0}, Vals: []int64{7}},
		{Kind: spec.Update, Start: 3, End: 4, Comps: []int{0}, Vals: []int64{7}},
	}
	if err := spec.Check(1, ops); err == nil {
		t.Fatal("future read accepted")
	}
}

func TestCheckRejectsOverwrittenRead(t *testing.T) {
	// Two sequential updates, then a scan: the first value is definitely
	// overwritten before the scan starts.
	ops := []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{0}, Vals: []int64{7}},
		{Kind: spec.Update, Start: 3, End: 4, Comps: []int{0}, Vals: []int64{8}},
		{Kind: spec.Scan, Start: 5, End: 6, Comps: []int{0}, Vals: []int64{7}},
	}
	if err := spec.Check(1, ops); err == nil {
		t.Fatal("definitely-overwritten read accepted")
	}
}

// TestCheckLongWriteHistories covers components with many writes, where
// Check walks back from each scan only as far as a write may still explain
// the read: a recurring value is admissible only through its latest write,
// but a long write that overlaps all the later ones stays admissible
// however many writes lie between it and the scan.
func TestCheckLongWriteHistories(t *testing.T) {
	var ops []spec.Op[int64]
	var ts int64
	for k := 0; k < 40; k++ {
		v := int64(k%4 + 1)
		ops = append(ops,
			spec.Op[int64]{Kind: spec.Update, Start: ts + 1, End: ts + 2, Comps: []int{0}, Vals: []int64{v}},
			spec.Op[int64]{Kind: spec.Scan, Start: ts + 3, End: ts + 4, Comps: []int{0}, Vals: []int64{v}})
		ts += 4
	}
	if err := spec.Check(1, ops); err != nil {
		t.Fatalf("sequential history with recurring values rejected: %v", err)
	}
	// The last write was 4; 3 was written often, but each time definitely
	// overwritten before this scan began.
	stale := append(ops[:len(ops):len(ops)],
		spec.Op[int64]{Kind: spec.Scan, Start: ts + 1, End: ts + 2, Comps: []int{0}, Vals: []int64{3}})
	if err := spec.Check(1, stale); err == nil {
		t.Fatal("read of a definitely overwritten recurring value accepted")
	}

	// A write of 100 that spans every other write may take effect after
	// the last of them, so a scan before it returns may read 100 ...
	long := spec.Op[int64]{Kind: spec.Update, Start: 0, End: ts + 10, Comps: []int{0}, Vals: []int64{100}}
	late := append([]spec.Op[int64]{long}, ops...)
	late = append(late, spec.Op[int64]{Kind: spec.Scan, Start: ts + 1, End: ts + 2, Comps: []int{0}, Vals: []int64{100}})
	if err := spec.Check(1, late); err != nil {
		t.Fatalf("read of a write still in flight behind %d later writes rejected: %v", len(ops)/2, err)
	}
	// ... but not once a later write has completed after it.
	late = append(late,
		spec.Op[int64]{Kind: spec.Update, Start: ts + 11, End: ts + 12, Comps: []int{0}, Vals: []int64{5}},
		spec.Op[int64]{Kind: spec.Scan, Start: ts + 13, End: ts + 14, Comps: []int{0}, Vals: []int64{100}})
	if err := spec.Check(1, late); err == nil {
		t.Fatal("read of an overwritten long write accepted")
	}
}

func TestCheckRejectsTornScan(t *testing.T) {
	// Two components, each rewritten by a (completed) update, then a later
	// pair of completed updates. A scan that mixes the first round's value
	// on one component with the second round's on the other — when the
	// rounds are separated in real time and the scan follows both — has no
	// single admissible instant.
	ops := []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{0, 1}, Vals: []int64{10, 20}},
		{Kind: spec.Update, Start: 3, End: 4, Comps: []int{0}, Vals: []int64{11}},
		{Kind: spec.Scan, Start: 5, End: 6, Comps: []int{0, 1}, Vals: []int64{10, 20}},
	}
	if err := spec.Check(2, ops); err == nil {
		t.Fatal("torn scan accepted: component 0's value 10 was definitely overwritten")
	}
	// The consistent observation passes.
	ok := []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 2, Comps: []int{0, 1}, Vals: []int64{10, 20}},
		{Kind: spec.Update, Start: 3, End: 4, Comps: []int{0}, Vals: []int64{11}},
		{Kind: spec.Scan, Start: 5, End: 6, Comps: []int{0, 1}, Vals: []int64{11, 20}},
	}
	if err := spec.Check(2, ok); err != nil {
		t.Fatalf("consistent scan rejected: %v", err)
	}
}

func TestCheckAdmitsTearingInsideUpdateInterval(t *testing.T) {
	// A scan running inside a multi-component update's interval may see
	// the batch half-applied; the per-component semantics admit that.
	ops := []spec.Op[int64]{
		{Kind: spec.Update, Start: 1, End: 10, Comps: []int{0, 1}, Vals: []int64{10, 20}},
		{Kind: spec.Scan, Start: 4, End: 6, Comps: []int{0, 1}, Vals: []int64{10, 0}},
	}
	if err := spec.Check(2, ops); err != nil {
		t.Fatalf("mid-update tear rejected: %v", err)
	}
}

func TestCheckProvenance(t *testing.T) {
	update := spec.Op[int64]{Kind: spec.Update, Start: 3, End: 6,
		Comps: []int{0}, Vals: []int64{7}, UpdateID: 11}
	cases := []struct {
		name    string
		scan    spec.Op[int64]
		wantErr string // "" = accept
	}{
		{
			name: "own double collect needs no provenance",
			scan: spec.Op[int64]{Kind: spec.Scan, Start: 4, End: 5, Comps: []int{0}, Vals: []int64{7}},
		},
		{
			name: "adoption from a concurrent intersecting update",
			scan: spec.Op[int64]{Kind: spec.Scan, Start: 4, End: 8,
				Comps: []int{0, 1}, Vals: []int64{7, 0}, AdoptedFrom: 11},
		},
		{
			name: "adoption from an unknown op",
			scan: spec.Op[int64]{Kind: spec.Scan, Start: 4, End: 8,
				Comps: []int{0}, Vals: []int64{7}, AdoptedFrom: 99},
			wantErr: "not in the history",
		},
		{
			name: "adoption from an update that finished before the scan began",
			scan: spec.Op[int64]{Kind: spec.Scan, Start: 7, End: 9,
				Comps: []int{0}, Vals: []int64{7}, AdoptedFrom: 11},
			wantErr: "not concurrent",
		},
		{
			name: "adoption from a disjoint update",
			scan: spec.Op[int64]{Kind: spec.Scan, Start: 4, End: 8,
				Comps: []int{1}, Vals: []int64{0}, AdoptedFrom: 11},
			wantErr: "disjoint",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := spec.CheckProvenance([]spec.Op[int64]{update, tc.scan})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid provenance rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

func TestRecorderClockOrdersSequentialOps(t *testing.T) {
	rec := &spec.Recorder[int64]{}
	aStart := rec.Now()
	aEnd := rec.Now()
	bStart := rec.Now()
	if !(aStart < aEnd && aEnd < bStart) {
		t.Fatalf("clock not strictly monotonic: %d %d %d", aStart, aEnd, bStart)
	}
	rec.Add(spec.Op[int64]{Kind: spec.Update, Start: aStart, End: aEnd, Comps: []int{0}, Vals: []int64{1}})
	if got := len(rec.Ops()); got != 1 {
		t.Fatalf("Ops() len = %d, want 1", got)
	}
}
