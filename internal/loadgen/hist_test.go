package loadgen

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestHistogramLayout: every latency lands in a bucket whose bounds hold
// it, buckets are contiguous, and a bucket is at most 1/32 of its lower
// bound wide.
func TestHistogramLayout(t *testing.T) {
	for i := 1; i < histBuckets; i++ {
		lo, hi := histUpper(i-1)+1, histUpper(i)
		if hi < lo {
			t.Fatalf("bucket %d is empty: [%d, %d]", i, lo, hi)
		}
		if histIndex(uint64(lo)) != i || histIndex(uint64(hi)) != i {
			t.Fatalf("bucket %d [%d, %d] maps back to %d and %d", i, lo, hi, histIndex(uint64(lo)), histIndex(uint64(hi)))
		}
		if lo >= histSub && (hi-lo+1)*32 > lo {
			t.Fatalf("bucket %d [%d, %d] is wider than 1/32 of its lower bound", i, lo, hi)
		}
	}
	if got := histUpper(histBuckets - 1); got != histMax-1 {
		t.Fatalf("last bucket ends at %d, want %d", got, histMax-1)
	}
}

// TestHistogramPercentiles checks Quantile against the exact nearest-rank
// percentiles of random latencies spread over nine decades, recorded in
// four histograms and merged: each is at or above the true value, within
// 1/32 of it.
func TestHistogramPercentiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var parts [4]Histogram
	var all []time.Duration
	for i := range 10000 {
		d := time.Duration(math.Pow(10, rng.Float64()*9))
		all = append(all, d)
		parts[i%4].Record(d)
	}
	var h Histogram
	for i := range parts {
		h.Merge(&parts[i])
	}
	slices.Sort(all)
	if h.total != uint64(len(all)) || h.Max() != all[len(all)-1] {
		t.Fatalf("count %d max %v, want %d and %v", h.total, h.Max(), len(all), all[len(all)-1])
	}
	for _, q := range []float64{0.001, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		exact := all[max(int(math.Ceil(float64(len(all))*q))-1, 0)]
		got := h.Quantile(q)
		if got < exact || float64(got-exact) > float64(exact)/32 {
			t.Fatalf("q%v = %v, exact %v", q, got, exact)
		}
	}
	// Nanosecond resolution: small latencies are exact, not rounded to a
	// microsecond.
	var small Histogram
	for _, d := range []time.Duration{5, 17, 17, 40} {
		small.Record(d)
	}
	if got := small.Quantile(0.5); got != 17 {
		t.Fatalf("median of 5, 17, 17, 40 ns = %v", got)
	}
}

// TestHistogramOverflow: latencies beyond the tracked range count in an
// overflow bucket that reports its lower bound, never in a bucket that
// reads as 0, and a percentile that falls there reads the exact maximum.
func TestHistogramOverflow(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	h.Record(90 * time.Second)
	h.Record(-time.Second) // counts as 0
	buckets, over := h.Buckets()
	if over.Count != 1 || over.AtLeastNs != int64(histMax) {
		t.Fatalf("overflow bucket %+v", over)
	}
	var n uint64
	for _, b := range buckets {
		n += b.Count
		if b.UpToNs < 0 || b.UpToNs >= int64(histMax) {
			t.Fatalf("bucket %+v outside the tracked range", b)
		}
	}
	if n+over.Count != h.total || h.total != 3 {
		t.Fatalf("buckets hold %d + %d of %d latencies", n, over.Count, h.total)
	}
	if got := h.Quantile(1); got != 90*time.Second {
		t.Fatalf("max quantile %v, want the exact 90s", got)
	}
	if got := h.Quantile(0.5); got < time.Millisecond || got > time.Millisecond+time.Millisecond/32 {
		t.Fatalf("median %v, want about 1ms", got)
	}
	data, err := json.Marshal(Report{Histogram: buckets, Overflow: over})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"latency_overflow":{"at_least_ns":68719476736,"count":1}`) {
		t.Fatalf("overflow bucket serialised as %s", data)
	}
}
