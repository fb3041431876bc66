package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramExactBelowLinearRange(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 2*histSub; v++ {
		h.Record(v)
		lo, w := bucketRange(histIndex(uint64(v)))
		if lo != uint64(v) || w != 1 {
			t.Fatalf("value %d: bucket [%d,+%d), want exact", v, lo, w)
		}
	}
}

func TestHistogramBucketsCoverValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := uint64(rng.Int63n(1 << histMaxBits))
		lo, w := bucketRange(histIndex(v))
		if v < lo || v >= lo+w {
			t.Fatalf("value %d outside its bucket [%d,%d)", v, lo, lo+w)
		}
		if float64(w) > float64(v)/histSub+1 {
			t.Fatalf("value %d: bucket width %d exceeds 1/%d relative error", v, w, histSub)
		}
	}
	if got := histIndex(1<<histMaxBits - 1); got != histBuckets-1 {
		t.Fatalf("largest tracked value indexes %d, want last bucket %d", got, histBuckets-1)
	}
}

func TestHistogramQuantileMatchesSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h Histogram
	xs := make([]float64, 20000)
	for i := range xs {
		v := int64(math.Exp(rng.NormFloat64()*1.5 + 11)) // lognormal around 60 µs
		h.Record(v)
		xs[i] = float64(v)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := xs[int(math.Ceil(q*float64(len(xs))))-1]
		got, ok := h.Quantile(q)
		if !ok {
			t.Fatalf("q=%v not reported over %d samples", q, len(xs))
		}
		if math.Abs(got-want) > want/histSub+1 {
			t.Errorf("q=%v: got %v, want %v within 1/%d", q, got, want, histSub)
		}
	}
}

func TestHistogramNeedsTenSamplesBeyond(t *testing.T) {
	var h Histogram
	for i := 0; i < 999; i++ {
		h.Record(int64(i))
	}
	if _, ok := h.Quantile(0.99); ok {
		t.Fatal("p99 over 999 samples has 9 beyond it; want refused")
	}
	h.Record(5000)
	if _, ok := h.Quantile(0.99); !ok {
		t.Fatal("p99 over 1000 samples has 10 beyond it; want reported")
	}
}

func TestHistogramOverflowIsExplicit(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(1000)
	}
	for i := 0; i < 100; i++ {
		h.Record(1 << (histMaxBits + 1))
	}
	if h.overflow != 100 || h.Count() != 200 {
		t.Fatalf("overflow %d count %d, want 100 and 200", h.overflow, h.Count())
	}
	if v, ok := h.Quantile(0.25); !ok || v < 1000 || v >= 1004 {
		t.Fatalf("p25 = %v, %v; want 1000's bucket [1000,1004) from the tracked range", v, ok)
	}
	if _, ok := h.Quantile(0.75); ok {
		t.Fatal("a quantile inside the overflow bucket must not be reported")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	for i := int64(1); i <= 3000; i++ {
		v := i * 97
		both.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a != both {
		t.Fatal("merged histogram differs from one fed every sample")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles of 3 = %v %v %v, want 1 2 4", q1, med, q3)
	}
}
