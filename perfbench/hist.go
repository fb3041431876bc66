package main

import (
	"math"
	"math/bits"
)

// Histogram is a log-linear latency histogram over nanosecond samples with
// fixed memory. Values below 2*histSub land in exact one-nanosecond
// buckets; above that, every power-of-two range [2^k, 2^(k+1)) is split
// into histSub equal buckets, so a reported value is within 1/histSub of
// the true sample. Samples at or above 2^histMaxBits ns go to an explicit
// overflow bucket and are never folded into the last real bucket.
type Histogram struct {
	counts   [histBuckets]uint64
	overflow uint64
	total    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxBits caps the tracked range at 2^40 ns (about 18 minutes).
	histMaxBits = 40
	histGroups  = histMaxBits - histSubBits // group 0 is the exact range
	histBuckets = histSub * (histGroups + 1)
)

// minSamplesBeyond is how many samples must lie above a percentile before
// it is reported: with fewer, the value is one or two outliers, not a
// percentile.
const minSamplesBeyond = 10

func histIndex(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	g := bits.Len64(v) - histSubBits - 1
	return histSub*(g+1) + int(v>>uint(g)) - histSub
}

// bucketRange returns bucket i's lowest value and width.
func bucketRange(i int) (lo, width uint64) {
	if i < 2*histSub {
		return uint64(i), 1
	}
	g := i/histSub - 1
	return uint64(histSub+i%histSub) << uint(g), 1 << uint(g)
}

// Record adds one sample of ns nanoseconds (negative samples count as 0).
func (h *Histogram) Record(ns int64) {
	h.total++
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if bits.Len64(v) > histMaxBits {
		h.overflow++
		return
	}
	h.counts[histIndex(v)]++
}

// Merge adds every sample of o to h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.overflow += o.overflow
	h.total += o.total
}

// Count is the number of samples recorded, overflow included.
func (h *Histogram) Count() uint64 { return h.total }

// Quantile returns the q-quantile (0 < q < 1) in nanoseconds: the sample
// of rank ceil(q*n), placed inside its bucket by its rank among the
// bucket's samples as if they were evenly spread. ok is false when
// fewer than minSamplesBeyond samples rank above it, or when it falls in
// the overflow bucket.
func (h *Histogram) Quantile(q float64) (ns float64, ok bool) {
	if h.total == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	if h.total-rank < minSamplesBeyond {
		return 0, false
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, w := bucketRange(i)
			if w == 1 {
				return float64(lo), true
			}
			return float64(lo) + float64(w)*(float64(rank-seen)-0.5)/float64(c), true
		}
		seen += c
	}
	return 0, false
}
