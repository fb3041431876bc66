package loadgen

import (
	"math"
	"math/bits"
	"time"
)

// Histogram is a fixed log-linear latency histogram with nanosecond
// resolution, in the style of HdrHistogram: latencies below 64 ns each
// have their own bucket, and every power-of-two range above that is split
// into 32 equal buckets, so a bucket's width is at most 1/32 of its lower
// bound. Latencies of histMax or more land in an overflow bucket of their
// own. Its memory is fixed, and histograms recorded apart merge exactly.
// The zero value is empty and ready to use.
type Histogram struct {
	counts   [histBuckets]uint64
	overflow uint64
	total    uint64
	max      time.Duration
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits // exact buckets, and twice the buckets per power of two
	histMaxBits = 36
	histBuckets = histSub + (histMaxBits-histSubBits)*histSub/2

	// histMax is the first latency the overflow bucket holds: 2^36 ns,
	// about 68.7 s, past any request timeout of the load generator.
	histMax = time.Duration(1) << histMaxBits
)

// histIndex returns the bucket of a latency of v ns, v < histMax.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	// v lies in [2^(e+histSubBits-1), 2^(e+histSubBits)), whose buckets
	// are 2^e wide.
	e := bits.Len64(v) - histSubBits
	return histSub + (e-1)*histSub/2 + int(v>>uint(e)) - histSub/2
}

// histUpper returns the largest latency bucket i holds.
func histUpper(i int) time.Duration {
	if i < histSub {
		return time.Duration(i)
	}
	j := i - histSub
	e := j/(histSub/2) + 1
	m := uint64(j%(histSub/2) + histSub/2)
	return time.Duration((m+1)<<uint(e) - 1)
}

// Record adds one latency; a negative one counts as 0.
func (h *Histogram) Record(d time.Duration) {
	d = max(d, 0)
	h.total++
	h.max = max(h.max, d)
	if d >= histMax {
		h.overflow++
		return
	}
	h.counts[histIndex(uint64(d))]++
}

// Merge adds o's latencies to h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.overflow += o.overflow
	h.total += o.total
	h.max = max(h.max, o.max)
}

// Max returns the largest latency recorded, exactly.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the q-quantile (0 < q <= 1) by nearest rank: the upper
// bound of the bucket holding the ceil(q*n)-th smallest latency, never more
// than Max. It is within 1/32 above the true value, or Max itself when that
// latency is in the overflow bucket; 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(q*float64(h.total))), 1), h.total)
	var seen uint64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			return min(histUpper(i), h.max)
		}
	}
	return h.max
}

// HistogramBucket is one non-empty bucket of a report's latency
// histogram: Count requests took at most UpToNs nanoseconds, and more than
// the bound of the bucket below it in the fixed layout (empty buckets are
// not listed).
type HistogramBucket struct {
	UpToNs int64  `json:"up_to_ns"`
	Count  uint64 `json:"count"`
}

// OverflowBucket counts the requests that took AtLeastNs nanoseconds or
// more, beyond the histogram's tracked range.
type OverflowBucket struct {
	AtLeastNs int64  `json:"at_least_ns"`
	Count     uint64 `json:"count"`
}

// Buckets returns h's non-empty buckets in latency order, and its overflow
// bucket.
func (h *Histogram) Buckets() ([]HistogramBucket, OverflowBucket) {
	var out []HistogramBucket
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, HistogramBucket{UpToNs: int64(histUpper(i)), Count: c})
		}
	}
	return out, OverflowBucket{AtLeastNs: int64(histMax), Count: h.overflow}
}
