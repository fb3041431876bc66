// Package spec holds the sequential specification of a partial snapshot
// object and a linearizability-style checker that replays recorded
// concurrent histories against it.
//
// The sequential model is an array of components: Update assigns, Scan
// reads, and the array is dynamic — Grow appends zero-valued components,
// Shrink drops the highest-numbered ones — so resizes are part of the
// checked history, not out-of-band events (a Grow acts as a pseudo-write
// of zero to the components it creates; see Check). For sequential
// (non-overlapping) histories, CheckSequential
// replays the model exactly. For concurrent histories, Check verifies the
// atomic-cut property the implementation promises: for every scan there
// must exist an instant t inside the scan's interval at which every
// observed value could have been the current value of its component. The
// check is interval-based and sound — it never rejects a linearizable
// history; its precision relies on written values being distinct per
// component (test workloads encode writer ID + sequence number into each
// value).
package spec

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates history operations.
type Kind uint8

const (
	// Update is a write of Vals[i] to component Comps[i].
	Update Kind = iota
	// Scan is a partial scan that observed Vals[i] on component Comps[i].
	Scan
	// Grow appended Delta fresh zero-valued components, leaving Size
	// components. For the checker a Grow is a pseudo-write of the zero
	// value to each component in [Size-Delta, Size): that is exactly what
	// the operation does at its linearization point, and it is what makes
	// a zero observed on a shrunk-and-regrown component admissible again
	// after real writes to the component's previous life completed.
	Grow
	// Shrink removed the Delta highest-numbered components, leaving Size.
	// It writes nothing: operations pinned before it may still observe the
	// removed components' old values (they linearize before the Shrink),
	// and operations after it are rejected by the implementation before
	// reaching the history.
	Shrink
)

// Op is one completed operation in a recorded history. Start and End are
// logical timestamps drawn from the Recorder's clock: an op that returned
// before another was invoked has the smaller timestamps, and each
// component write/read took effect at some instant within [Start, End].
type Op[V comparable] struct {
	Kind  Kind
	Start int64
	End   int64
	Comps []int
	Vals  []V

	// UpdateID, on Update ops, is the implementation-assigned operation id
	// (snapshot.LockFree.UpdateOp); 0 = unknown. It gives adopted scan views
	// a target to point back at.
	UpdateID uint64
	// AdoptedFrom, on Scan ops, is the UpdateID of the helping update whose
	// posted view the scan returned; 0 = the scan completed by its own
	// double collect. Checked by CheckProvenance.
	AdoptedFrom uint64

	// Delta, on Grow/Shrink ops, is the resize amount (components added or
	// removed); Size is the component count the resize reported, i.e. the
	// count immediately after its linearization point.
	Delta int
	Size  int
}

// Model is the sequential partial snapshot: a plain array of components.
type Model[V comparable] struct {
	vals []V
}

// NewModel returns a sequential model with n zero-valued components.
func NewModel[V comparable](n int) *Model[V] {
	return &Model[V]{vals: make([]V, n)}
}

func (m *Model[V]) Components() int { return len(m.vals) }

// Apply performs a sequential Update.
func (m *Model[V]) Apply(comps []int, vals []V) {
	for i, c := range comps {
		m.vals[c] = vals[i]
	}
}

// Read performs a sequential PartialScan.
func (m *Model[V]) Read(comps []int) []V {
	out := make([]V, len(comps))
	for i, c := range comps {
		out[i] = m.vals[c]
	}
	return out
}

// Grow performs a sequential Grow: k fresh zero-valued components are
// appended and the new count returned. Mirrors snapshot.Object.Grow.
func (m *Model[V]) Grow(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("spec: bad resize: grow by %d components", k)
	}
	m.vals = append(m.vals, make([]V, k)...)
	return len(m.vals), nil
}

// Shrink performs a sequential Shrink of the k highest-numbered components;
// at least one must survive. Mirrors snapshot.Object.Shrink.
func (m *Model[V]) Shrink(k int) (int, error) {
	if k <= 0 || k >= len(m.vals) {
		return 0, fmt.Errorf("spec: bad resize: shrink by %d of %d components", k, len(m.vals))
	}
	vals := make([]V, len(m.vals)-k)
	copy(vals, m.vals[:len(m.vals)-k])
	m.vals = vals
	return len(m.vals), nil
}

// Recorder accumulates a concurrent history. Concurrent goroutines draw
// timestamps with Now (strictly monotonic) and append completed ops with
// Add. Usage per operation:
//
//	start := rec.Now()
//	... perform the operation ...
//	rec.Add(spec.Op[V]{Kind: ..., Start: start, End: rec.Now(), ...})
type Recorder[V comparable] struct {
	clock atomic.Int64
	mu    sync.Mutex
	ops   []Op[V]
}

// Now returns the next logical timestamp.
func (r *Recorder[V]) Now() int64 { return r.clock.Add(1) }

// Add appends a completed operation. The Comps and Vals slices must not be
// mutated afterwards.
func (r *Recorder[V]) Add(op Op[V]) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

// Ops returns the recorded history.
func (r *Recorder[V]) Ops() []Op[V] {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Op[V](nil), r.ops...)
}

// CheckSequential replays a non-overlapping history against the sequential
// model and requires every scan to match it exactly. It returns an error
// if the history overlaps (use Check for concurrent histories) or if a
// scan disagrees with the model.
func CheckSequential[V comparable](n int, ops []Op[V]) error {
	sorted := append([]Op[V](nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	m := NewModel[V](n)
	prevEnd := int64(math.MinInt64)
	for i, op := range sorted {
		if op.Start <= prevEnd {
			return fmt.Errorf("spec: history is not sequential (op %d starts at %d, before previous end %d)", i, op.Start, prevEnd)
		}
		prevEnd = op.End
		switch op.Kind {
		case Update:
			m.Apply(op.Comps, op.Vals)
		case Scan:
			want := m.Read(op.Comps)
			for j := range want {
				if want[j] != op.Vals[j] {
					return fmt.Errorf("spec: sequential scan %d observed %v on component %d, model has %v",
						i, op.Vals[j], op.Comps[j], want[j])
				}
			}
		case Grow:
			size, err := m.Grow(op.Delta)
			if err != nil {
				return fmt.Errorf("spec: sequential grow %d: %w", i, err)
			}
			if op.Size != 0 && op.Size != size {
				return fmt.Errorf("spec: sequential grow %d reported %d components, model has %d", i, op.Size, size)
			}
		case Shrink:
			size, err := m.Shrink(op.Delta)
			if err != nil {
				return fmt.Errorf("spec: sequential shrink %d: %w", i, err)
			}
			if op.Size != 0 && op.Size != size {
				return fmt.Errorf("spec: sequential shrink %d reported %d components, model has %d", i, op.Size, size)
			}
		}
	}
	return nil
}

// interval is a closed feasibility window [lo, hi] of logical time.
type interval struct{ lo, hi int64 }

// write is one component write extracted from an Update op.
type write[V comparable] struct {
	start, end int64
	val        V
}

// Check verifies a concurrent history: every scan must admit an instant t
// in [scan.Start, scan.End] at which each observed value was plausibly the
// current value of its component. A value written by write w is plausible
// at t iff w.start <= t (the write may have taken effect) and no other
// write on the same component definitely landed after w and completed
// before t. The zero value of V is additionally plausible until the first
// write on the component has definitely completed.
//
// The component universe is dynamic: n is the initial count, and recorded
// Grow ops raise the checker's id limit to the largest universe any resize
// reported. A Grow contributes a pseudo-write of the zero value to each
// component it created (that is its effect at its linearization point), so
// a zero observed after a shrink-and-regrow is admissible exactly when some
// instant places the scan after the Grow and before any later real write.
// Shrinks never lower the limit — a scan pinned to a pre-Shrink epoch may
// legitimately still observe since-removed components.
func Check[V comparable](n int, ops []Op[V]) error {
	limit := n
	for _, op := range ops {
		if (op.Kind == Grow || op.Kind == Shrink) && op.Size > limit {
			limit = op.Size
		}
	}
	var zero V
	perComp := make([][]write[V], limit)
	for _, op := range ops {
		switch op.Kind {
		case Update:
			if len(op.Vals) != len(op.Comps) {
				return fmt.Errorf("spec: malformed update op: %d values for %d components", len(op.Vals), len(op.Comps))
			}
			for i, c := range op.Comps {
				if c < 0 || c >= limit {
					return fmt.Errorf("spec: update names component %d out of range [0,%d)", c, limit)
				}
				perComp[c] = append(perComp[c], write[V]{start: op.Start, end: op.End, val: op.Vals[i]})
			}
		case Grow:
			if op.Delta <= 0 || op.Size-op.Delta < 0 || op.Size > limit {
				return fmt.Errorf("spec: malformed grow op: delta %d size %d (limit %d)", op.Delta, op.Size, limit)
			}
			for c := op.Size - op.Delta; c < op.Size; c++ {
				perComp[c] = append(perComp[c], write[V]{start: op.Start, end: op.End, val: zero})
			}
		}
	}
	// Sort each component's writes by start and precompute the suffix
	// minimum of end times, so "earliest definite overwrite after w" is a
	// binary search away, and the prefix maximum of end times, so a scan can
	// tell when every write up to some index had completed by an instant.
	sufMinEnd := make([][]int64, limit)
	preMaxEnd := make([][]int64, limit)
	for c := range perComp {
		ws := perComp[c]
		sort.Slice(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
		suf := make([]int64, len(ws)+1)
		suf[len(ws)] = math.MaxInt64
		for i := len(ws) - 1; i >= 0; i-- {
			suf[i] = min(suf[i+1], ws[i].end)
		}
		pre := make([]int64, len(ws))
		for i := range ws {
			pre[i] = ws[i].end
			if i > 0 {
				pre[i] = max(pre[i-1], ws[i].end)
			}
		}
		sufMinEnd[c], preMaxEnd[c] = suf, pre
	}
	// Scratch reused across scans, so checking a scan allocates nothing:
	// flat collects every observed component's feasibility windows (one
	// per candidate write of the observed value, clipped to the scan), and
	// cands holds one view into flat per component.
	var flat []interval
	var ends []int
	var cands [][]interval
	for si, op := range ops {
		if op.Kind != Scan {
			continue
		}
		if len(op.Vals) != len(op.Comps) {
			return fmt.Errorf("spec: malformed scan op: %d values for %d components", len(op.Vals), len(op.Comps))
		}
		flat, ends = flat[:0], ends[:0]
		for i, c := range op.Comps {
			if c < 0 || c >= limit {
				return fmt.Errorf("spec: scan names component %d out of range [0,%d)", c, limit)
			}
			v := op.Vals[i]
			first := len(flat)
			if v == zero {
				// Initial value: plausible until any write definitely completed.
				flat = appendClipped(flat, interval{lo: math.MinInt64, hi: sufMinEnd[c][0]}, op.Start, op.End)
			}
			// Walk back from the last write that started by the scan's end.
			// A write j's window closes by the end of any write m that
			// started after j ended, so once the walk has passed a write m
			// that ended before the scan started, every earlier write that
			// ended before m started is overwritten before the scan, and
			// the walk stops when all writes up to j have (pre[j] < cut).
			ws, suf, pre := perComp[c], sufMinEnd[c], preMaxEnd[c]
			cut := int64(math.MinInt64)
			for j := sort.Search(len(ws), func(i int) bool { return ws[i].start > op.End }) - 1; j >= 0 && pre[j] >= cut; j-- {
				if ws[j].val == v {
					flat = appendClipped(flat, window(ws, suf, j), op.Start, op.End)
				}
				if ws[j].end < op.Start {
					cut = max(cut, ws[j].start)
				}
			}
			if len(flat) == first {
				return fmt.Errorf("spec: scan %d (interval [%d,%d]) observed %v on component %d, which no admissible write produced",
					si, op.Start, op.End, v, c)
			}
			ends = append(ends, len(flat))
		}
		cands = cands[:0]
		for k, e := range ends {
			from := 0
			if k > 0 {
				from = ends[k-1]
			}
			cands = append(cands, flat[from:e])
		}
		if !commonInstant(cands) {
			return fmt.Errorf("spec: scan %d (interval [%d,%d]) over components %v observed %v: no single instant admits all values (torn scan)",
				si, op.Start, op.End, op.Comps, op.Vals)
		}
	}
	return nil
}

// window is write j's feasibility window: from its start until the
// earliest write definitely after it (start > its end) has ended.
func window[V comparable](ws []write[V], sufMinEnd []int64, j int) interval {
	k := sort.Search(len(ws), func(i int) bool { return ws[i].start > ws[j].end })
	return interval{lo: ws[j].start, hi: sufMinEnd[k]}
}

// appendClipped appends iv clipped to [start, end], if anything of it is
// left.
func appendClipped(ivs []interval, iv interval, start, end int64) []interval {
	lo, hi := max(iv.lo, start), min(iv.hi, end)
	if lo > hi {
		return ivs
	}
	return append(ivs, interval{lo: lo, hi: hi})
}

// CheckProvenance verifies the helping metadata of a history: every scan
// that reports adopting a helped view must name an update that (a) appears
// in the history, (b) was concurrent with the scan — help is posted inside
// the scan's interval, so the helper cannot have returned before the scan
// began nor been invoked after it returned — and (c) intersects the scan's
// component set, because the protocol only obliges an updater to help scans
// it is about to obstruct (locality). It complements Check, which validates
// the values themselves.
func CheckProvenance[V comparable](ops []Op[V]) error {
	byID := make(map[uint64]Op[V])
	for _, op := range ops {
		if op.Kind == Update && op.UpdateID != 0 {
			byID[op.UpdateID] = op
		}
	}
	for si, op := range ops {
		if op.Kind != Scan || op.AdoptedFrom == 0 {
			continue
		}
		u, known := byID[op.AdoptedFrom]
		if !known {
			return fmt.Errorf("spec: scan %d adopted a view from update op %d, which is not in the history", si, op.AdoptedFrom)
		}
		if u.End < op.Start || u.Start > op.End {
			return fmt.Errorf("spec: scan %d (interval [%d,%d]) adopted help from update op %d (interval [%d,%d]), which was not concurrent with it",
				si, op.Start, op.End, op.AdoptedFrom, u.Start, u.End)
		}
		if !intersect(u.Comps, op.Comps) {
			return fmt.Errorf("spec: scan %d over %v adopted help from update op %d over %v, which is disjoint from it",
				si, op.Comps, op.AdoptedFrom, u.Comps)
		}
	}
	return nil
}

func intersect(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// commonInstant reports whether some instant t is covered by at least one
// interval of every component's candidate list. Candidate instants are the
// interval lower bounds (coverage can only begin at a lower bound).
func commonInstant(cands [][]interval) bool {
	for _, lows := range cands {
		for _, cand := range lows {
			t, ok := cand.lo, true
			for _, ivs := range cands {
				covered := false
				for _, iv := range ivs {
					if iv.lo <= t && t <= iv.hi {
						covered = true
						break
					}
				}
				if !covered {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
	}
	return false
}
