package snapshot

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sharded partitions the component space across independent inner snapshot
// objects. Component id c lives in shard
// min(c/width, shards-1) under local id c - shard*width: shard geometry is
// fixed at construction (width = n/shards, the last shard absorbing the
// remainder and all future growth), so routing is one division and never
// rehashes values across shards.
//
// The point is the paper's disjoint-access argument at store scale: an
// operation whose component set lies within one shard touches exactly that
// shard's state — its registers, its announcement registry, its help
// obligations — and nothing else, so traffic partitioned across shards
// shares no cache lines and inherits the inner implementation's full
// wait-free progress guarantee per shard.
//
// Cross-shard atomicity is a composition problem the inner objects cannot
// solve alone (each sub-scan is atomic only within its shard), so Sharded
// fronts them with one seqlock stamp per shard, maintained exactly like the
// per-component stamps of the Versioned implementation (version in the high
// 32 bits, writers-in-flight in the low 32; see versioned.go for why the
// classic even/odd parity bit is unsound with concurrent writers). Every
// update and resize brackets its inner mutation with the two stamp adds; a
// cross-shard scan reads the involved shards' stamps, takes one atomic
// sub-scan per shard, and re-reads the stamps — an unchanged monotone sum
// with zero writers in flight proves no mutation landed in any involved
// shard between the passes, so the per-shard views all coexisted throughout
// the window and the combined scan linearizes inside it. A torn attempt
// retries, which makes cross-shard scans seqlock-grade (they can be delayed
// by a writer parked mid-update) rather than wait-free; single-shard
// operations never touch the stamps at all and keep the inner guarantee.
// This is the honest trade the serving layer makes: scope your operations
// to a shard and the paper's guarantees apply end to end; span shards and
// you pay for the coordination you asked for.
//
// Resizes are serialised by a mutex and confined to the last shard (growth
// is unbounded; a Shrink may not cut into the fixed geometry below
// MinComponents — that is an ErrBadResize, the "resize conflicts with the
// store's shape" case the server maps to HTTP 409). The inner resize is
// stamped like a write and the new component count is published after it,
// so a concurrent operation either validates against the old count and is
// answered by the old shape, or sees the new count and finds the inner
// shard already resized.
type Sharded[V any] struct {
	shards []shardRef[V]
	width  int
	n      atomic.Int64
	resize sync.Mutex

	crossScans   atomic.Uint64
	crossRetries atomic.Uint64
}

// shardRef is one shard: the inner object and the seqlock stamp guarding
// cross-shard reads of it, padded so stamps of different shards never share
// a cache line (disjoint-shard updates must stay disjoint in memory too).
type shardRef[V any] struct {
	obj   Object[V]
	stamp atomic.Uint64
	_     [104]byte
}

// newSharded builds a sharded store of n components over `shards` inner
// objects constructed by inner (called once per shard with the shard's
// initial size). Callers construct via New(ImplSharded, ...); the factory
// guarantees 1 <= shards <= n.
func newSharded[V any](n, shards int, inner func(size int) Object[V]) *Sharded[V] {
	width := n / shards
	s := &Sharded[V]{shards: make([]shardRef[V], shards), width: width}
	for i := 0; i < shards; i++ {
		size := width
		if i == shards-1 {
			size = n - (shards-1)*width
		}
		s.shards[i].obj = inner(size)
	}
	s.n.Store(int64(n))
	return s
}

// NumShards returns the shard count.
func (s *Sharded[V]) NumShards() int { return len(s.shards) }

// ShardWidth returns the fixed routing width: shard i < NumShards()-1 owns
// exactly [i*width, (i+1)*width); the last shard owns everything above.
func (s *Sharded[V]) ShardWidth() int { return s.width }

// ShardOf returns the shard owning component id.
func (s *Sharded[V]) ShardOf(id int) int {
	i := id / s.width
	if i >= len(s.shards) {
		i = len(s.shards) - 1
	}
	return i
}

// MinComponents is the smallest component count a Shrink may leave: every
// shard of the fixed geometry must keep at least one component.
func (s *Sharded[V]) MinComponents() int {
	return (len(s.shards)-1)*s.width + 1
}

// ShardStats returns shard i's own Stats and whether its inner
// implementation exposes any.
func (s *Sharded[V]) ShardStats(i int) (Stats, bool) {
	if sr, ok := s.shards[i].obj.(StatsReader); ok {
		return sr.Stats(), true
	}
	return Stats{}, false
}

// Stats aggregates the per-shard counters into one Stats: sums for every
// monotone counter (Epoch included — it becomes the total number of epoch
// installs across shards), max for MaxHelpDepth, plus the store's own
// cross-shard gauges.
func (s *Sharded[V]) Stats() Stats {
	var agg Stats
	for i := range s.shards {
		st, ok := s.ShardStats(i)
		if !ok {
			continue
		}
		agg.ScanRetries += st.ScanRetries
		agg.HelpsPosted += st.HelpsPosted
		agg.HelpsAdopted += st.HelpsAdopted
		agg.LiveAnnouncements += st.LiveAnnouncements
		if st.MaxHelpDepth > agg.MaxHelpDepth {
			agg.MaxHelpDepth = st.MaxHelpDepth
		}
		agg.RegistryWalks += st.RegistryWalks
		agg.WalksSkipped += st.WalksSkipped
		agg.RecordsVisited += st.RecordsVisited
		agg.RecordsDeduped += st.RecordsDeduped
		agg.RecordReuses += st.RecordReuses
		agg.Epoch += st.Epoch
		agg.EpochInstalls += st.EpochInstalls
		agg.Grows += st.Grows
		agg.Shrinks += st.Shrinks
		agg.ViewsDiscarded += st.ViewsDiscarded
		agg.OptimisticScans += st.OptimisticScans
		agg.Escalations += st.Escalations
		agg.TornReads += st.TornReads
	}
	agg.CrossShardScans = s.crossScans.Load()
	agg.CrossShardRetries = s.crossRetries.Load()
	return agg
}

// Components returns the current component count.
func (s *Sharded[V]) Components() int { return int(s.n.Load()) }

// base returns shard i's first global component id.
func (s *Sharded[V]) base(i int) int { return i * s.width }

// sameShard reports whether every id routes to ids[0]'s shard.
func (s *Sharded[V]) sameShard(ids []int) (int, bool) {
	first := s.ShardOf(ids[0])
	for _, id := range ids[1:] {
		if s.ShardOf(id) != first {
			return first, false
		}
	}
	return first, true
}

// localIDs translates global ids of one shard into the shard's local id
// space.
func (s *Sharded[V]) localIDs(shard int, ids []int) []int {
	base := s.base(shard)
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = id - base
	}
	return out
}

// Update writes vals[i] into component ids[i]. Batch semantics match the
// package contract (each component write individually linearizable, the
// batch as a whole not atomic), so a batch spanning shards is simply
// applied shard by shard in ascending shard order; each shard's inner
// update is bracketed by the shard's stamp so cross-shard scans observe it.
func (s *Sharded[V]) Update(ids []int, vals []V) error {
	if err := validateArgs(int(s.n.Load()), ids, vals); err != nil {
		return err
	}
	if shard, ok := s.sameShard(ids); ok {
		return s.updateShard(shard, s.localIDs(shard, ids), vals)
	}
	for k := range s.shards {
		var lids []int
		var lvals []V
		base := s.base(k)
		for i, id := range ids {
			if s.ShardOf(id) == k {
				lids = append(lids, id-base)
				lvals = append(lvals, vals[i])
			}
		}
		if len(lids) == 0 {
			continue
		}
		if err := s.updateShard(k, lids, lvals); err != nil {
			return err
		}
	}
	return nil
}

// updateShard applies one shard's slice of a batch under the shard stamp's
// writer-in-flight bracket.
func (s *Sharded[V]) updateShard(shard int, lids []int, vals []V) error {
	sh := &s.shards[shard]
	sh.stamp.Add(1)
	err := sh.obj.Update(lids, vals)
	sh.stamp.Add(stampRetire)
	return err
}

// PartialScan returns an atomic view of the named components: a direct
// delegation when they all live in one shard (the locality fast path — no
// stamp traffic at all), a stamp-validated cross-shard composition
// otherwise.
func (s *Sharded[V]) PartialScan(ids []int) ([]V, error) {
	if err := validateIDs(int(s.n.Load()), ids); err != nil {
		return nil, err
	}
	if shard, ok := s.sameShard(ids); ok {
		return s.shards[shard].obj.PartialScan(s.localIDs(shard, ids))
	}
	return s.scanCross(ids)
}

// Scan is PartialScan over every component. A Shrink racing the id
// resolution surfaces as ErrBadComponent from the inner scan; like the
// other implementations' full scans, Scan retakes under the new count
// instead of surfacing it (each retake is caused by a completed resize, so
// the loop is lock-free).
func (s *Sharded[V]) Scan() ([]V, error) {
	for {
		vals, err := s.PartialScan(allIDs(int(s.n.Load())))
		if err == nil {
			return vals, nil
		}
		if !errors.Is(err, ErrBadComponent) {
			return nil, err
		}
	}
}

// scanCross composes per-shard atomic sub-scans into one atomic view via
// the shard stamps (see the type comment for the argument). A torn attempt
// — a writer in flight at the first pass, a moved stamp at the validation
// pass, or a resize that invalidated an id mid-scan — retries; every retry
// is caused by another operation's progress except the parked-writer case,
// which is the seqlock trade documented on the type.
func (s *Sharded[V]) scanCross(ids []int) ([]V, error) {
	s.crossScans.Add(1)
	out := make([]V, len(ids))
	// Per-shard local id lists and the result positions they fill, built
	// once; the shard set of a retry is identical because ids is fixed.
	lids := make([][]int, len(s.shards))
	pos := make([][]int, len(s.shards))
	var involved []int
	for i, id := range ids {
		k := s.ShardOf(id)
		if lids[k] == nil {
			involved = append(involved, k)
		}
		lids[k] = append(lids[k], id-s.base(k))
		pos[k] = append(pos[k], i)
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 && attempt%8 == 0 {
			// A long torn streak means we are racing a busy (or parked)
			// writer; yield so it can finish rather than burning its CPU.
			runtime.Gosched()
		}
		var sum uint64
		torn := false
		for _, k := range involved {
			st := s.shards[k].stamp.Load()
			if st&stampInflight != 0 {
				torn = true
				break
			}
			sum += st
		}
		if torn {
			s.crossRetries.Add(1)
			continue
		}
		var err error
		for _, k := range involved {
			var vals []V
			vals, err = s.shards[k].obj.PartialScan(lids[k])
			if err != nil {
				break
			}
			for j, p := range pos[k] {
				out[p] = vals[j]
			}
		}
		if err != nil {
			if errors.Is(err, ErrBadComponent) {
				// A shrink raced the scan. If the ids no longer fit the
				// published count, the scan is rejected like any other
				// post-shrink operation; if they still fit (the count moved
				// back, or the publish is still in flight), retry under the
				// current geometry.
				if verr := validateIDs(int(s.n.Load()), ids); verr != nil {
					return nil, verr
				}
				s.crossRetries.Add(1)
				continue
			}
			return nil, err
		}
		var resum uint64
		for _, k := range involved {
			resum += s.shards[k].stamp.Load()
		}
		if sum == resum {
			// No writer completed — and none was in flight — in any involved
			// shard between the two stamp passes; every sub-scan's view held
			// throughout the window, so the composition linearizes inside it.
			return out, nil
		}
		s.crossRetries.Add(1)
	}
}

// Grow appends k fresh zero-valued components — all into the last shard,
// whose range is unbounded — and returns the new count. The inner grow is
// stamped like a write (an optimistic cross-shard scan involving the last
// shard retries across it) and the new count is published after it, so an
// operation that validates against the new count always finds the shard
// already grown.
func (s *Sharded[V]) Grow(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("%w: grow by %d components", ErrBadResize, k)
	}
	s.resize.Lock()
	defer s.resize.Unlock()
	sh := &s.shards[len(s.shards)-1]
	sh.stamp.Add(1)
	_, err := sh.obj.Grow(k)
	sh.stamp.Add(stampRetire)
	if err != nil {
		return 0, err
	}
	n := int(s.n.Load()) + k
	s.n.Store(int64(n))
	return n, nil
}

// Shrink removes the k highest-numbered components and returns the new
// count. The removal must stay within the last shard: a Shrink that would
// cut into the fixed geometry (below MinComponents) is rejected with
// ErrBadResize. The inner shrink runs before the new count is published, so
// an operation pinned to the old count that names a removed id is rejected
// by the shard itself — the rejection linearizes after the Shrink, exactly
// like the single-object implementations.
func (s *Sharded[V]) Shrink(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("%w: shrink by %d components", ErrBadResize, k)
	}
	s.resize.Lock()
	defer s.resize.Unlock()
	n := int(s.n.Load())
	if k >= n {
		return 0, fmt.Errorf("%w: shrink by %d of %d components", ErrBadResize, k, n)
	}
	if n-k < s.MinComponents() {
		return 0, fmt.Errorf("%w: shrink by %d of %d components would cut into the fixed shard geometry (minimum %d)",
			ErrBadResize, k, n, s.MinComponents())
	}
	sh := &s.shards[len(s.shards)-1]
	sh.stamp.Add(1)
	_, err := sh.obj.Shrink(k)
	sh.stamp.Add(stampRetire)
	if err != nil {
		return 0, err
	}
	s.n.Store(int64(n - k))
	return n - k, nil
}
