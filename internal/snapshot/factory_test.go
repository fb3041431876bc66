package snapshot_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"partialsnapshot/internal/snapshot"
)

// TestFactoryMatrix constructs every implementation through the factory
// and pushes one update/scan round through it — the smoke-level contract
// every Impls() entry must satisfy.
func TestFactoryMatrix(t *testing.T) {
	for _, impl := range snapshot.Impls() {
		t.Run(string(impl), func(t *testing.T) {
			obj, err := snapshot.New[int64](impl, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := obj.Update([]int{0, 7}, []int64{10, 70}); err != nil {
				t.Fatal(err)
			}
			got, err := obj.PartialScan([]int{7, 0, 3})
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != 70 || got[1] != 10 || got[2] != 0 {
				t.Fatalf("scan after update read %v", got)
			}
		})
	}
}

// TestFactoryRejectsMisuse is the factory's whole point versus the bare
// constructors: a bad implementation name, a bad size, or an option the
// selected implementation cannot honour is an error, never a silent no-op.
func TestFactoryRejectsMisuse(t *testing.T) {
	cases := []struct {
		name string
		impl snapshot.Impl
		n    int
		opts []snapshot.Option
	}{
		{"unknown impl", "spanner", 8, nil},
		{"zero components", snapshot.ImplLockFree, 0, nil},
		{"negative components", snapshot.ImplVersioned, -3, nil},
		{"components past the cap", snapshot.ImplRWMutex, snapshot.MaxComponents + 1, nil},
		{"attempts on lockfree", snapshot.ImplLockFree, 8, []snapshot.Option{snapshot.WithOptimisticAttempts(5)}},
		{"attempts on rwmutex", snapshot.ImplRWMutex, 8, []snapshot.Option{snapshot.WithOptimisticAttempts(5)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if obj, err := snapshot.New[int64](tc.impl, tc.n, tc.opts...); err == nil {
				t.Fatalf("New(%s, %d) accepted the misuse and returned %T", tc.impl, tc.n, obj)
			}
		})
	}
}

// TestResizeCap pins MaxComponents on every implementation: a grow that
// would pass the cap, however large, is ErrBadResize before anything is
// allocated (not an out-of-memory or makeslice panic), it leaves the
// object as it was, and New refuses an object past the cap.
func TestResizeCap(t *testing.T) {
	for _, impl := range snapshot.Impls() {
		t.Run(string(impl), func(t *testing.T) {
			obj, err := snapshot.New[int64](impl, 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{math.MaxInt, math.MaxInt - 4, snapshot.MaxComponents, snapshot.MaxComponents - 7} {
				if n, err := obj.Grow(k); !errors.Is(err, snapshot.ErrBadResize) {
					t.Fatalf("Grow(%d) on 8 components: %d, %v; want ErrBadResize", k, n, err)
				}
			}
			if n := obj.Components(); n != 8 {
				t.Fatalf("refused grows left %d components, want 8", n)
			}
			if obj, err := snapshot.New[int64](impl, snapshot.MaxComponents+1); err == nil {
				t.Fatalf("New(%s, MaxComponents+1) returned %T", impl, obj)
			}
		})
	}
	// The cap itself is reachable. It is checked on the reference store
	// only: there it costs 8 MB, while LockFree's registers and
	// announcement slots at the cap take over 100 MB.
	obj, err := snapshot.New[int64](snapshot.ImplRWMutex, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := obj.Grow(snapshot.MaxComponents - 8); err != nil || n != snapshot.MaxComponents {
		t.Fatalf("Grow to the cap: %d, %v", n, err)
	}
	if _, err := obj.Grow(1); !errors.Is(err, snapshot.ErrBadResize) {
		t.Fatalf("Grow(1) at the cap: %v, want ErrBadResize", err)
	}
}

// TestErrorCode pins the wire taxonomy: the two sentinels map to their
// codes (wrapped or not), everything else to "".
func TestErrorCode(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{snapshot.ErrBadComponent, snapshot.CodeBadComponent},
		{fmt.Errorf("update: %w", snapshot.ErrBadComponent), snapshot.CodeBadComponent},
		{snapshot.ErrBadResize, snapshot.CodeBadResize},
		{fmt.Errorf("shrink by 9: %w", snapshot.ErrBadResize), snapshot.CodeBadResize},
		{nil, ""},
		{errors.New("disk on fire"), ""},
	}
	for _, tc := range cases {
		if got := snapshot.ErrorCode(tc.err); got != tc.want {
			t.Fatalf("ErrorCode(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
	// The codes are what the server maps to HTTP statuses; a rename is a
	// wire-protocol break, so pin the literals too.
	if snapshot.CodeBadComponent != "bad_component" || snapshot.CodeBadResize != "bad_resize" {
		t.Fatalf("wire codes changed: %q, %q", snapshot.CodeBadComponent, snapshot.CodeBadResize)
	}
}
