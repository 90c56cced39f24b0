package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestSplitCoversRangeInOrder(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 1}, {1, 8}, {7, 3}, {8, 3}, {9, 3}, {100, 7}, {5, 5}, {3, 100},
	} {
		shards := Split(tc.n, tc.parts)
		want := tc.parts
		if tc.n < want {
			want = tc.n
		}
		if tc.n <= 0 {
			if shards != nil {
				t.Errorf("Split(%d,%d) = %v, want nil", tc.n, tc.parts, shards)
			}
			continue
		}
		if len(shards) != want {
			t.Errorf("Split(%d,%d): %d shards, want %d", tc.n, tc.parts, len(shards), want)
		}
		next := 0
		for _, s := range shards {
			if s[0] != next {
				t.Fatalf("Split(%d,%d): shard starts at %d, want %d", tc.n, tc.parts, s[0], next)
			}
			if s[1] <= s[0] {
				t.Fatalf("Split(%d,%d): empty shard %v", tc.n, tc.parts, s)
			}
			next = s[1]
		}
		if next != tc.n {
			t.Errorf("Split(%d,%d): covers [0,%d), want [0,%d)", tc.n, tc.parts, next, tc.n)
		}
	}
}

func TestSplitBalance(t *testing.T) {
	shards := Split(10, 4)
	min, max := 10, 0
	for _, s := range shards {
		size := s[1] - s[0]
		if size < min {
			min = size
		}
		if size > max {
			max = size
		}
	}
	if max-min > 1 {
		t.Errorf("Split(10,4) sizes spread %d..%d, want near-equal", min, max)
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got, err := Map(context.Background(), Options{Workers: workers}, 37,
			func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 37 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

func TestMapPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), Options{Workers: workers}, 64,
			func(_ context.Context, i int) (int, error) {
				if i == 5 {
					return 0, boom
				}
				return i, nil
			})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want boom", workers, err)
		}
	}
}

func TestMapErrorCancelsWorkers(t *testing.T) {
	var after atomic.Int64
	_, err := Map(context.Background(), Options{Workers: 4}, 1000,
		func(ctx context.Context, i int) (int, error) {
			if i == 0 {
				return 0, fmt.Errorf("first shard fails")
			}
			if Canceled(ctx) {
				after.Add(1)
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("expected error")
	}
	// Not asserting a count: cancellation is advisory. The call must simply
	// terminate (deadlock/livelock would hang the test) and report the error.
}

func TestMapRespectsCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, Options{Workers: 3}, 10,
		func(_ context.Context, i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// errHit is the sentinel an existential search over Map returns from the
// shard that finds a witness: Map stops on the first error, so the search
// stops at the first hit.
var errHit = errors.New("hit")

// search is the existential search the oracles build from Map: whether some
// shard in [0, n) satisfies pred.
func search(ctx context.Context, opts Options, n int, pred func(i int) bool) (bool, error) {
	_, err := Map(ctx, opts, n, func(_ context.Context, i int) (struct{}, error) {
		if pred(i) {
			return struct{}{}, errHit
		}
		return struct{}{}, nil
	})
	if errors.Is(err, errHit) {
		return true, nil
	}
	return false, err
}

func TestSearchFindsWitness(t *testing.T) {
	for _, workers := range []int{1, 4} {
		found, err := search(context.Background(), Options{Workers: workers}, 100, func(i int) bool { return i == 73 })
		if err != nil || !found {
			t.Errorf("workers=%d: found=%v err=%v, want true,nil", workers, found, err)
		}
		found, err = search(context.Background(), Options{Workers: workers}, 100, func(int) bool { return false })
		if err != nil || found {
			t.Errorf("workers=%d: found=%v err=%v, want false,nil", workers, found, err)
		}
	}
}

func TestSearchSerialShortCircuits(t *testing.T) {
	visited := 0
	found, err := search(context.Background(), Options{Workers: 1}, 100, func(i int) bool { visited++; return i == 3 })
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if visited != 4 {
		t.Errorf("visited %d shards, want 4", visited)
	}
}

func TestSearchCancelsAfterHit(t *testing.T) {
	var polls atomic.Int64
	found, err := search(context.Background(), Options{Workers: 4}, 500, func(i int) bool {
		polls.Add(1)
		return i == 2
	})
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if polls.Load() == 500 {
		t.Log("cancellation did not prune any shard (legal but unexpected)")
	}
}

func TestWorkerCountDefaults(t *testing.T) {
	if got := (Options{}).WorkerCount(); got < 1 {
		t.Errorf("default WorkerCount = %d, want >= 1", got)
	}
	if got := (Options{Workers: -3}).WorkerCount(); got < 1 {
		t.Errorf("negative WorkerCount = %d, want >= 1", got)
	}
	if got := (Options{Workers: 1}).WorkerCount(); got != 1 {
		t.Errorf("Workers=1: WorkerCount = %d, want 1", got)
	}
}

// TestPoolStress drives many concurrent shards through shared state under
// the race detector (go test -race): per-shard sums land in ordered slots
// while a shared counter takes the atomic traffic.
func TestPoolStress(t *testing.T) {
	var total atomic.Int64
	const shards = 331
	got, err := Map(context.Background(), Options{Workers: 16}, shards,
		func(_ context.Context, i int) (int64, error) {
			var local int64
			for j := 0; j < 100; j++ {
				local += int64(i)
				total.Add(1)
			}
			return local, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i, r := range got {
		if r != int64(i)*100 {
			t.Fatalf("shard %d: %d, want %d", i, r, int64(i)*100)
		}
		sum += r
	}
	if total.Load() != shards*100 {
		t.Errorf("shared counter %d, want %d", total.Load(), shards*100)
	}
	if want := int64(shards) * (shards - 1) / 2 * 100; sum != want {
		t.Errorf("sum %d, want %d", sum, want)
	}
}
