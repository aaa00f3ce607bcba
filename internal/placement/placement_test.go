package placement

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/wal"
)

// countingFetch returns a fetch that counts its calls and hands out the
// snapshot next returns.
func countingFetch(calls *atomic.Int64, next func() *Snapshot[string]) func() (*Snapshot[string], error) {
	return func() (*Snapshot[string], error) {
		calls.Add(1)
		return next(), nil
	}
}

func TestConcurrentStaleRefreshesFetchOnce(t *testing.T) {
	const n = 32
	var calls atomic.Int64
	release := make(chan struct{})
	r := New(&Snapshot[string]{Epoch: 1, Table: "old"}, countingFetch(&calls, func() *Snapshot[string] {
		<-release
		return &Snapshot[string]{Epoch: 2, Table: "new"}
	}))
	var started, done sync.WaitGroup
	got := make([]*Snapshot[string], n)
	for i := 0; i < n; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			s, err := r.Refresh(1)
			if err != nil {
				t.Error(err)
			}
			got[i] = s
		}(i)
	}
	started.Wait()
	close(release)
	done.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("%d concurrent stale refreshes made %d fetches, want 1", n, c)
	}
	for i, s := range got {
		if s == nil || s.Table != "new" {
			t.Fatalf("caller %d got %+v, want the fetched snapshot", i, s)
		}
	}
	if s := r.Load(); s.Epoch != 2 {
		t.Fatalf("current epoch = %d, want 2", s.Epoch)
	}
}

func TestRefreshAtNewerEpochIsNoop(t *testing.T) {
	var calls atomic.Int64
	initial := &Snapshot[string]{Epoch: 5, Table: "current"}
	r := New(initial, countingFetch(&calls, func() *Snapshot[string] { return &Snapshot[string]{Epoch: 6} }))
	s, err := r.Refresh(4)
	if err != nil || s != initial {
		t.Fatalf("Refresh(4) at epoch 5 = %+v, %v; want the current snapshot", s, err)
	}
	if c := calls.Load(); c != 0 {
		t.Fatalf("Refresh past a newer snapshot fetched %d times", c)
	}
	if s, _ := r.Refresh(5); s.Epoch != 6 || calls.Load() != 1 {
		t.Fatalf("Refresh(5) at epoch 5 = %+v after %d fetches; want one fetch to epoch 6", s, calls.Load())
	}
}

func TestRefreshKeepsSnapshotOnFetchError(t *testing.T) {
	initial := &Snapshot[string]{Epoch: 3}
	boom := errors.New("coord unreachable")
	r := New(initial, func() (*Snapshot[string], error) { return nil, boom })
	s, err := r.Refresh(3)
	if !errors.Is(err, boom) || s != initial || r.Load() != initial {
		t.Fatalf("failed refresh = %+v, %v; want the kept snapshot and the fetch error", s, err)
	}
}

func TestRetryGivesUpAtWindowWithLastError(t *testing.T) {
	var calls atomic.Int64
	r := New(&Snapshot[string]{}, countingFetch(&calls, func() *Snapshot[string] { return &Snapshot[string]{} }))
	const window = 40 * time.Millisecond
	attempts := 0
	start := time.Now()
	ambiguous, err := r.Retry(context.Background(), window, false, func(*Snapshot[string]) error {
		attempts++
		return fmt.Errorf("attempt %d: %w", attempts, client.ErrWrongHost)
	})
	elapsed := time.Since(start)
	if want := fmt.Sprintf("attempt %d: %v", attempts, client.ErrWrongHost); err == nil || err.Error() != want {
		t.Fatalf("Retry returned %v, want the last attempt's error %q", err, want)
	}
	if attempts < 2 || ambiguous {
		t.Fatalf("attempts = %d, ambiguous = %v; want several unambiguous attempts", attempts, ambiguous)
	}
	if elapsed < window || elapsed > window+maxBackoff+time.Second {
		t.Fatalf("Retry gave up after %v, want about the %v window", elapsed, window)
	}
	if c := calls.Load(); c != int64(attempts-1) {
		t.Fatalf("%d refreshes for %d attempts, want one before each retry", c, attempts)
	}
}

func TestRetryReturnsFinalErrorAtOnce(t *testing.T) {
	var calls atomic.Int64
	r := New(&Snapshot[string]{}, countingFetch(&calls, func() *Snapshot[string] { return &Snapshot[string]{} }))
	final := segstore.ErrSegmentNotFound
	attempts := 0
	_, err := r.Retry(context.Background(), time.Minute, true, func(*Snapshot[string]) error {
		attempts++
		return final
	})
	if !errors.Is(err, final) || attempts != 1 || calls.Load() != 0 {
		t.Fatalf("Retry = %v after %d attempts and %d refreshes; want the error at once", err, attempts, calls.Load())
	}
}

func TestRetryAmbiguity(t *testing.T) {
	var calls atomic.Int64
	r := New(&Snapshot[string]{}, countingFetch(&calls, func() *Snapshot[string] { return &Snapshot[string]{} }))
	// runs feeds op the given errors in turn, then nil.
	runs := func(retryStarted bool, errs ...error) (bool, error, int) {
		attempts := 0
		ambiguous, err := r.Retry(context.Background(), time.Minute, retryStarted, func(*Snapshot[string]) error {
			attempts++
			if attempts <= len(errs) {
				return errs[attempts-1]
			}
			return nil
		})
		return ambiguous, err, attempts
	}
	disconnect := fmt.Errorf("read reply: %w", client.ErrDisconnected)
	if amb, err, n := runs(true, disconnect); !amb || err != nil || n != 2 {
		t.Fatalf("after a disconnect: ambiguous=%v err=%v attempts=%d; want ambiguous success on the retry", amb, err, n)
	}
	if c := calls.Load(); c != 0 {
		t.Fatalf("a lost connection refreshed placement %d times, want 0", c)
	}
	if amb, err, n := runs(true, client.ErrWrongHost, segstore.ErrWrongContainer); amb || err != nil || n != 3 {
		t.Fatalf("after wrong-host replies: ambiguous=%v err=%v attempts=%d; want unambiguous success", amb, err, n)
	}
	if amb, err, n := runs(false, wal.ErrFenced); !amb || !errors.Is(err, wal.ErrFenced) || n != 1 {
		t.Fatalf("fenced, no retry of started ops: ambiguous=%v err=%v attempts=%d; want the error at once, ambiguous", amb, err, n)
	}
	if !Applied(true, fmt.Errorf("merge: %w", segstore.ErrSegmentNotFound), segstore.ErrSegmentNotFound) ||
		Applied(false, segstore.ErrSegmentNotFound, segstore.ErrSegmentNotFound) {
		t.Fatal("Applied must hold exactly when an ambiguous attempt precedes the repeat's error")
	}
}

func TestRetryStopsOnContextAndClose(t *testing.T) {
	r := New(&Snapshot[string]{}, func() (*Snapshot[string], error) { return &Snapshot[string]{}, nil })
	wrongHost := func(*Snapshot[string]) error { return client.ErrWrongHost }

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := r.Retry(ctx, time.Minute, false, wrongHost); !errors.Is(err, context.Canceled) {
		t.Fatalf("Retry after cancel = %v, want context.Canceled", err)
	}

	time.AfterFunc(20*time.Millisecond, r.Close)
	start := time.Now()
	if _, err := r.Retry(context.Background(), time.Minute, false, wrongHost); !errors.Is(err, client.ErrWrongHost) {
		t.Fatalf("Retry after Close = %v, want the last attempt's error", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Retry ran %v past Close", d)
	}
}

func TestWatchRefreshesOnEpochAndStopsWhenUnsupported(t *testing.T) {
	cs := cluster.NewStore()
	var calls atomic.Int64
	r := New(&Snapshot[string]{}, func() (*Snapshot[string], error) {
		calls.Add(1)
		return &Snapshot[string]{Epoch: segstore.PlacementEpoch(cs)}, nil
	})
	defer r.Close()
	go r.Watch(func(done <-chan struct{}, known int64) (int64, error) {
		return AwaitEpoch(cs, known, done, 0)
	})
	segstore.BumpPlacementEpoch(cs)
	segstore.BumpPlacementEpoch(cs)
	want := segstore.PlacementEpoch(cs)
	deadline := time.Now().Add(10 * time.Second)
	for r.Load().Epoch != want {
		if time.Now().After(deadline) {
			t.Fatalf("watch left the snapshot at epoch %d, want %d", r.Load().Epoch, want)
		}
		time.Sleep(time.Millisecond)
	}

	// A wait the server does not support ends the watch for good.
	r2 := New(&Snapshot[string]{}, func() (*Snapshot[string], error) { return &Snapshot[string]{}, nil })
	defer r2.Close()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		r2.Watch(func(<-chan struct{}, int64) (int64, error) {
			return 0, fmt.Errorf("epoch watch: %w", errors.ErrUnsupported)
		})
	}()
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("watch kept running after an unsupported wait")
	}
}

func TestAwaitEpochTimesOutAtKnownEpoch(t *testing.T) {
	cs := cluster.NewStore()
	segstore.BumpPlacementEpoch(cs)
	known := segstore.PlacementEpoch(cs)
	got, err := AwaitEpoch(cs, known, nil, 20*time.Millisecond)
	if err != nil || got != known {
		t.Fatalf("AwaitEpoch with no change = %d, %v; want %d after the timeout", got, err, known)
	}
	if got, err := AwaitEpoch(cs, known-1, nil, time.Minute); err != nil || got != known {
		t.Fatalf("AwaitEpoch behind the current epoch = %d, %v; want %d at once", got, err, known)
	}
}
