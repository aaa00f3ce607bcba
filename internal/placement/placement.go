// Package placement is the one router between a client and the segment
// stores: it decides which host owns container c at epoch e, when that
// answer must be refreshed, and how an operation that met stale routing is
// retried (§2.2, §4.4). Ownership moves on failover and rebalance, so a
// Router keeps an immutable snapshot of the container→host table stamped
// with the placement epoch it reflects, refreshes it single-flight when the
// epoch moves or a reply proves it stale, and retries within a bounded
// window on one backoff schedule. The in-process cluster (hosting), the
// coord process's data plane (wire.RemotePlane) and the wire client all
// route through it.
package placement

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/wal"
)

// The backoff schedule between retry attempts, and the pause after a failed
// epoch wait: doubling from minBackoff, capped at maxBackoff.
const (
	minBackoff = 5 * time.Millisecond
	maxBackoff = 100 * time.Millisecond
)

// Snapshot is an immutable routing table stamped with the placement epoch
// it reflects. Table is never modified after the snapshot is published.
type Snapshot[T any] struct {
	Epoch int64
	Table T
}

// Router holds the current snapshot of one client's routing table. Routing
// is one atomic load (Load) followed by the caller's lookup in Table.
type Router[T any] struct {
	fetch func() (*Snapshot[T], error)
	cur   atomic.Pointer[Snapshot[T]]

	mu     sync.Mutex // guards flight
	flight *flight[T] // the fetch in progress, nil when none

	done      chan struct{} // closed by Close
	closeOnce sync.Once
}

// flight is one fetch that concurrent refreshes share.
type flight[T any] struct {
	done chan struct{}
	snap *Snapshot[T]
	err  error
}

// New returns a router that starts at initial (which must be non-nil) and
// refreshes by calling fetch.
func New[T any](initial *Snapshot[T], fetch func() (*Snapshot[T], error)) *Router[T] {
	r := &Router[T]{fetch: fetch, done: make(chan struct{})}
	r.cur.Store(initial)
	return r
}

// Load returns the current snapshot.
func (r *Router[T]) Load() *Snapshot[T] { return r.cur.Load() }

// Close ends the epoch watch and makes Retry return after the attempt in
// progress. Safe to call more than once.
func (r *Router[T]) Close() { r.closeOnce.Do(func() { close(r.done) }) }

// Refresh replaces a snapshot the caller found stale at epoch stale. A
// snapshot newer than stale is already current, so Refresh returns it
// without fetching; otherwise it joins the fetch in progress or starts one.
// However many callers refresh at once, one fetch runs. On a fetch error
// the current snapshot stays and is returned with the error.
func (r *Router[T]) Refresh(stale int64) (*Snapshot[T], error) {
	r.mu.Lock()
	if cur := r.cur.Load(); cur.Epoch > stale {
		r.mu.Unlock()
		return cur, nil
	}
	f := r.flight
	if f != nil {
		r.mu.Unlock()
		<-f.done
	} else {
		f = &flight[T]{done: make(chan struct{})}
		r.flight = f
		r.mu.Unlock()
		f.snap, f.err = r.fetch()
		r.mu.Lock()
		if f.err == nil {
			r.cur.Store(f.snap)
		}
		r.flight = nil
		r.mu.Unlock()
		close(f.done)
	}
	if f.err != nil {
		return r.cur.Load(), f.err
	}
	return f.snap, nil
}

// Watch keeps the snapshot current until the router closes. It passes the
// epoch it holds to wait, which blocks until the cluster's epoch passes it,
// its own time limit lapses, or done closes, and returns the epoch it saw;
// a newer epoch triggers a refresh. A failed wait pauses the loop for the
// longest backoff. A wait that fails with errors.ErrUnsupported ends the
// watch, leaving wrong-host replies to drive refreshes.
func (r *Router[T]) Watch(wait func(done <-chan struct{}, known int64) (int64, error)) {
	for {
		known := r.cur.Load().Epoch
		epoch, err := wait(r.done, known)
		select {
		case <-r.done:
			return
		default:
		}
		switch {
		case errors.Is(err, errors.ErrUnsupported):
			return
		case err != nil:
			select {
			case <-r.done:
				return
			case <-time.After(maxBackoff):
			}
		case epoch > known:
			_, _ = r.Refresh(known)
		}
	}
}

// AwaitEpoch blocks until the placement epoch recorded in cs passes known,
// done closes, or timeout lapses (zero means no limit), and returns the
// epoch it last read. It is the wait Watch uses next to the coordination
// store, and what a server runs to answer a remote client's epoch watch.
func AwaitEpoch(cs cluster.Coord, known int64, done <-chan struct{}, timeout time.Duration) (int64, error) {
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		ch, err := segstore.WatchPlacementEpoch(cs)
		if err != nil {
			return 0, err
		}
		cur := segstore.PlacementEpoch(cs)
		if cur > known {
			return cur, nil
		}
		select {
		case <-ch:
		case <-expired:
			return segstore.PlacementEpoch(cs), nil
		case <-done:
			return cur, nil
		}
	}
}

// class says whether an operation that failed may have been applied, and
// so whether repeating it is safe.
type class int

const (
	// final errors are the operation's answer; a retry cannot change it.
	final class = iota
	// notStarted errors mean the operation reached a host that does not own
	// the container: it was never applied, and a retry against fresh
	// placement is always safe.
	notStarted
	// mayHaveStarted errors mean the operation may have been applied before
	// it failed: the container shut down under it, a new owner fenced its
	// WAL, or the connection dropped with the request sent.
	mayHaveStarted
)

func classify(err error) class {
	switch {
	case err == nil:
		return final
	case errors.Is(err, client.ErrWrongHost), errors.Is(err, segstore.ErrWrongContainer):
		return notStarted
	case errors.Is(err, segstore.ErrContainerDown), errors.Is(err, wal.ErrFenced), IsDisconnect(err):
		return mayHaveStarted
	}
	return final
}

// IsDisconnect reports whether err is a transport failure, as opposed to an
// error reply from the server.
func IsDisconnect(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, client.ErrDisconnected) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Retry runs op against the current snapshot until it succeeds, fails with
// an error it must not repeat, or window has passed since the first
// attempt; it then returns op's last error. notStarted errors are always
// retried. mayHaveStarted errors are retried only when retryStarted is set,
// for operations that are idempotent or resolve a lost ack themselves.
// Before each new attempt Retry refreshes the snapshot the failed attempt
// used and backs off — except after a lost connection: the next attempt
// then goes out as soon as the transport has reconnected, at the pace of
// its redial backoff. ambiguous reports whether any attempt failed with a
// mayHaveStarted error: a later "already applied" answer (segment exists
// after a create, source gone after a merge) then means that attempt took
// effect — see Applied.
//
// Retry stops early when ctx is done (returning ctx.Err()) or the router
// closes (returning op's last error).
func (r *Router[T]) Retry(ctx context.Context, window time.Duration, retryStarted bool, op func(*Snapshot[T]) error) (ambiguous bool, err error) {
	deadline := time.Now().Add(window)
	backoff := minBackoff
	for {
		snap := r.cur.Load()
		err = op(snap)
		switch classify(err) {
		case final:
			return ambiguous, err
		case mayHaveStarted:
			ambiguous = true
			if !retryStarted {
				return ambiguous, err
			}
		}
		if !time.Now().Before(deadline) {
			return ambiguous, err
		}
		pause := time.Duration(0)
		if !IsDisconnect(err) {
			// A lost connection says nothing about placement, and the
			// transport paces its reconnects: the next attempt waits for
			// one. Anything else means the snapshot was stale.
			_, _ = r.Refresh(snap.Epoch)
			pause = backoff
			backoff = min(2*backoff, maxBackoff)
		}
		t := time.NewTimer(pause)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ambiguous, ctx.Err()
		case <-r.done:
			t.Stop()
			return ambiguous, err
		}
	}
}

// Applied reports whether a retried operation took effect although its
// last attempt failed with err: an earlier attempt's outcome was unknown
// (ambiguous), and err is the answer a repeat of an applied operation gets.
func Applied(ambiguous bool, err, repeatErr error) bool {
	return ambiguous && errors.Is(err, repeatErr)
}
