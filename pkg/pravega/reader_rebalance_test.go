package pravega

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestReadersJoiningTogetherReadEverySegment: two readers join a group on a
// 4-segment stream and then start reading at the same moment, so their
// first rebalance passes race. Whatever the interleaving, the group must
// converge to an assignment that covers every segment: each trial's events
// (spread over all four segments) must all be delivered.
func TestReadersJoiningTogetherReadEverySegment(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "join", "s", 4)
	w, err := sys.NewWriter(WriterConfig{Scope: "join", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	const events = 64 // distinct keys: every segment gets some
	for i := 0; i < events; i++ {
		w.WriteEvent(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("ev-%02d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	const trials = 50
	for trial := 0; trial < trials; trial++ {
		rg, err := sys.NewReaderGroup(fmt.Sprintf("rg-%d", trial), "join", "s")
		if err != nil {
			t.Fatal(err)
		}
		readers := make([]*Reader, 2)
		for i := range readers {
			if readers[i], err = rg.NewReader(fmt.Sprintf("r%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		var mu sync.Mutex
		got := map[string]bool{}
		segs := map[int64]bool{}
		deadline := time.Now().Add(5 * time.Second)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, r := range readers {
			wg.Add(1)
			go func(r *Reader) {
				defer wg.Done()
				<-start
				for time.Now().Before(deadline) {
					mu.Lock()
					done := len(got) == events
					mu.Unlock()
					if done {
						return
					}
					ev, err := r.ReadNextEvent(20 * time.Millisecond)
					if err != nil {
						continue // quiet tail while the other reader holds the rest
					}
					mu.Lock()
					got[string(ev.Data)] = true
					segs[ev.Segment] = true
					mu.Unlock()
				}
			}(r)
		}
		close(start)
		wg.Wait()
		for _, r := range readers {
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != events {
			t.Fatalf("trial %d: %d of %d events read from segments %v: a segment was left without a reader",
				trial, len(got), events, segs)
		}
	}
}

// TestClosedReaderHandsOffWhereItStopped: a reader that closes part-way
// through its segments hands each one back at its first unconsumed event,
// so a reader that joins afterwards reads exactly the rest — nothing read
// twice, nothing skipped — even though the first reader had fetched (and
// buffered) further than it consumed.
func TestClosedReaderHandsOffWhereItStopped(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "handoff", "s", 2)
	w, err := sys.NewWriter(WriterConfig{Scope: "handoff", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	const events = 200
	for i := 0; i < events; i++ {
		w.WriteEvent(fmt.Sprintf("key-%d", i%8), []byte(fmt.Sprintf("ev-%03d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rg, err := sys.NewReaderGroup("rg", "handoff", "s")
	if err != nil {
		t.Fatal(err)
	}
	read := func(r *Reader, n int, got map[string]int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ev, err := r.ReadNextEvent(time.Second)
			if err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
			got[string(ev.Data)]++
		}
	}
	got := map[string]int{}
	first, err := rg.NewReader("first")
	if err != nil {
		t.Fatal(err)
	}
	read(first, events/3, got)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	second, err := rg.NewReader("second")
	if err != nil {
		t.Fatal(err)
	}
	read(second, events-events/3, got)
	if ev, err := second.ReadNextEvent(50 * time.Millisecond); err == nil {
		t.Fatalf("extra event %q after all %d were read", ev.Data, events)
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < events; i++ {
		if n := got[fmt.Sprintf("ev-%03d", i)]; n != 1 {
			t.Fatalf("ev-%03d read %d times", i, n)
		}
	}
}
