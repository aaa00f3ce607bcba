package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pravega-go/pravega/pkg/pravega"
)

// ackQueueLen bounds the acknowledgements one (writer, segment) waiter may
// have outstanding. A full queue stalls the sender, which then shows as
// sender lateness (driver.late_p99_ms) instead of being hidden.
const ackQueueLen = 1 << 14

// pendingAck is one written event awaiting its acknowledgement.
type pendingAck struct {
	f    *pravega.WriteFuture
	seq  uint64
	due  int64 // intended send time (open loop) or send time (closed loop)
	call int64 // when WriteEvent was called
}

// writerLane is one EventWriter with its own key choice and sequence
// numbers. Acks are awaited by one goroutine per segment: a writer completes
// a segment's futures in order, so each waiter sees its acks as they land.
type writerLane struct {
	id     uint16
	seed   uint64
	size   int
	w      *pravega.EventWriter
	keys   []string
	keyIdx []int // key index -> waiter (segment index)
	rng    *rand.Rand
	log    *spanLog

	waiters    []chan pendingAck
	wg         sync.WaitGroup
	finishOnce sync.Once
	finishErr  error
	window     chan struct{} // closed-loop outstanding window; nil in open loop

	seq      uint64
	acked    atomic.Int64
	ackBytes atomic.Int64

	mu       sync.Mutex
	failed   []uint64
	latency  []sample // ack latency, for acks due at or after measureFrom
	late     []int64  // open loop: send time minus due
	firstErr error

	measureFrom int64
}

// newWriterLane opens a writer on stream and starts its ack waiters.
// keySeg maps each key index to the index of the segment it routes to. A
// window > 0 makes a closed-loop lane with that many events outstanding;
// only open-loop lanes record latency.
func newWriterLane(sys *pravega.System, scope, stream string, id uint16, seed uint64, size int, keys []string, keySeg []int, segments, window int, log *spanLog) (*writerLane, error) {
	w, err := sys.NewWriter(pravega.WriterConfig{Scope: scope, Stream: stream})
	if err != nil {
		return nil, fmt.Errorf("new writer on %s: %w", stream, err)
	}
	l := &writerLane{
		id:     id,
		seed:   seed,
		size:   size,
		w:      w,
		keys:   keys,
		keyIdx: keySeg,
		rng:    rand.New(rand.NewSource(int64(splitmix(seed ^ uint64(id)<<32)))),
		log:    log,
	}
	if window > 0 {
		l.window = make(chan struct{}, window)
		l.measureFrom = math.MaxInt64
	}
	for i := 0; i < segments; i++ {
		ch := make(chan pendingAck, ackQueueLen)
		l.waiters = append(l.waiters, ch)
		l.wg.Add(1)
		go l.await(ch)
	}
	return l, nil
}

func (l *writerLane) await(ch chan pendingAck) {
	defer l.wg.Done()
	var lat []sample
	for p := range ch {
		<-p.f.Done()
		t := now()
		if l.window != nil {
			<-l.window
		}
		if err := p.f.Err(); err != nil {
			l.mu.Lock()
			l.failed = append(l.failed, p.seq)
			l.mu.Unlock()
			l.noteErr(err)
			continue
		}
		l.acked.Add(1)
		l.ackBytes.Add(int64(l.size))
		if l.log.tracesEvent(p.seq) {
			l.log.add(spanAck, spanID(l.id, p.seq), p.call, t)
		}
		if p.due >= l.measureFrom {
			lat = append(lat, sample{due: p.due, lat: t - p.due})
		}
	}
	l.mu.Lock()
	l.latency = append(l.latency, lat...)
	l.mu.Unlock()
}

// send writes the lane's next event, stamped with its intended time.
func (l *writerLane) send(due int64) {
	l.seq++
	k := l.rng.Intn(len(l.keys))
	buf := make([]byte, l.size)
	encodeEvent(buf, l.seed, eventID{writer: l.id, key: uint32(k), seq: l.seq, due: due})
	t0 := now()
	f := l.w.WriteEvent(l.keys[k], buf)
	if l.log.tracesEvent(l.seq) {
		l.log.add(spanWriteCall, spanID(l.id, l.seq), t0, now())
	}
	l.waiters[l.keyIdx[k]] <- pendingAck{f: f, seq: l.seq, due: due, call: t0}
}

// openLoop sends at a mean rate from start until end (clock nanoseconds),
// whatever the system does. Gaps between intended send times are drawn
// from an exponential distribution seeded by the lane (a Poisson
// schedule), so no run phase-locks with the system's own timers. Each event
// is stamped with its intended send time; when the sender falls behind, it
// catches up in a burst and records how late each event went out.
func (l *writerLane) openLoop(start, end int64, rate float64) {
	sched := rand.New(rand.NewSource(int64(splitmix(l.seed ^ uint64(l.id)<<32 ^ 0x5c4ed))))
	mean := float64(time.Second) / rate
	var late []int64
	for due := start; due < end; due += int64(sched.ExpFloat64() * mean) {
		t := now()
		if t < due {
			time.Sleep(time.Duration(due - t))
			t = now()
		}
		late = append(late, t-due)
		l.send(due)
	}
	l.mu.Lock()
	l.late = append(l.late, late...)
	l.mu.Unlock()
}

// closedLoop sends n events keeping at most the lane's window
// unacknowledged, and returns once all of them are acknowledged.
func (l *writerLane) closedLoop(n int) {
	for i := 0; i < n; i++ {
		l.window <- struct{}{}
		l.send(now())
	}
	if err := l.w.Flush(); err != nil {
		l.noteErr(err)
	}
	for i := 0; i < cap(l.window); i++ {
		l.window <- struct{}{}
	}
	for i := 0; i < cap(l.window); i++ {
		<-l.window
	}
}

func (l *writerLane) noteErr(err error) {
	l.mu.Lock()
	if l.firstErr == nil {
		l.firstErr = err
	}
	l.mu.Unlock()
}

// finish flushes and closes the writer and waits for every ack. Calls after
// the first return the first call's result.
func (l *writerLane) finish() error {
	l.finishOnce.Do(func() {
		err := l.w.Close()
		for _, ch := range l.waiters {
			close(ch)
		}
		l.wg.Wait()
		l.mu.Lock()
		defer l.mu.Unlock()
		if err == nil {
			err = l.firstErr
		}
		l.finishErr = err
	})
	return l.finishErr
}

// expectIn tells an oracle what this lane wrote.
func (l *writerLane) expectIn(o *Oracle) {
	l.mu.Lock()
	defer l.mu.Unlock()
	o.Expect(l.id, l.seq, l.failed)
}

// readerSet is a reader group's readers, each on its own goroutine, feeding
// one oracle until stopped.
type readerSet struct {
	o      *Oracle
	log    *spanLog
	cancel context.CancelFunc
	wg     sync.WaitGroup

	measureFrom atomic.Int64 // record e2e latency for events due at or after this

	mu       sync.Mutex
	e2e      []sample
	readErrs int64
	firstErr error
}

// startReaders creates a reader group over stream with n readers reading
// it into o. They record no latency until measureFrom is set.
//
// Every reader joins the group before any reads, and each starts only
// once the one before it has delivered an event, by which time that one has
// taken its share of the segments. Readers that rebalance
// concurrently can leave a segment with no owner (see README.md), which
// this ordering avoids; the oracle still counts any event that is lost.
func startReaders(sys *pravega.System, group, scope, stream string, n int, o *Oracle, log *spanLog) (*readerSet, error) {
	rg, err := sys.NewReaderGroup(group, scope, stream)
	if err != nil {
		return nil, fmt.Errorf("reader group %s: %w", group, err)
	}
	var readers []*pravega.Reader
	for i := 0; i < n; i++ {
		r, err := rg.NewReader(fmt.Sprintf("%s-r%d", group, i))
		if err != nil {
			for _, r := range readers {
				_ = r.Close()
			}
			return nil, fmt.Errorf("reader %d of %s: %w", i, group, err)
		}
		readers = append(readers, r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rs := &readerSet{o: o, log: log, cancel: cancel}
	rs.measureFrom.Store(math.MaxInt64)
	rs.wg.Add(len(readers) + 1)
	go func() {
		defer rs.wg.Done()
		for _, r := range readers {
			first := make(chan struct{})
			go rs.read(ctx, r, first)
			// Started after a cancel, the rest close at once.
			select {
			case <-first:
			case <-ctx.Done():
			}
		}
	}()
	return rs, nil
}

// read delivers events from r into the oracle until ctx is done, closing
// first after the first valid event.
func (rs *readerSet) read(ctx context.Context, r *pravega.Reader, first chan struct{}) {
	defer rs.wg.Done()
	defer r.Close()
	var lat []sample
	var errs int64
	var firstErr error
	for {
		t0 := now()
		ev, err := r.ReadNextEventCtx(ctx)
		t := now()
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			errs++
			if firstErr == nil {
				firstErr = err
			}
			time.Sleep(time.Millisecond)
			continue
		}
		id, ok := rs.o.Deliver(ev.Data, ev.Segment)
		if !ok {
			continue
		}
		if first != nil {
			close(first)
			first = nil
		}
		if rs.log.tracesEvent(id.seq) {
			rs.log.add(spanReadCall, spanID(id.writer, id.seq), t0, t)
		}
		if id.due >= rs.measureFrom.Load() {
			lat = append(lat, sample{due: id.due, lat: t - id.due})
		}
	}
	rs.mu.Lock()
	rs.e2e = append(rs.e2e, lat...)
	rs.readErrs += errs
	if rs.firstErr == nil {
		rs.firstErr = firstErr
	}
	rs.mu.Unlock()
}

// waitComplete waits until the oracle has every expected event or the
// timeout passes, then stops the readers.
func (rs *readerSet) waitComplete(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !rs.o.Complete() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	rs.stop()
	return rs.o.Complete()
}

func (rs *readerSet) stop() {
	rs.cancel()
	rs.wg.Wait()
}
