package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/obs"
)

// clockBase anchors every timestamp of a run; payloads carry intended send
// times relative to it, so writer and reader share one monotonic clock.
var clockBase = time.Now()

// now returns monotonic nanoseconds since clockBase.
func now() int64 { return int64(time.Since(clockBase)) }

// Span kinds written to the spans file.
const (
	spanWriteCall uint8 = iota // EventWriter.WriteEvent
	spanAck                    // WriteEvent call to WriteFuture done
	spanReadCall               // Reader.ReadNextEventCtx returning the event
	spanBookieAdd              // bookkeeper.Node.AddEntry to its callback
	spanLTSRead                // lts.ChunkStorage.Read
	spanLTSWrite               // lts.ChunkStorage.Write
)

var spanKinds = [...]string{
	spanWriteCall: "pravega.write_call",
	spanAck:       "pravega.ack",
	spanReadCall:  "pravega.read_call",
	spanBookieAdd: "bookkeeper.add",
	spanLTSRead:   "lts.read",
	spanLTSWrite:  "lts.write",
}

// span is one recorded interval. Event spans share the event's spanID
// (writer lane + sequence number); bookie spans use ledger and entry ids,
// LTS spans the chunk offset.
type span struct {
	kind       uint8
	id         uint64
	start, end int64
}

// eventSpanEvery samples the benchmark's own event spans: every span of an
// event whose sequence number is a multiple of it is kept, so a sampled
// event's write call, ack and delivery all appear under one id.
const eventSpanEvery = 16

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced runs pay one branch per call site.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// tracesEvent reports whether the event with this sequence number is
// sampled.
func (l *spanLog) tracesEvent(seq uint64) bool { return l != nil && seq%eventSpanEvery == 0 }

func (l *spanLog) add(kind uint8, id uint64, start, end int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{kind: kind, id: id, start: start, end: end})
	l.mu.Unlock()
}

// write dumps every span as CSV ordered by start time, followed by the
// program's sampled append spans with their stage offsets.
func (l *spanLog) write(path string, appends []obs.AppendSpan) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.spans, func(i, j int) bool { return l.spans[i].start < l.spans[j].start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "kind,id,start_ns,end_ns,stages")
	for _, s := range l.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,\n", spanKinds[s.kind], s.id, s.start, s.end)
	}
	for _, sp := range appends {
		start := int64(sp.Start.Sub(clockBase))
		fmt.Fprintf(w, "segstore.append,%d,%d,%d,enqueue_ns=%d;walack_ns=%d;apply_ns=%d\n",
			sp.Seq, start, start+int64(sp.Reply), sp.Enqueue, sp.WALAck, sp.Apply)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the span durations of one kind that started within
// the intervals, in nanoseconds.
func (l *spanLog) durations(kind uint8, intervals [][2]int64) []int64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int64
	for _, s := range l.spans {
		if s.kind == kind && within(s.start, intervals) {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// ioCounter totals one decorated operation: calls and bytes.
type ioCounter struct {
	mu    sync.Mutex
	calls int64
	bytes int64
}

func (c *ioCounter) add(n int) {
	c.mu.Lock()
	c.calls++
	c.bytes += int64(n)
	c.mu.Unlock()
}

func (c *ioCounter) get() (calls, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls, c.bytes
}

// timedBookie decorates a bookie: every AddEntry is timed from the call to
// its callback. Everything else passes through.
type timedBookie struct {
	bookkeeper.Node
	log  *spanLog
	adds *ioCounter
}

func (b *timedBookie) AddEntry(ledgerID, entryID int64, data []byte, cb func(error)) {
	t0 := now()
	b.adds.add(len(data))
	b.Node.AddEntry(ledgerID, entryID, data, func(err error) {
		b.log.add(spanBookieAdd, uint64(ledgerID)<<32|uint64(entryID), t0, now())
		cb(err)
	})
}

// timedLTS decorates chunk storage: Read and Write are timed and counted.
// Everything else passes through.
type timedLTS struct {
	lts.ChunkStorage
	log           *spanLog
	reads, writes *ioCounter
}

func (s *timedLTS) Read(name string, offset int64, buf []byte) (int, error) {
	t0 := now()
	n, err := s.ChunkStorage.Read(name, offset, buf)
	s.reads.add(n)
	s.log.add(spanLTSRead, uint64(offset), t0, now())
	return n, err
}

func (s *timedLTS) Write(name string, offset int64, data []byte) error {
	t0 := now()
	err := s.ChunkStorage.Write(name, offset, data)
	n := len(data)
	if err != nil {
		n = 0
	}
	s.writes.add(n)
	s.log.add(spanLTSWrite, uint64(offset), t0, now())
	return err
}

// appendSpanDrainer copies the program's sampled append spans out of the
// tracer's 512-span ring often enough that none are overwritten unseen, and
// de-duplicates them by Seq.
type appendSpanDrainer struct {
	lastSeq int64
	spans   []obs.AppendSpan // owned by the drain goroutine until close
	stop    chan struct{}
	done    chan struct{}
}

func startAppendSpans(every int) *appendSpanDrainer {
	obs.AppendTraces().SetSampleEvery(every)
	d := &appendSpanDrainer{stop: make(chan struct{}), done: make(chan struct{})}
	for _, sp := range obs.AppendTraces().Snapshot() {
		if sp.Seq > d.lastSeq {
			d.lastSeq = sp.Seq
		}
	}
	go func() {
		defer close(d.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				d.drain()
				return
			case <-t.C:
				d.drain()
			}
		}
	}()
	return d
}

func (d *appendSpanDrainer) drain() {
	for _, sp := range obs.AppendTraces().Snapshot() {
		if sp.Seq > d.lastSeq {
			d.lastSeq = sp.Seq
			d.spans = append(d.spans, sp)
		}
	}
}

// close stops sampling and collects the last spans.
func (d *appendSpanDrainer) close() {
	obs.AppendTraces().SetSampleEvery(0)
	close(d.stop)
	<-d.done
}

// stages returns the stage durations of the sampled appends that started
// within the intervals: op queue wait, WAL write and quorum ack, apply,
// reply. Call after close.
func (d *appendSpanDrainer) stages(intervals [][2]int64) (queue, walAck, apply, reply []int64) {
	for _, sp := range d.spans {
		if !within(int64(sp.Start.Sub(clockBase)), intervals) {
			continue
		}
		queue = append(queue, int64(sp.Enqueue))
		walAck = append(walAck, int64(sp.WALAck-sp.Enqueue))
		apply = append(apply, int64(sp.Apply-sp.WALAck))
		reply = append(reply, int64(sp.Reply-sp.Apply))
	}
	return
}
