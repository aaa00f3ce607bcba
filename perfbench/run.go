package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/obs"
)

// result is everything one run measured.
type result struct {
	setupS []float64

	// Open-loop latency quantiles in ms, one per latencyWindow.
	appendP50, appendP99, e2eP50, e2eP99 []float64
	latencySamples                       int

	peakRates   []float64 // events/s, one per closed-loop round
	catchupMBps []float64 // one per drain

	cpu    time.Duration // process CPU over the measured phases
	events int64         // events acked + events delivered in them
	heap   []int64       // HeapInuse samples in them

	attempted int64
	writeErrs int64
	readErrs  int64
	v         Violations
	firstErr  error

	layers      []metric         // traced runs
	appendSpans []obs.AppendSpan // traced runs
}

// failed is the number of operations that went wrong: write errors plus
// lost, duplicated, reordered or corrupted events.
func (r *result) failed() int64 { return r.writeErrs + r.v.Total() }

func (r *result) noteErr(err error) {
	if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
}

// drainOutcome is one reader group reading a finished stream from its head.
type drainOutcome struct {
	events, bytes int64
	dur           time.Duration
	v             Violations
	readErrs      int64
	err           error
}

// drain reads st from its head with a new reader group until every event
// the lanes wrote has been delivered, checking each one.
func (e *env) drain(group string, st *stream, lanes []*writerLane, timeout time.Duration) drainOutcome {
	o := NewOracle(e.seed)
	for _, l := range lanes {
		o.AddLane(l.id, l.size, st.keyNums)
		l.expectIn(o)
	}
	t0 := time.Now()
	rs, err := startReaders(e.sys, group, scope, st.name, readers, o, e.log)
	if err != nil {
		return drainOutcome{err: err}
	}
	complete := rs.waitComplete(timeout)
	out := drainOutcome{dur: time.Since(t0), v: o.Verdict(), readErrs: rs.readErrs, err: rs.firstErr}
	out.events, out.bytes = o.Delivered()
	if !complete && out.err == nil {
		out.err = fmt.Errorf("%s: %d events missing after %v", group, o.want.Load()-out.events, timeout)
	}
	return out
}

// measure runs the timed phases on a prepared deployment and records what
// they measured in r:
//
//  1. open loop: the tail writers send at the workload's mean rate for
//     openShare of the run while the tail readers deliver;
//  2. catch-up (workloads with a backlog): the backlog is prefilled, tiered
//     and evicted, untimed, and fresh reader groups then drain it one after
//     another for drainShare of the run;
//  3. closed loop: the same writers send a fixed number of events with a
//     fixed outstanding window each, in rounds, each round to a stream of
//     its own;
//  4. a new reader group drains each round's stream from its head.
//
// The open loop runs before the prefill so that its latency is measured on
// a deployment not yet holding the backlog's garbage and write-ahead log.
// It returns the time spent prefilling, which is set-up time.
func (e *env) measure(seconds float64, traced bool, r *result) (time.Duration, error) {
	// Start from a collected heap, so set-up garbage is not charged to
	// whichever phase the collector happens to run in.
	runtime.GC()
	var spans *appendSpanDrainer
	if traced {
		spans = startAppendSpans(16)
	}
	m := newMeter(e)
	m.start()

	// Phase 1: open loop.
	olDur := int64(seconds * e.w.openShare * float64(time.Second))
	start := now() + int64(20*time.Millisecond)
	end := start + olDur
	measureFrom := start + olDur/10 // warm-up
	e.tailReaders.measureFrom.Store(measureFrom)
	var senders sync.WaitGroup
	for _, l := range e.tailLanes {
		l.measureFrom = measureFrom
		senders.Add(1)
		go func(l *writerLane) {
			defer senders.Done()
			l.openLoop(start, end, e.w.tailRate/float64(len(e.tailLanes)))
		}(l)
	}
	senders.Wait()
	var appendLat []sample
	var late []int64
	for _, l := range e.tailLanes {
		r.noteErr(l.finish())
		l.expectIn(e.tailOracle)
		appendLat = append(appendLat, l.latency...)
		late = append(late, l.late...)
	}
	if !e.tailReaders.waitComplete(30 * time.Second) {
		r.noteErr(fmt.Errorf("tail readers: %d of %d events delivered", e.tailOracle.got.Load(), e.tailOracle.want.Load()))
	}
	openLoop := [2]int64{m.from, now()}
	r.appendP50 = append(r.appendP50, windowQuantiles(appendLat, measureFrom, 0.5)...)
	r.appendP99 = append(r.appendP99, windowQuantiles(appendLat, measureFrom, 0.99)...)
	r.e2eP50 = append(r.e2eP50, windowQuantiles(e.tailReaders.e2e, measureFrom, 0.5)...)
	r.e2eP99 = append(r.e2eP99, windowQuantiles(e.tailReaders.e2e, measureFrom, 0.99)...)
	r.latencySamples += len(appendLat)

	// Phase 2: catch-up drains of the backlog.
	m.stop()
	p0 := time.Now()
	if err := e.prefill(); err != nil {
		return 0, err
	}
	prefill := time.Since(p0)
	runtime.GC()
	m.start()
	var drains []drainOutcome
	if e.backlog != nil {
		dEnd := now() + int64(seconds*e.w.drainShare*float64(time.Second))
		for i := 0; len(drains) < 2 || now() < dEnd; i++ {
			d := e.drain(fmt.Sprintf("backlog-rg%d", i), e.backlog, e.backlogLanes, time.Minute)
			drains = append(drains, d)
			if d.err != nil {
				break
			}
		}
	}

	// Phase 3: closed loop, in rounds, after collecting the garbage of the
	// phases before (the collection is not measured).
	m.stop()
	runtime.GC()
	m.start()
	for _, lanes := range e.peakLanes {
		p0 := time.Now()
		runClosedLoop(lanes, int(seconds*peakEventsPerSecond))
		r.peakRates = append(r.peakRates, float64(ackedSum(lanes))/time.Since(p0).Seconds())
		r.noteErr(finishAll(lanes))
	}

	// Phase 4: drain the closed-loop streams.
	var peakDrains []drainOutcome
	for i, st := range e.peaks {
		peakDrains = append(peakDrains, e.drain(fmt.Sprintf("peak-rg%d", i), st, e.peakLanes[i], time.Minute))
	}
	m.stop()
	if spans != nil {
		spans.close()
		r.appendSpans = append(r.appendSpans, spans.spans...)
	}

	// Tally.
	var ackedEvents, ackedBytes int64
	lanes := append([]*writerLane(nil), e.tailLanes...)
	for _, round := range e.peakLanes {
		lanes = append(lanes, round...)
	}
	for _, l := range lanes {
		ackedEvents += l.acked.Load()
		ackedBytes += l.ackBytes.Load()
		r.writeErrs += int64(len(l.failed))
		r.attempted += int64(l.seq)
	}
	deliveredEvents, deliveredBytes := e.tailOracle.Delivered()
	r.attempted += e.tailOracle.want.Load()
	r.v.Add(e.tailOracle.Verdict())
	r.readErrs += e.tailReaders.readErrs
	r.noteErr(e.tailReaders.firstErr)
	for _, d := range append(drains, peakDrains...) {
		deliveredEvents += d.events
		deliveredBytes += d.bytes
		r.attempted += d.events + d.v.Lost
		r.v.Add(d.v)
		r.readErrs += d.readErrs
		r.noteErr(d.err)
	}
	// The catch-up figure is the backlog drains where there is a backlog,
	// else the closed-loop streams' drains.
	if e.backlog == nil {
		drains = peakDrains
	}
	for _, d := range drains {
		if d.dur > 0 {
			r.catchupMBps = append(r.catchupMBps, float64(d.bytes)/1e6/d.dur.Seconds())
		}
	}
	r.cpu += m.rt.cpu
	r.events += ackedEvents + deliveredEvents
	r.heap = append(r.heap, m.heap...)

	if traced {
		r.layers = e.layerMetrics(layerInput{
			m:            m,
			openLoop:     openLoop,
			spans:        spans,
			ackedEvents:  ackedEvents,
			ackedBytes:   ackedBytes,
			deliveredEvt: deliveredEvents,
			deliveredB:   deliveredBytes,
			late:         late,
		})
	}
	return prefill, nil
}

func ackedSum(lanes []*writerLane) int64 {
	var n int64
	for _, l := range lanes {
		n += l.acked.Load()
	}
	return n
}
