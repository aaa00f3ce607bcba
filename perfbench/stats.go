package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty). It
// sorts xs in place.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// sample is one latency observation and the intended send time of its
// event.
type sample struct{ due, lat int64 }

// latencyWindow is the width of the windows latency quantiles are taken in.
const latencyWindow = int64(500 * time.Millisecond)

// windowQuantiles splits samples into consecutive windows of intended send
// time starting at from and returns the q-quantile, in milliseconds, of
// each window holding at least half as many samples as the fullest one.
// Metrics average these, so one stall moves one window's figure, not the
// run's, and a latency that drifts during a phase is averaged over all of
// it.
func windowQuantiles(s []sample, from int64, q float64) []float64 {
	var windows [][]int64
	for _, x := range s {
		i := int((x.due - from) / latencyWindow)
		if i < 0 {
			continue
		}
		for len(windows) <= i {
			windows = append(windows, nil)
		}
		windows[i] = append(windows[i], x.lat)
	}
	fullest := 0
	for _, w := range windows {
		fullest = max(fullest, len(w))
	}
	var qs []float64
	for _, w := range windows {
		if len(w) > 0 && 2*len(w) >= fullest {
			qs = append(qs, ms(quantile(w, q)))
		}
	}
	return qs
}

// trimmedMean averages xs after dropping the lowest and highest tenth (at
// least one value each way once there are five or more).
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	if k == 0 && len(s) >= 5 {
		k = 1
	}
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler samples the in-use heap (the runtime's HeapInuse: object
// spans including their free slots) at a fixed interval.
type heapSampler struct {
	samples []int64 // owned by the sampling goroutine until close
	stop    chan struct{}
	done    chan struct{}
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	ms := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(ms)
		h.samples = append(h.samples, int64(ms[0].Value.Uint64()+ms[1].Value.Uint64()))
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// close stops sampling and returns the samples in bytes.
func (h *heapSampler) close() []int64 {
	close(h.stop)
	<-h.done
	return h.samples
}

// runtimeStats is a point-in-time reading of the Go runtime's counters.
type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
	cpu        time.Duration
	wall       int64
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.pauseNs - b.pauseNs, a.cpu - b.cpu, a.wall - b.wall}
}

func (a runtimeStats) add(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.pauseNs + b.pauseNs, a.cpu + b.cpu, a.wall + b.wall}
}

func readRuntime() runtimeStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		allocBytes: samples[0].Value.Uint64(),
		gcCycles:   samples[1].Value.Uint64(),
		pauseNs:    ms.PauseTotalNs,
		cpu:        cpuTime(),
		wall:       now(),
	}
}

// meter totals process-wide readings over the measured phases only: obs
// counters, runtime statistics, the decorators' I/O and heap samples. Work
// done between stop and the next start (set-up, forced collections) is left
// out.
type meter struct {
	e         *env
	counters  map[string]int64 // summed deltas
	rt        runtimeStats     // summed deltas
	io        [4]int64         // summed deltas of env.ioSnapshot
	heap      []int64
	intervals [][2]int64 // measured intervals, clock nanoseconds

	c0   map[string]int64
	rt0  runtimeStats
	io0  [4]int64
	hs   *heapSampler
	from int64
}

func newMeter(e *env) *meter { return &meter{e: e, counters: map[string]int64{}} }

func (m *meter) start() {
	m.c0 = readCounters()
	if m.e.log != nil {
		m.io0 = m.e.ioSnapshot()
	}
	m.hs = startHeapSampler(10 * time.Millisecond)
	m.rt0 = readRuntime()
	m.from = m.rt0.wall
}

func (m *meter) stop() {
	rt1 := readRuntime()
	m.heap = append(m.heap, m.hs.close()...)
	for k, v := range readCounters() {
		m.counters[k] += v - m.c0[k]
	}
	if m.e.log != nil {
		io1 := m.e.ioSnapshot()
		for i := range m.io {
			m.io[i] += io1[i] - m.io0[i]
		}
	}
	m.rt = m.rt.add(rt1.sub(m.rt0))
	m.intervals = append(m.intervals, [2]int64{m.from, rt1.wall})
}

// within reports whether t falls in one of the intervals.
func within(t int64, intervals [][2]int64) bool {
	for _, iv := range intervals {
		if t >= iv[0] && t < iv[1] {
			return true
		}
	}
	return false
}
