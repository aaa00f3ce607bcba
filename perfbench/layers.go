package main

import (
	"runtime"

	"github.com/pravega-go/pravega/internal/obs"
)

// metric is one named, unit-carrying number the benchmark reports.
type metric struct {
	name  string
	value float64
	unit  string
}

// Counters of obs.Default() read at the start and end of the measured
// phases; per-layer metrics use their deltas.
var counterNames = []string{
	"pravega_client_prefetches_total",
	"pravega_wire_requests_total",
	"pravega_wire_read_bytes_total",
	"pravega_wire_client_reconnects_total",
	"pravega_wire_client_wrong_host_retries_total",
	"pravega_wire_client_placement_refreshes_total",
	"pravega_segstore_throttle_engaged_total",
	"pravega_segstore_catchup_reads_total",
	"pravega_wal_appends_total",
	"pravega_blockcache_hits_total",
	"pravega_blockcache_misses_total",
	"pravega_blockcache_evictions_total",
	"pravega_readindex_lookups_total",
	"pravega_readahead_hits_total",
	"pravega_readahead_misses_total",
	"pravega_readahead_hit_bytes_total",
	"pravega_readahead_fetched_bytes_total",
	"pravega_readahead_dropped_total",
}

func readCounters() map[string]int64 {
	out := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		out[n] = obs.Default().Counter(n, "").Value()
	}
	return out
}

// histQ returns quantile q of an obs histogram, in its recorded unit. These
// histograms are process-wide and cumulative, so they cover set-up too.
func histQ(name string, q float64) float64 {
	s := obs.Default().Histogram(name, "").Snapshot()
	switch q {
	case 0.5:
		return s.P50
	case 0.99:
		return s.P99
	}
	panic("histQ: unsupported quantile")
}

// ioSnapshot reads the decorators' totals: bookie adds and their bytes,
// LTS bytes read and written.
func (e *env) ioSnapshot() [4]int64 {
	adds, addBytes := e.bkAdds.get()
	_, rb := e.ltsReads.get()
	_, wb := e.ltsWrite.get()
	return [4]int64{adds, addBytes, rb, wb}
}

type layerInput struct {
	m        *meter
	openLoop [2]int64 // the open loop's interval
	spans    *appendSpanDrainer

	ackedEvents, ackedBytes  int64
	deliveredEvt, deliveredB int64
	late                     []int64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of a traced run. Metrics of a
// layer the workload does not use (the wire on tail-inproc, readahead on
// tail reads) read 0.
func (e *env) layerMetrics(in layerInput) []metric {
	d := func(n string) float64 { return float64(in.m.counters[n]) }
	events := float64(in.ackedEvents + in.deliveredEvt)
	kevents := events / 1000
	mbDelivered := float64(in.deliveredB) / 1e6
	usToMs := func(v float64) float64 { return v / 1000 }
	durMs := func(xs []int64, q float64) float64 { return ms(quantile(xs, q)) }

	olIv := [][2]int64{in.openLoop}
	measured := in.m.intervals
	queue, walAck, apply, reply := in.spans.stages(olIv)
	writeCalls := e.log.durations(spanWriteCall, olIv)
	readCalls := e.log.durations(spanReadCall, measured)
	bkAdds := e.log.durations(spanBookieAdd, measured)
	ltsReads := e.log.durations(spanLTSRead, measured)
	ltsWrites := e.log.durations(spanLTSWrite, measured)
	adds, addBytes := float64(in.m.io[0]), float64(in.m.io[1])
	readBytes, writeBytes := float64(in.m.io[2]), float64(in.m.io[3])

	rt := in.m.rt
	cpu := rt.cpu.Seconds()
	wall := float64(rt.wall) / 1e9

	return []metric{
		{"driver.late_p99_ms", durMs(in.late, 0.99), "ms"},

		{"pravega.write_call_p50_us", float64(quantile(writeCalls, 0.5)) / 1e3, "us"},
		{"pravega.write_rtt_p50_ms", usToMs(histQ("pravega_client_write_rtt_us", 0.5)), "ms"},
		{"pravega.batch_fill_p50_pct", histQ("pravega_client_batch_fill_pct", 0.5), "%"},
		{"pravega.read_call_p50_ms", durMs(readCalls, 0.5), "ms"},
		{"pravega.prefetches_per_mb", ratio(d("pravega_client_prefetches_total"), mbDelivered), "1/MB"},

		{"wire.append_rtt_p50_ms", usToMs(histQ("pravega_wire_client_append_rtt_us", 0.5)), "ms"},
		{"wire.append_rtt_p99_ms", usToMs(histQ("pravega_wire_client_append_rtt_us", 0.99)), "ms"},
		{"wire.acks_per_flush_p50", histQ("pravega_wire_acks_per_flush", 0.5), "count"},
		{"wire.requests_per_kevent", ratio(d("pravega_wire_requests_total"), kevents), "1/kevent"},
		{"wire.read_bytes_per_event", ratio(d("pravega_wire_read_bytes_total"), float64(in.deliveredEvt)), "B/event"},
		{"wire.retries", d("pravega_wire_client_reconnects_total") + d("pravega_wire_client_wrong_host_retries_total") +
			d("pravega_wire_client_placement_refreshes_total"), "count"},

		{"segstore.queue_p50_ms", durMs(queue, 0.5), "ms"},
		{"segstore.wal_p50_ms", durMs(walAck, 0.5), "ms"},
		{"segstore.wal_p99_ms", durMs(walAck, 0.99), "ms"},
		{"segstore.apply_p50_ms", durMs(apply, 0.5), "ms"},
		{"segstore.reply_p50_ms", durMs(reply, 0.5), "ms"},
		{"segstore.frame_ops_p50", histQ("pravega_segstore_frame_ops", 0.5), "count"},
		{"segstore.frame_bytes_p50", histQ("pravega_segstore_frame_bytes", 0.5), "B"},
		{"segstore.throttle_engaged", d("pravega_segstore_throttle_engaged_total"), "count"},
		{"segstore.catchup_reads", d("pravega_segstore_catchup_reads_total"), "count"},
		{"segstore.read_fanout_p50", histQ("pravega_segstore_read_fanout", 0.5), "count"},

		{"wal.append_p50_ms", usToMs(histQ("pravega_wal_append_us", 0.5)), "ms"},
		{"wal.append_p99_ms", usToMs(histQ("pravega_wal_append_us", 0.99)), "ms"},
		{"wal.appends_per_kevent", ratio(d("pravega_wal_appends_total"), float64(in.ackedEvents)/1000), "1/kevent"},

		{"bookkeeper.add_p50_ms", durMs(bkAdds, 0.5), "ms"},
		{"bookkeeper.add_p99_ms", durMs(bkAdds, 0.99), "ms"},
		{"bookkeeper.adds_per_kevent", ratio(adds, float64(in.ackedEvents)/1000), "1/kevent"},
		{"bookkeeper.bytes_per_user_byte", ratio(addBytes, float64(in.ackedBytes)), "ratio"},

		{"blockcache.hit_ratio", ratio(d("pravega_blockcache_hits_total"), d("pravega_blockcache_hits_total")+d("pravega_blockcache_misses_total")), "ratio"},
		{"blockcache.evictions", d("pravega_blockcache_evictions_total"), "count"},

		{"readindex.lookups_per_mb", ratio(d("pravega_readindex_lookups_total"), mbDelivered), "1/MB"},

		{"readahead.hit_ratio", ratio(d("pravega_readahead_hits_total"), d("pravega_readahead_hits_total")+d("pravega_readahead_misses_total")), "ratio"},
		{"readahead.useful_ratio", ratio(d("pravega_readahead_hit_bytes_total"), d("pravega_readahead_fetched_bytes_total")), "ratio"},
		{"readahead.dropped", d("pravega_readahead_dropped_total"), "count"},

		{"lts.read_p50_ms", durMs(ltsReads, 0.5), "ms"},
		{"lts.read_p99_ms", durMs(ltsReads, 0.99), "ms"},
		{"lts.read_bytes_per_user_byte", ratio(readBytes, float64(in.deliveredB)), "ratio"},
		{"lts.write_p50_ms", durMs(ltsWrites, 0.5), "ms"},
		{"lts.write_bytes_per_user_byte", ratio(writeBytes, float64(in.ackedBytes)), "ratio"},
		{"lts.flush_p50_ms", usToMs(histQ("pravega_lts_flush_us", 0.5)), "ms"},

		{"runtime.alloc_bytes_per_event", ratio(float64(rt.allocBytes), events), "B/event"},
		{"runtime.gc_cycles", float64(rt.gcCycles), "count"},
		{"runtime.gc_pause_total_ms", float64(rt.pauseNs) / 1e6, "ms"},
		{"runtime.cpu_busy_share", ratio(cpu, wall*float64(runtime.GOMAXPROCS(0))), "ratio"},
	}
}
