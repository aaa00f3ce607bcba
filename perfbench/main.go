// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It boots an in-process deployment (1 store × 4 containers, 3 bookies,
// 3/3/2 replication, lts.FS, no simulated devices), drives one workload
// against it through the public pkg/pravega API, checks every delivered
// event, and prints every metric with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// adds timing decorators and span sampling and reports per-layer metrics,
// writing the spans to <workdir>/spans-<workload>.csv.
//
// Usage:
//
//	go run . -workload tail-inproc -seed 1 -seconds 20 -trace 0
//
// README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	// One P: on a 2-vCPU virtual machine whose neighbours steal CPU time,
	// two Ps let the load generator and the system interleave differently
	// from run to run, and the spread between runs grew 2-4 times.
	runtime.GOMAXPROCS(1)
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured run length")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for LTS files and spans")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be > 0 and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	// A run that hangs is a failure, not a result.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s, aborting")
		os.Exit(3)
	})
	defer watchdog.Stop()

	traced := *trace == 1
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	r, err := execute(w, *seed, *seconds, *workdir, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return report(r, traced)
}

// execute sets the workload up w.setups times and runs the measured phases
// on the last deployment; setup_s is the median set-up time. The last
// deployment's prefill happens between its timed phases (see measure) and
// counts as its set-up time.
func execute(w workload, seed uint64, seconds float64, workdir string, traced bool) (*result, error) {
	var log *spanLog
	if traced {
		log = &spanLog{}
	}
	r := &result{}
	for i := 0; i < w.setups; i++ {
		t0 := time.Now()
		e, err := setup(w, seed, workdir, log)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i < w.setups-1 {
			err = e.prefill()
			r.setupS = append(r.setupS, time.Since(t0).Seconds())
			e.close()
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			continue
		}
		boot := time.Since(t0)
		prefill, err := e.measure(seconds, traced, r)
		e.close()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, (boot + prefill).Seconds())
	}
	if traced {
		path := filepath.Join(workdir, "spans-"+w.name+".csv")
		if err := log.write(path, r.appendSpans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	return r, nil
}

// endToEnd returns the end-to-end metrics in BENCHMARK.json order.
func endToEnd(r *result) []metric {
	return []metric{
		{"setup_s", median(r.setupS), "s"},
		{"append_p50_ms", trimmedMean(r.appendP50), "ms"},
		{"append_p99_ms", trimmedMean(r.appendP99), "ms"},
		{"e2e_p50_ms", trimmedMean(r.e2eP50), "ms"},
		{"e2e_p99_ms", trimmedMean(r.e2eP99), "ms"},
		{"peak_eps", trimmedMean(r.peakRates), "events/s"},
		{"catchup_mbps", trimmedMean(r.catchupMBps), "MB/s"},
		{"cpu_us_per_event", float64(r.cpu.Microseconds()) / float64(max(r.events, 1)), "us"},
		{"heap_peak_mb", float64(quantile(r.heap, 0.95)) / (1 << 20), "MB"},
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints every metric by name, the oracle's counts and the JSON
// result line, and returns the exit code: non-zero when anything delivered
// was wrong or the run did not complete.
func report(r *result, traced bool) int {
	e2e := endToEnd(r)
	for _, m := range e2e {
		fmt.Printf("metric %s %g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("samples latency=%d windows=%d peak_rounds=%d drains=%d setups=%d\n",
		r.latencySamples, len(r.appendP50), len(r.peakRates), len(r.catchupMBps), len(r.setupS))
	for _, m := range r.layers {
		fmt.Printf("layer %s %g %s\n", m.name, m.value, m.unit)
	}
	failed := r.failed()
	fmt.Printf("oracle attempted=%d write_errors=%d lost=%d duplicate=%d reordered=%d corrupt=%d read_errors=%d failed_frac=%g\n",
		r.attempted, r.writeErrs, r.v.Lost, r.v.Duplicate, r.v.Reordered, r.v.Corrupt, r.readErrs,
		float64(failed)/float64(max(r.attempted, 1)))
	correct := failed == 0 && r.firstErr == nil
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", r.firstErr)
	}
	out := jsonResult{Correct: correct, Attempted: max(r.attempted, 1), Failed: failed, Metrics: map[string]jsonMetric{}}
	shown := e2e
	if traced {
		shown = r.layers
	}
	for _, m := range shown {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !correct {
		return 1
	}
	return 0
}
