package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// shortened returns w scaled down for a test: one set-up and a smaller
// backlog that still exceeds the cache.
func shortened(t *testing.T, name string) workload {
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w.setups = 1
	if w.backlogBytes > 0 {
		w.backlogBytes = 16 << 20
		w.cacheBuffers = 1
	}
	return w
}

func checkRun(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	dir := t.TempDir()
	r, err := execute(w, 7, 1.5, dir, traced)
	if err != nil {
		t.Fatal(err)
	}
	if r.firstErr != nil {
		t.Fatalf("run error: %v", r.firstErr)
	}
	if r.failed() != 0 || r.attempted == 0 {
		t.Fatalf("failed %d of %d: %+v, %d write errors", r.failed(), r.attempted, r.v, r.writeErrs)
	}
	for _, m := range endToEnd(r) {
		if !(m.value > 0) {
			t.Errorf("%s = %v, want > 0", m.name, m.value)
		}
	}
	return r
}

func TestShortRunTailInproc(t *testing.T) { checkRun(t, shortened(t, "tail-inproc"), false) }

func TestShortRunTailWire(t *testing.T) { checkRun(t, shortened(t, "tail-wire"), false) }

func TestShortRunCatchup(t *testing.T) { checkRun(t, shortened(t, "catchup"), false) }

// TestTracedRunReportsLayers checks that a traced run reports every
// per-layer metric BENCHMARK.json names and writes its spans file.
func TestTracedRunReportsLayers(t *testing.T) {
	w := shortened(t, "tail-wire")
	dir := t.TempDir()
	r, err := execute(w, 7, 1.5, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed() != 0 || r.firstErr != nil {
		t.Fatalf("traced run failed: %+v %v", r.v, r.firstErr)
	}
	got := map[string]bool{}
	for _, m := range r.layers {
		got[m.name] = true
	}
	for _, name := range benchmarkNames(t, "per_layer") {
		if !got[name] {
			t.Errorf("per-layer metric %s not reported", name)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, "spans-"+w.name+".csv")); err != nil || fi.Size() == 0 {
		t.Fatalf("spans file: %v", err)
	}
}

// TestEndToEndMatchesBenchmarkJSON keeps the printed metric set and
// BENCHMARK.json in step.
func TestEndToEndMatchesBenchmarkJSON(t *testing.T) {
	want := benchmarkNames(t, "end_to_end")
	got := endToEnd(&result{})
	if len(got) != len(want) {
		t.Fatalf("%d end-to-end metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for i, m := range got {
		if m.name != want[i] {
			t.Errorf("metric %d is %s, BENCHMARK.json says %s", i, m.name, want[i])
		}
	}
}

// benchmarkNames returns the metric names of one list in BENCHMARK.json.
func benchmarkNames(t *testing.T, list string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(doc[list], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	return names
}
