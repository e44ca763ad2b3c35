package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestInputsFollowSeed checks that every generator gives the same inputs
// for the same seed and different inputs for a different seed.
func TestInputsFollowSeed(t *testing.T) {
	sz := fullSizes()
	gens := map[string]func(seed int64) any{
		"grid-sched":     func(s int64) any { return genGrid(s, halfSched, sz) },
		"grid-coherence": func(s int64) any { return genGrid(s, halfCoherence, sz) },
		"universe":       func(s int64) any { return genUniverse(s, sz) },
		"batch":          func(s int64) any { return genBatchSpecs(s, sz.probeJobs) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// TestGridShapeIsSeedIndependent checks that every seed runs the same
// (alg, n, p) cells, so that the work of a pass barely depends on it.
func TestGridShapeIsSeedIndependent(t *testing.T) {
	shape := func(seed int64) map[[3]any]int {
		m := map[[3]any]int{}
		for _, half := range []string{halfSched, halfCoherence} {
			for _, c := range genGrid(seed, half, fullSizes()) {
				m[[3]any{c.Alg, c.N, c.P}]++
			}
		}
		return m
	}
	if !reflect.DeepEqual(shape(1), shape(2)) {
		t.Fatal("grid shape depends on the seed")
	}
}

// TestUniverseKeysAreDistinct checks the zipf universe has no repeated
// canonical key.
func TestUniverseKeysAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range genUniverse(3, fullSizes()) {
		k := r.Key()
		if seen[k] {
			t.Fatalf("key %s repeats", k)
		}
		seen[k] = true
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// requires every operation to succeed and every metric to be reported.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				b, err := newBench(name, 5, 300*time.Millisecond, trace, t.TempDir(), tinySizes())
				if err != nil {
					t.Fatal(err)
				}
				if err := b.run(); err != nil {
					t.Fatal(err)
				}
				if b.attempted.Load() == 0 || b.failed.Load() != 0 {
					t.Fatalf("attempted %d failed %d: %v", b.attempted.Load(), b.failed.Load(), b.failMsgs)
				}
				if b.digest == "" {
					t.Fatal("no digest")
				}
				if !trace && b.metrics["success_ratio"].Value != 1 {
					t.Fatalf("success_ratio %v", b.metrics["success_ratio"].Value)
				}
			})
		}
	}
}

// TestCorpusTamperIsDetected flips one byte of a row and expects the
// checksum gate to fail.
func TestCorpusTamperIsDetected(t *testing.T) {
	body := []byte(`{"type":"header","node":"n","rows":0}` + "\n" +
		`{"type":"end","rows":0,"checksum":"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}` + "\n")
	if _, err := verifyCorpus(body, nil); err != nil {
		t.Fatalf("empty corpus rejected: %v", err)
	}
	bad := append([]byte(nil), body...)
	bad[len(bad)-4] = '4'
	if _, err := verifyCorpus(bad, nil); err == nil {
		t.Fatal("a wrong checksum was accepted")
	}
}

// TestSelfTime checks self time subtracts the union of child intervals.
func TestSelfTime(t *testing.T) {
	l := newSpanLog()
	at := func(ms int) time.Time { return l.t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := l.newID()
	l.add("child", 1, parent, at(1), at(4))
	l.add("child", 1, parent, at(3), at(6))
	l.addID(parent, "parent", 1, 0, at(0), at(10))
	for _, st := range l.selfTimes() {
		if st.Name == "parent" && st.Self != 5 {
			t.Fatalf("parent self %v ms, want 5", st.Self)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly the
// workloads and metrics, with units, that the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range doc.Workloads {
		names[w.Name] = true
	}
	for w := range workloads {
		if !names[w] {
			t.Errorf("workload %s is not declared", w)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(names), len(workloads))
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		reported [][2]string
	}{{doc.EndToEnd, endToEndNames}, {doc.PerLayer, perLayerNames}} {
		if len(c.declared) != len(c.reported) {
			t.Errorf("declared %d metrics, reported %d", len(c.declared), len(c.reported))
			continue
		}
		for i, m := range c.declared {
			if m.Name != c.reported[i][0] || m.Unit != c.reported[i][1] {
				t.Errorf("metric %d: declared %s %s, reported %s %s", i, m.Name, m.Unit, c.reported[i][0], c.reported[i][1])
			}
		}
	}
}
