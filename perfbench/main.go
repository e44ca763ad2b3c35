// Command perfbench is the repository benchmark. It drives the simulator
// and the rwsimd serving layer in one process, through their public entry
// points, on one of three workloads generated from a seed:
//
//	sim-grid        harness Makers + rws.Engine.RunLean, no HTTP
//	simulate-zipf   POST /simulate with Zipf key popularity over a warm LRU
//	batch-journal   POST /batch into a journal, then WarmCache restarts,
//	                GET /batch/{id}/grid and GET /corpus
//
// sim-grid and simulate-zipf interleave a small journal probe with their
// measured phase: the batch-journal lifecycle on a few jobs, which gives
// them restart and corpus export times. It checks every output, and prints
// one JSON line with the end-to-end metrics (--trace 0), whose times and
// rates are scaled to a nominal host speed (see hostspeed.go), or the
// per-layer metrics (--trace 1). See README.md for what each metric
// measures. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload sim-grid --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndNames and perLayerNames list every metric the two kinds of run
// print, with units; BENCHMARK.json declares the same names.
var endToEndNames = [][2]string{
	{"setup_s", "s"}, {"runs_per_s", "1/s"}, {"requests_per_s", "1/s"},
	{"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"}, {"rows_per_s", "1/s"},
	{"restart_ms", "ms"}, {"corpus_export_ms", "ms"}, {"success_ratio", "ratio"},
	{"allocs_per_op", "count"}, {"max_rss_mb", "MB"},
}

var perLayerNames = [][2]string{
	{"serve.handler_us.p50", "us"}, {"serve.handler_us.p99", "us"}, {"serve.transport_us.p50", "us"},
	{"serve.hit_us", "us"}, {"serve.hit_allocs", "count"}, {"serve.key_ns", "ns"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.dedup_ratio", "ratio"}, {"serve.simulations", "count"},
	{"serve.queue_wait_us.p50", "us"}, {"serve.queue_wait_us.p99", "us"},
	{"serve.attempt_ms.p50", "ms"}, {"serve.attempt_ms.p99", "ms"},
	{"harness.make_us.p50", "us"}, {"harness.make_us.p99", "us"}, {"harness.make_share", "ratio"},
	{"rws.run_ms.sched", "ms"}, {"rws.run_ms.coherence", "ms"},
	{"rws.ns_per_access.sched", "ns"}, {"rws.ns_per_access.coherence", "ns"},
	{"rws.spawns", "count"}, {"rws.steals", "count"}, {"rws.failed_steals", "count"},
	{"rws.steal_success_ratio", "ratio"}, {"machine.accesses", "count"},
	{"machine.cache_misses", "count"}, {"machine.block_misses", "count"},
	{"machine.block_transfers", "count"}, {"machine.block_wait_ticks", "count"},
	{"jobs.replay_ms", "ms"}, {"jobs.journal_bytes_per_row", "B"},
	{"serve.warm_rows", "count"}, {"serve.warm_skipped_rows", "count"},
	{"serve.corpus_bytes_per_row", "B"}, {"serve.row_fresh_ratio", "ratio"}, {"jobs.rows_per_s", "1/s"},
	{"bench.trace_overhead", "ratio"}, {"host.yardstick_ms", "ms"},
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(*bench) error{
	"sim-grid":      runSimGrid,
	"simulate-zipf": runZipf,
	"batch-journal": runBatchJournal,
}

// bench is one run: its inputs, its failure ledger and what it reports.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	sz       sizes
	workDir  string // journals of this run live here

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failMsgs  []string

	metrics map[string]metric
	notes   []string
	digest  string
	self    []selfTime
	// yard holds the run's yardstick times; see hostspeed.go.
	yard []time.Duration
}

// check counts one attempted operation and, unless err is nil, one failed.
func (b *bench) check(err error) bool {
	b.attempted.Add(1)
	if err == nil {
		return true
	}
	b.failed.Add(1)
	b.failMu.Lock()
	if len(b.failMsgs) < 10 {
		b.failMsgs = append(b.failMsgs, err.Error())
	}
	b.failMu.Unlock()
	return false
}

func (b *bench) set(name string, v float64) {
	for _, list := range [][][2]string{endToEndNames, perLayerNames} {
		for _, nu := range list {
			if nu[0] == name {
				b.metrics[name] = metric{Value: v, Unit: nu[1]}
				return
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// setDigest fingerprints every simulated result the run checked; two
// commits that differ only in speed print the same digest for a seed.
func (b *bench) setDigest(parts ...[]byte) {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	b.digest = hex.EncodeToString(h.Sum(nil))
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "sim-grid, simulate-zipf or batch-journal")
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for journals and span files")
	)
	flag.Parse()
	b, err := newBench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, fullSizes())
	if err == nil {
		err = b.run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b.print(os.Stdout)
}

func newBench(name string, seed int64, seconds time.Duration, trace bool, out string, sz sizes) (*bench, error) {
	if workloads[name] == nil {
		return nil, fmt.Errorf("unknown workload %q (sim-grid, simulate-zipf, batch-journal)", name)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	abs, err := filepath.Abs(out)
	if err != nil {
		return nil, err
	}
	return &bench{workload: name, seed: seed, seconds: seconds, trace: trace, sz: sz,
		workDir: filepath.Join(abs, "work", fmt.Sprintf("%s-seed%d-pid%d", name, seed, os.Getpid())),
		metrics: make(map[string]metric)}, nil
}

// run executes the workload, removes its journals, and checks that every
// metric of the run's kind was produced.
func (b *bench) run() error {
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		return fmt.Errorf("work dir: %w", err)
	}
	b.note("host %s", mustJSON(hostInfo(b.workDir)))
	steal0, total0 := cpuTicks()
	err := workloads[b.workload](b)
	steal1, total1 := cpuTicks()
	b.note("host cpu steal during the run: %.1f%%", 100*float64(steal1-steal0)/float64(max(total1-total0, 1)))
	if rmErr := os.RemoveAll(b.workDir); err == nil && rmErr != nil {
		err = fmt.Errorf("remove work dir: %w", rmErr)
	}
	if err != nil {
		return err
	}
	for _, nu := range b.reported() {
		m, ok := b.metrics[nu[0]]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured", nu[0])
		}
	}
	return nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	return string(b)
}

// reported returns the metrics this kind of run prints.
func (b *bench) reported() [][2]string {
	if b.trace {
		return perLayerNames
	}
	return endToEndNames
}

// print writes the human-readable report and then the result line.
func (b *bench) print(w io.Writer) {
	for _, n := range b.notes {
		fmt.Fprintln(w, n)
	}
	attempted, failed := b.attempted.Load(), b.failed.Load()
	fmt.Fprintf(w, "workload=%s seed=%d trace=%v digest=%s\n", b.workload, b.seed, b.trace, b.digest)
	fmt.Fprintf(w, "attempted=%d failed=%d fail_ratio=%g\n", attempted, failed, float64(failed)/float64(max(attempted, 1)))
	for _, m := range b.failMsgs {
		fmt.Fprintln(w, "failure:", m)
	}
	for _, st := range b.self {
		fmt.Fprintf(w, "span %-22s count=%-7d total_ms=%-12.3f self_ms=%.3f\n", st.Name, st.Count, st.Total, st.Self)
	}
	metrics := make(map[string]metric)
	for _, nu := range b.reported() {
		m := b.metrics[nu[0]]
		metrics[nu[0]] = m
		fmt.Fprintf(w, "metric %-30s %.6g %s\n", nu[0], m.Value, m.Unit)
	}
	res := result{Correct: failed == 0 && attempted > 0, Attempted: max(attempted, 1), Failed: failed, Metrics: metrics}
	fmt.Fprintln(w, mustJSON(res))
}
