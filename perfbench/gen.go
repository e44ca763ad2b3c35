package main

import (
	"fmt"
	"math/rand"

	"rwsfs/internal/machine"
	"rwsfs/internal/rws"
	"rwsfs/internal/serve"
	"rwsfs/internal/serve/jobs"
)

// sizes fixes how much work each workload generates. The benchmark uses
// fullSizes; the package tests use tinySizes.
type sizes struct {
	// sim-grid: problem sizes per algorithm and processor counts of each
	// half, and how many cells of each half are re-run with the engine's
	// fast path off.
	schedNs    map[string][]int
	coherNs    map[string][]int
	gridPs     []int
	lockSample int

	// simulate-zipf: distinct requests, how many of the most popular ones
	// warm the LRU during setup, and how many are recomputed directly.
	zipfUniverse int
	zipfWarm     int
	zipfSample   int

	// batch-journal and the journal probe: jobs per batch-journal cycle,
	// probe cycles per run, jobs per probe cycle (each job has one row per
	// batch algorithm), and how many rows are recomputed directly per run.
	batchJobs   int
	probeCycles int
	probeJobs   int
	batchSample int
	// restarts and exports are how many times each journal lifecycle
	// restarts on its directory and exports the corpus.
	restarts, exports int

	// setups is how many times a run sets its workload up; setup_s is the
	// median.
	setups int
	// hitCalls is how many sequential cached-hit calls the hit probe makes.
	hitCalls int
}

func fullSizes() sizes {
	return sizes{
		schedNs: map[string][]int{
			"prefix": {128, 512}, "fft": {128, 512}, "listrank": {128, 512},
			"sort-merge": {128, 512}, "sort-col": {128, 512}, "conncomp": {128, 512},
		},
		coherNs: map[string][]int{
			"matmul-ip": {64, 128}, "matmul-la": {64, 128}, "matmul-log": {64, 128},
			"transpose": {128, 256}, "rm2bi": {128, 256}, "bi2rm": {64, 128},
		},
		gridPs:       []int{4, 16},
		lockSample:   3,
		zipfUniverse: 4096,
		zipfWarm:     1024,
		zipfSample:   48,
		batchJobs:    32,
		probeCycles:  5,
		probeJobs:    16,
		batchSample:  16,
		restarts:     12,
		exports:      16,
		setups:       7,
		hitCalls:     2000,
	}
}

// tinySizes keeps every workload small enough for a unit test.
func tinySizes() sizes {
	return sizes{
		schedNs: map[string][]int{
			"prefix": {32}, "fft": {32}, "listrank": {32},
			"sort-merge": {32}, "sort-col": {32}, "conncomp": {32},
		},
		coherNs: map[string][]int{
			"matmul-ip": {16}, "matmul-la": {16}, "matmul-log": {16},
			"transpose": {16}, "rm2bi": {16}, "bi2rm": {16},
		},
		gridPs:       []int{2},
		lockSample:   1,
		zipfUniverse: 1100, // more than the LRU holds, so the traced half still misses
		zipfWarm:     16,
		zipfSample:   4,
		batchJobs:    2,
		probeCycles:  2,
		probeJobs:    2,
		batchSample:  2,
		restarts:     1,
		exports:      1,
		setups:       1,
		hitCalls:     20,
	}
}

// The two halves of sim-grid: scheduler-bound kernels and coherence-bound
// kernels.
const (
	halfSched     = "sched"
	halfCoherence = "coherence"
)

var (
	schedAlgs     = []string{"prefix", "fft", "listrank", "sort-merge", "sort-col", "conncomp"}
	coherenceAlgs = []string{"matmul-ip", "matmul-la", "matmul-log", "transpose", "rm2bi", "bi2rm"}
)

// halfOf names the sim-grid half an algorithm belongs to.
func halfOf(alg string) string {
	for _, a := range coherenceAlgs {
		if a == alg {
			return halfCoherence
		}
	}
	return halfSched
}

// sampleByHalf returns up to n seed-chosen indexes into algs, half of them
// naming algorithms of each sim-grid half.
func sampleByHalf(rng *rand.Rand, algs []string, n int) []int {
	var out []int
	perHalf := map[string]int{}
	for _, k := range rng.Perm(len(algs)) {
		if h := halfOf(algs[k]); perHalf[h] < n/2 {
			perHalf[h]++
			out = append(out, k)
		}
	}
	return out
}

func policyNames() []string {
	var out []string
	for _, p := range rws.Policies() {
		out = append(out, p.Name())
	}
	return out
}

// gridCell is one sim-grid run.
type gridCell struct {
	Half    string `json:"half"`
	Alg     string `json:"alg"`
	N       int    `json:"n"`
	P       int    `json:"p"`
	Policy  string `json:"policy"`
	Sockets int    `json:"sockets"`
	Seed    int64  `json:"seed"`
}

// config is the engine configuration of the cell: the paper's default
// machine, with a 3x cross-socket transfer cost when socketed.
func (c gridCell) config() rws.Config {
	cfg := rws.DefaultConfig(c.P)
	cfg.Seed = c.Seed
	cfg.Policy, _ = rws.PolicyByName(c.Policy)
	if c.Sockets > 1 {
		cfg.Machine.Topology = machine.Topology{Sockets: c.Sockets, CostMissRemote: 3 * cfg.Machine.CostMiss}
	}
	return cfg
}

// genGrid builds one half of the sim-grid from the seed. Every seed gets
// the same (alg, n, p) cells, so the work per pass barely varies with the
// seed; the seed picks each cell's policy (balanced over the policies),
// socket count and scheduling seed, and the cell order.
func genGrid(seed int64, half string, sz sizes) []gridCell {
	rng := rand.New(rand.NewSource(seed ^ int64(len(half))<<32))
	algs, ns := schedAlgs, sz.schedNs
	if half == halfCoherence {
		algs, ns = coherenceAlgs, sz.coherNs
	}
	var cells []gridCell
	for _, alg := range algs {
		for _, n := range ns[alg] {
			for _, p := range sz.gridPs {
				sockets := []int{1, 2, 4}[rng.Intn(3)]
				if sockets > p {
					sockets = p
				}
				cells = append(cells, gridCell{Half: half, Alg: alg, N: n, P: p,
					Sockets: sockets, Seed: 1 + rng.Int63n(1<<31)})
			}
		}
	}
	pols := policyNames()
	for i, k := range rng.Perm(len(cells)) {
		cells[k].Policy = pols[i%len(pols)]
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// Light algorithms and sizes for the service workloads: every request runs
// in about a millisecond or less, so the serving layers, not the engine,
// decide how the request mix behaves.
var (
	lightAlgs = []string{"prefix", "fft", "listrank", "sort-merge", "sort-col", "conncomp",
		"transpose", "rm2bi", "bi2rm", "matmul-ip"}
	lightNs = map[string][]int{
		"prefix": {64, 128, 256}, "fft": {64, 128, 256}, "listrank": {64, 128, 256},
		"sort-merge": {64, 128, 256}, "sort-col": {64, 128, 256}, "conncomp": {64, 128},
		"transpose": {64}, "rm2bi": {64}, "bi2rm": {64}, "matmul-ip": {64},
	}
)

// fullRequest returns a request with every field that the service would
// default spelled out, so that the benchmark can compute Request.Key
// itself and compare it with the key the service answers with.
func fullRequest(alg string, n, p int, seed int64, policy string, sockets int) serve.Request {
	budget := int64(-1)
	return serve.Request{
		Alg: alg, N: n, P: p, Seed: seed, Runs: 1,
		BlockWords: 16, CacheWords: 4096, CostMiss: 10, CostSteal: 20, CostFailSteal: 10,
		Policy: policy, Sockets: sockets, Budget: &budget,
	}
}

// genUniverse builds the simulate-zipf key universe, most popular first.
// Every seed gets the same mix of (alg, n, p) cells, in a seed-shuffled
// popularity order, with seeded scheduling seeds, policies and sockets.
func genUniverse(seed int64, sz sizes) []serve.Request {
	rng := rand.New(rand.NewSource(seed))
	type cell struct {
		alg  string
		n, p int
	}
	var cells []cell
	for _, alg := range lightAlgs {
		for _, n := range lightNs[alg] {
			for _, p := range []int{2, 4, 8} {
				cells = append(cells, cell{alg, n, p})
			}
		}
	}
	pols := policyNames()
	seen := make(map[string]bool, sz.zipfUniverse)
	out := make([]serve.Request, 0, sz.zipfUniverse)
	for i := 0; len(out) < sz.zipfUniverse; i++ {
		c := cells[i%len(cells)]
		r := fullRequest(c.alg, c.n, c.p, 1+rng.Int63n(1<<31), pols[rng.Intn(len(pols))], 1+rng.Intn(2))
		if k := r.Key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// batchAlgs are the light algorithms of the batch jobs.
var batchAlgs = []string{"prefix", "fft", "listrank", "sort-merge", "sort-col", "conncomp", "transpose", "rm2bi"}

// batchRuns is the seed-sweep width of every batch row: each row runs
// this many consecutive seeds, so that a row's simulations, not only its
// journal fsync, decide how long it takes.
const batchRuns = 4

// genBatchSpecs builds the jobs of one journal cycle. Every job runs each
// light algorithm once at n 128 and p 4, under its own seed, one policy
// (balanced over the jobs) and one socket count, so all jobs cost about
// the same and a batch's latency does not depend on which jobs share the
// server with it.
func genBatchSpecs(seed int64, jobsN int) []jobs.Spec {
	rng := rand.New(rand.NewSource(seed))
	pols := policyNames()
	polOrder := rng.Perm(jobsN)
	next := 1 + rng.Int63n(1<<30)
	specs := make([]jobs.Spec, jobsN)
	for j := range specs {
		algs := append([]string(nil), batchAlgs...)
		rng.Shuffle(len(algs), func(a, b int) { algs[a], algs[b] = algs[b], algs[a] })
		specs[j] = jobs.Spec{Algs: algs, Ns: []int{128}, Ps: []int{4}, Seeds: []int64{next},
			Policies: []string{pols[polOrder[j]%len(pols)]}, Sockets: []int{1 + j%2}, Runs: batchRuns}
		next += batchRuns
	}
	return specs
}

// specRows expands a spec into its rows' fully spelled-out requests, in
// the service's documented expansion order.
func specRows(spec jobs.Spec) []serve.Request {
	s := spec
	s.Normalize()
	var out []serve.Request
	for _, c := range s.Expand() {
		r := fullRequest(c.Alg, c.N, c.P, c.Seed, c.Policy, c.Sockets)
		r.Runs = s.Runs
		out = append(out, r)
	}
	return out
}

// requestConfig interprets a fully spelled-out request as an engine
// configuration, from the documented meaning of its fields. It is the
// benchmark's own oracle for what the service should have computed.
func requestConfig(r serve.Request) (rws.Config, error) {
	pol, ok := rws.PolicyByName(r.Policy)
	if !ok {
		return rws.Config{}, fmt.Errorf("unknown policy %q", r.Policy)
	}
	cfg := rws.DefaultConfig(r.P)
	cfg.Machine.B = r.BlockWords
	cfg.Machine.M = r.CacheWords
	cfg.Machine.CostMiss = machine.Tick(r.CostMiss)
	cfg.Machine.CostSteal = machine.Tick(r.CostSteal)
	cfg.Machine.CostFailSteal = machine.Tick(r.CostFailSteal)
	cfg.Seed = r.Seed
	cfg.StealBudget = *r.Budget
	cfg.Policy = pol
	if r.Sockets > 1 {
		cfg.Machine.Topology = machine.Topology{Sockets: r.Sockets, CostMissRemote: machine.Tick(r.CostMissRemote)}
	}
	cfg.Machine.Topology.CostSteal = machine.Tick(r.StealCost)
	cfg.Machine.Topology.CostStealRemote = machine.Tick(r.StealCostRemote)
	return cfg, nil
}
