package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"rwsfs/internal/harness"
	"rwsfs/internal/machine"
	"rwsfs/internal/rws"
)

// runKey is the comparable part of a result: enough to tell whether a
// repeated run reproduced the reference bit for bit on every counter.
type runKey struct {
	Makespan                               machine.Tick
	Totals                                 machine.ProcCounters
	Steals, FailedSteals, Spawns           int64
	TasksStolen, Usurpations, Migrated     int64
	InlinePops, IdlePops                   int64
	BlockTransfersTotal, BlockTransfersMax int64
}

func keyOf(r rws.Result) runKey {
	return runKey{r.Makespan, r.Totals, r.Steals, r.FailedSteals, r.Spawns,
		r.TasksStolen, r.Usurpations, r.SpawnsMigrated, r.InlinePops, r.IdlePops,
		r.BlockTransfersTotal, r.BlockTransfersMax}
}

// gridState is a set-up sim-grid: the cells of both halves, one resolved
// Maker per cell, a warmed engine pool, and the reference result of every
// cell.
type gridState struct {
	cells  []gridCell
	halves map[string][]int // cell indexes of each half, in pass order
	makers []harness.Maker
	pool   *harness.Runner
	ref    []rws.Result
}

// setupGrid resolves every cell's Maker (which generates its inputs) and
// runs the whole grid once on a fresh engine pool: that warms the pool and
// records the reference results.
func (b *bench) setupGrid(cells []gridCell) (*gridState, error) {
	st := &gridState{cells: cells, halves: map[string][]int{}, makers: make([]harness.Maker, len(cells)),
		pool: &harness.Runner{}, ref: make([]rws.Result, len(cells))}
	type an struct {
		alg string
		n   int
	}
	byAN := map[an]harness.Maker{}
	for i, c := range cells {
		mk, ok := byAN[an{c.Alg, c.N}]
		if !ok {
			if mk, ok = harness.WorkloadMaker(c.Alg, c.N); !ok {
				return nil, fmt.Errorf("unknown alg %q", c.Alg)
			}
			byAN[an{c.Alg, c.N}] = mk
		}
		st.makers[i] = mk
		st.halves[c.Half] = append(st.halves[c.Half], i)
		st.ref[i] = timedRun(st.pool, mk, c.config(), c.Half, nil, nil, 0, 0)
		b.check(checkInvariants(st.ref[i]))
	}
	return st, nil
}

// gridPhase is what measured stretches of sim-grid saw.
type gridPhase struct {
	runs     int64
	perRound int64
	rounds   []float64 // seconds per round
	elapsed  time.Duration
	lat      []time.Duration
	allocs   uint64
}

func (g *gridPhase) merge(o gridPhase) {
	g.runs += o.runs
	g.perRound = o.perRound
	g.rounds = append(g.rounds, o.rounds...)
	g.elapsed += o.elapsed
	g.lat = append(g.lat, o.lat...)
	g.allocs += o.allocs
}

// runsPerS is a round's runs over the median round time.
func (g *gridPhase) runsPerS() float64 { return float64(g.perRound) / median(g.rounds) }

// schedPasses is how many sched-half passes a round runs per coherence-half
// pass; it gives the two halves about equal host time.
const schedPasses = 4

// measureGrid runs whole rounds of the grid until d has passed, as one
// closed-loop caller: on a 2-vCPU host one caller repeats more steadily
// than two. A round is schedPasses passes over the sched half and one over
// the coherence half, so every round runs the same mix; the rate is a
// round's runs over the median round time. Every run must reproduce its
// reference result.
func (b *bench) measureGrid(st *gridState, d time.Duration, spans *spanLog, es *engineStats) gridPhase {
	var out gridPhase
	round := []string{halfCoherence}
	for i := 0; i < schedPasses; i++ {
		round = append(round, halfSched)
	}
	m0 := mallocs()
	t0 := time.Now()
	for time.Since(t0) < d {
		out.perRound = 0
		rs := time.Now()
		for _, half := range round {
			for _, i := range st.halves[half] {
				op := spans.newID()
				root := spans.newID()
				r0 := time.Now()
				res := timedRun(st.pool, st.makers[i], st.cells[i].config(), half, es, spans, op, root)
				r1 := time.Now()
				spans.addID(root, "client.run", op, 0, r0, r1)
				out.lat = append(out.lat, r1.Sub(r0))
				if keyOf(res) != keyOf(st.ref[i]) {
					b.check(fmt.Errorf("cell %+v: run differs from its reference", st.cells[i]))
				} else {
					b.check(nil)
				}
				out.perRound++
			}
		}
		out.rounds = append(out.rounds, time.Since(rs).Seconds())
		b.gauge(1)
		out.runs += out.perRound
	}
	out.elapsed = time.Since(t0)
	out.allocs = mallocs() - m0
	return out
}

// checkLockstep re-runs a seed-chosen sample of each half's cells with the
// engine's fast path off; each must equal its reference bit for bit.
func (b *bench) checkLockstep(st *gridState) {
	rng := rand.New(rand.NewSource(b.seed + 77))
	for _, half := range []string{halfSched, halfCoherence} {
		idx := st.halves[half]
		for _, k := range rng.Perm(len(idx))[:min(b.sz.lockSample, len(idx))] {
			i := idx[k]
			cfg := st.cells[i].config()
			cfg.DisableFastPath = true
			res := timedRun(st.pool, st.makers[i], cfg, half, nil, nil, 0, 0)
			if !reflect.DeepEqual(res, st.ref[i]) {
				b.check(fmt.Errorf("cell %+v: lockstep run differs from the fast path", st.cells[i]))
			} else {
				b.check(nil)
			}
		}
	}
}

// runSimGrid is the engine-only workload.
func runSimGrid(b *bench) error {
	cells := append(genGrid(b.seed, halfSched, b.sz), genGrid(b.seed, halfCoherence, b.sz)...)
	var st *gridState
	var setups []time.Duration
	for i := 0; i < b.sz.setups; i++ {
		var prev []rws.Result
		if st != nil {
			prev = st.ref
			st.pool.Close()
			runtime.GC() // the next set-up starts from the same heap each time
		}
		t0 := time.Now()
		var err error
		if st, err = b.setupGrid(cells); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		b.gauge(2)
		// Every fresh pool must reproduce the previous set-up's results.
		for j := range prev {
			if !reflect.DeepEqual(prev[j], st.ref[j]) {
				b.check(fmt.Errorf("cell %+v: set-up %d differs from the one before", cells[j], i))
			}
		}
	}
	defer st.pool.Close()

	es := newEngineStats()
	for _, r := range st.ref {
		es.counts.add(r)
		es.countedRun++
	}
	var probe probeOut
	var err error
	if !b.trace {
		var ph gridPhase
		probe, err = b.interleave(b.seconds, func(d time.Duration) { ph.merge(b.measureGrid(st, d, nil, nil)) }, nil)
		if err != nil {
			return err
		}
		rate := ph.runsPerS()
		b.reportEndToEnd(endToEnd{setup: setups, runsPerS: rate, opsPerS: rate, rowsPerS: rate,
			lat: ph.lat, allocs: ph.allocs, ops: ph.runs, restart: probe.restart, export: probe.export})
	} else {
		plain := b.measureGrid(st, b.seconds/2, nil, nil)
		spans := newSpanLog()
		traced := b.measureGrid(st, b.seconds/2, spans, es)
		if probe, err = b.interleave(0, nil, spans); err != nil {
			return err
		}
		b.reportLayers(probe.sl, es, probe.jl, overhead{plain.elapsed, traced.elapsed, plain.runs, traced.runs})
		b.finishSpans(spans)
	}
	b.noteCounts(es)
	b.checkLockstep(st)
	b.setDigest(append([][]byte{[]byte(mustJSON(cells)), []byte(mustJSON(refSummaries(st)))}, probe.grids...)...)
	return nil
}

// refSummaries renders the reference results as wire rows, for the digest.
func refSummaries(st *gridState) []any {
	out := make([]any, len(st.ref))
	for i, r := range st.ref {
		out[i] = summarize(st.cells[i].Seed, r)
	}
	return out
}
