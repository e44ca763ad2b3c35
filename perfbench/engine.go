package main

import (
	"encoding/json"
	"fmt"
	"time"

	"rwsfs/internal/harness"
	"rwsfs/internal/rws"
	"rwsfs/internal/serve"
)

// engineStats accumulates what the benchmark learns from its own direct
// calls into harness and rws: Maker and RunLean times (per sim-grid half)
// and the simulated counters summed over a fixed, seed-determined set of
// runs, so that the counts repeat exactly for a seed.
type engineStats struct {
	make       []time.Duration
	run        map[string][]time.Duration // by half
	runNS      map[string]int64
	accesses   map[string]int64
	counts     simCounts
	countedRun int
}

func newEngineStats() *engineStats {
	return &engineStats{run: map[string][]time.Duration{}, runNS: map[string]int64{}, accesses: map[string]int64{}}
}

// simCounts sums rws.Result counters over a set of runs.
type simCounts struct {
	Spawns, Steals, FailedSteals                       int64
	Accesses, CacheMisses, BlockMisses, BlockTransfers int64
	BlockWaitTicks                                     int64
}

func (c *simCounts) add(r rws.Result) {
	c.Spawns += r.Spawns
	c.Steals += r.Steals
	c.FailedSteals += r.FailedSteals
	c.Accesses += r.Totals.AccessesTimed
	c.CacheMisses += r.Totals.CacheMisses
	c.BlockMisses += r.Totals.BlockMisses
	c.BlockTransfers += r.BlockTransfersTotal
	c.BlockWaitTicks += int64(r.Totals.BlockWait)
}

// timedRun performs one Maker + RunLean on the pool, records both calls as
// spans under parent, and adds their times to es (when es is non-nil).
func timedRun(pool *harness.Runner, mk harness.Maker, cfg rws.Config, half string,
	es *engineStats, spans *spanLog, op, parent int64) rws.Result {
	t0 := time.Now()
	e, root := mk(pool, cfg)
	t1 := time.Now()
	res := e.RunLean(root)
	t2 := time.Now()
	pool.Recycle(e)
	spans.add("harness.make", op, parent, t0, t1)
	spans.add("rws.run."+half, op, parent, t1, t2)
	if es != nil {
		es.make = append(es.make, t1.Sub(t0))
		es.run[half] = append(es.run[half], t2.Sub(t1))
		es.runNS[half] += t2.Sub(t1).Nanoseconds()
		es.accesses[half] += res.Totals.AccessesTimed
	}
	return res
}

// checkInvariants applies the engine's accounting identities to a result:
// every spawn is consumed exactly once, and each successful steal moves
// exactly one task to a thief.
func checkInvariants(r rws.Result) error {
	if r.TasksStolen != r.Steals {
		return fmt.Errorf("TasksStolen %d != Steals %d", r.TasksStolen, r.Steals)
	}
	if r.Spawns != r.Steals+r.InlinePops+r.IdlePops {
		return fmt.Errorf("spawns %d != steals %d + inline pops %d + idle pops %d",
			r.Spawns, r.Steals, r.InlinePops, r.IdlePops)
	}
	return nil
}

// summarize condenses a result into the service's documented wire row.
func summarize(seed int64, r rws.Result) serve.RunSummary {
	return serve.RunSummary{
		Seed:                 seed,
		Makespan:             int64(r.Makespan),
		WorkTicks:            int64(r.Totals.WorkTicks),
		Steals:               r.Steals,
		FailedSteals:         r.FailedSteals,
		Spawns:               r.Spawns,
		Usurpations:          r.Usurpations,
		CacheMisses:          r.Totals.CacheMisses,
		BlockMisses:          r.Totals.BlockMisses,
		BlockWaitTicks:       int64(r.Totals.BlockWait),
		BlockTransfers:       r.BlockTransfersTotal,
		MaxTransfersPerBlock: r.BlockTransfersMax,
		RemoteFetches:        r.Totals.RemoteFetches,
		RemoteSteals:         r.Totals.RemoteSteals,
		StealLatency:         int64(r.Totals.StealLatency),
	}
}

// directRuns computes a fully spelled-out request through harness and rws
// directly, returning the exact bytes the service should serve as "runs".
func directRuns(pool *harness.Runner, r serve.Request, es *engineStats) ([]byte, error) {
	mk, ok := harness.WorkloadMaker(r.Alg, r.N)
	if !ok {
		return nil, fmt.Errorf("unknown alg %q", r.Alg)
	}
	cfg, err := requestConfig(r)
	if err != nil {
		return nil, err
	}
	runs := make([]serve.RunSummary, 0, r.Runs)
	for i := 0; i < r.Runs; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		res := timedRun(pool, mk, c, halfOf(r.Alg), es, nil, 0, 0)
		if err := checkInvariants(res); err != nil {
			return nil, fmt.Errorf("%s n=%d p=%d: %v", r.Alg, r.N, r.P, err)
		}
		es.counts.add(res)
		es.countedRun++
		runs = append(runs, summarize(c.Seed, res))
	}
	return json.Marshal(runs)
}
