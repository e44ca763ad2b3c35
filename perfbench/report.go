package main

import (
	"time"

	"rwsfs/internal/serve"
)

// endToEnd is what a workload's untraced run measured.
type endToEnd struct {
	setup []time.Duration
	// Rates over the measured phase: engine runs, caller operations and
	// result rows completed per second.
	runsPerS, opsPerS, rowsPerS float64
	// lat holds one sample per caller operation. When cycleP50 and
	// cycleP99 are set, they hold the latency quantiles of each cycle of
	// the run, and the reported quantiles are their medians.
	lat                []time.Duration
	cycleP50, cycleP99 []float64
	// allocs and ops give heap allocations per operation.
	allocs uint64
	ops    int64
	// restart and export hold one sample per journal restart and per
	// corpus export.
	restart, export []time.Duration
}

// reportEndToEnd sets the end-to-end metrics. Times and rates are scaled
// to the yardstick's nominal host speed (see hostspeed.go); the report
// lines also print them as measured.
func (b *bench) reportEndToEnd(e endToEnd) {
	sec := func(ds []time.Duration) float64 { return iqm(scaled(ds, 1e9)) }
	lat := ms(e.lat)
	p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
	if len(e.cycleP50) > 0 {
		p50, p99 = median(e.cycleP50), median(e.cycleP99)
		b.note("latency quantiles are medians over %d cycles of %d samples each",
			len(e.cycleP50), len(lat)/len(e.cycleP50))
	}
	f := b.speedFactor()
	b.note("yardstick median %.4g ms over %d samples: speed factor %.4f", median(ms(b.yard)), len(b.yard), f)
	timed := []struct {
		name string
		v    float64
		rate bool
	}{
		{"setup_s", sec(e.setup), false},
		{"runs_per_s", e.runsPerS, true},
		{"requests_per_s", e.opsPerS, true},
		{"latency_p50_ms", p50, false},
		{"latency_p99_ms", p99, false},
		{"rows_per_s", e.rowsPerS, true},
		{"restart_ms", iqm(ms(e.restart)), false},
		{"corpus_export_ms", iqm(ms(e.export)), false},
	}
	for _, t := range timed {
		v := t.v / f
		if t.rate {
			v = t.v * f
		}
		b.set(t.name, v)
		b.note("measured %-18s %.6g (scaled %.6g)", t.name, t.v, v)
	}
	attempted, failed := b.attempted.Load(), b.failed.Load()
	b.set("success_ratio", 1-float64(failed)/float64(max(attempted, 1)))
	b.set("allocs_per_op", float64(e.allocs)/float64(max(e.ops, 1)))
	b.set("max_rss_mb", maxRSSMB())
	b.note("latency samples=%d highest percentile with >=10 samples beyond=p%.6g (%.4g ms)",
		len(lat), topPercentile(len(lat)), quantile(lat, topPercentile(len(lat))/100))
	for _, d := range []struct {
		name string
		xs   []float64
	}{{"restart_ms", ms(e.restart)}, {"corpus_export_ms", ms(e.export)}, {"setup_ms", ms(e.setup)}} {
		b.note("%s samples=%d p10=%.4g p50=%.4g p90=%.4g", d.name, len(d.xs),
			quantile(d.xs, 0.1), quantile(d.xs, 0.5), quantile(d.xs, 0.9))
	}
}

// serveLayer is what a traced run measured in the serving layers.
type serveLayer struct {
	handler, transport []time.Duration
	hitUS, hitAllocs   float64
	keyNS              float64
	// Counter deltas over the traced measured phase; requests counts
	// /simulate requests and batch rows alike.
	requests, hits, dedups, sims int64
	queueWait, attempt           []time.Duration
}

// addStats adds the counter deltas between two Server.Stats snapshots.
func (sl *serveLayer) addStats(before, after serve.Stats) {
	sl.requests += after.Received - before.Received + after.BatchRows - before.BatchRows
	sl.hits += after.CacheHits - before.CacheHits
	sl.dedups += after.Dedups - before.Dedups
	sl.sims += after.Simulations - before.Simulations
}

// merge adds another measurement of the same layers.
func (sl *serveLayer) merge(o serveLayer) {
	sl.handler = append(sl.handler, o.handler...)
	sl.transport = append(sl.transport, o.transport...)
	sl.queueWait = append(sl.queueWait, o.queueWait...)
	sl.attempt = append(sl.attempt, o.attempt...)
	sl.requests += o.requests
	sl.hits += o.hits
	sl.dedups += o.dedups
	sl.sims += o.sims
	if o.hitUS != 0 {
		sl.hitUS, sl.hitAllocs, sl.keyNS = o.hitUS, o.hitAllocs, o.keyNS
	}
}

// journalLayer is what a traced run measured around the jobs layer.
type journalLayer struct {
	replay                  []time.Duration
	journalBytes, journaled int64
	restarts                int64
	warmRows, warmSkipped   int64
	corpusBytes, corpusRows int64
	freshRows, statusRows   int64
	// rowRates holds each cycle's write-phase rows per second.
	rowRates []float64
}

func (jl *journalLayer) merge(o journalLayer) {
	jl.replay = append(jl.replay, o.replay...)
	jl.journalBytes += o.journalBytes
	jl.journaled += o.journaled
	jl.restarts += o.restarts
	jl.warmRows += o.warmRows
	jl.warmSkipped += o.warmSkipped
	jl.corpusBytes += o.corpusBytes
	jl.corpusRows += o.corpusRows
	jl.freshRows += o.freshRows
	jl.statusRows += o.statusRows
	jl.rowRates = append(jl.rowRates, o.rowRates...)
}

// overhead compares the cost per operation of the traced half of the
// measured phase with the untraced half.
type overhead struct {
	untraced, traced time.Duration
	untracedOps      int64
	tracedOps        int64
}

func (o overhead) ratio() float64 {
	u := float64(o.untraced) / float64(max(o.untracedOps, 1))
	t := float64(o.traced) / float64(max(o.tracedOps, 1))
	return t / u
}

// noteCounts prints the simulated counters summed over the run's
// seed-determined runs; they must repeat exactly for a seed, traced or not.
func (b *bench) noteCounts(es *engineStats) {
	b.note("simulated counts over %d seed-determined runs: %s", es.countedRun, mustJSON(es.counts))
}

func (b *bench) reportLayers(sl serveLayer, es *engineStats, jl journalLayer, ov overhead) {
	b.set("serve.handler_us.p50", quantile(us(sl.handler), 0.5))
	b.set("serve.handler_us.p99", quantile(us(sl.handler), 0.99))
	b.set("serve.transport_us.p50", quantile(us(sl.transport), 0.5))
	b.set("serve.hit_us", sl.hitUS)
	b.set("serve.hit_allocs", sl.hitAllocs)
	b.set("serve.key_ns", sl.keyNS)
	requests := float64(max(sl.requests, 1))
	b.set("serve.cache_hit_ratio", float64(sl.hits)/requests)
	b.set("serve.dedup_ratio", float64(sl.dedups)/requests)
	b.set("serve.simulations", float64(sl.sims))
	b.set("serve.queue_wait_us.p50", quantile(us(sl.queueWait), 0.5))
	b.set("serve.queue_wait_us.p99", quantile(us(sl.queueWait), 0.99))
	b.set("serve.attempt_ms.p50", quantile(ms(sl.attempt), 0.5))
	b.set("serve.attempt_ms.p99", quantile(ms(sl.attempt), 0.99))
	b.note("handler samples=%d queue/attempt stage samples=%d", len(sl.handler), len(sl.queueWait))

	var makeNS, runNS int64
	for _, d := range es.make {
		makeNS += d.Nanoseconds()
	}
	for _, ns := range es.runNS {
		runNS += ns
	}
	b.set("harness.make_us.p50", quantile(us(es.make), 0.5))
	b.set("harness.make_us.p99", quantile(us(es.make), 0.99))
	b.set("harness.make_share", float64(makeNS)/float64(max(makeNS+runNS, 1)))
	for _, half := range []string{halfSched, halfCoherence} {
		b.set("rws.run_ms."+half, median(ms(es.run[half])))
		b.set("rws.ns_per_access."+half, float64(es.runNS[half])/float64(max(es.accesses[half], 1)))
	}
	c := es.counts
	b.set("rws.spawns", float64(c.Spawns))
	b.set("rws.steals", float64(c.Steals))
	b.set("rws.failed_steals", float64(c.FailedSteals))
	b.set("rws.steal_success_ratio", float64(c.Steals)/float64(max(c.Steals+c.FailedSteals, 1)))
	b.set("machine.accesses", float64(c.Accesses))
	b.set("machine.cache_misses", float64(c.CacheMisses))
	b.set("machine.block_misses", float64(c.BlockMisses))
	b.set("machine.block_transfers", float64(c.BlockTransfers))
	b.set("machine.block_wait_ticks", float64(c.BlockWaitTicks))

	restarts := float64(max(jl.restarts, 1))
	b.set("jobs.replay_ms", median(ms(jl.replay)))
	b.set("jobs.journal_bytes_per_row", float64(jl.journalBytes)/float64(max(jl.journaled, 1)))
	b.set("serve.warm_rows", float64(jl.warmRows)/restarts)
	b.set("serve.warm_skipped_rows", float64(jl.warmSkipped)/restarts)
	b.set("serve.corpus_bytes_per_row", float64(jl.corpusBytes)/float64(max(jl.corpusRows, 1)))
	b.set("serve.row_fresh_ratio", float64(jl.freshRows)/float64(max(jl.statusRows, 1)))
	b.set("jobs.rows_per_s", median(jl.rowRates))
	b.set("bench.trace_overhead", ov.ratio())
	b.set("host.yardstick_ms", median(ms(b.yard)))
	b.note("trace overhead: untraced %d ops in %v, traced %d ops in %v",
		ov.untracedOps, ov.untraced, ov.tracedOps, ov.traced)
}
