package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"
)

// batchPhase is what one measured stretch of batch-journal saw.
type batchPhase struct {
	cycles          int
	rows, batches   int64
	write           time.Duration
	batchLat        []time.Duration
	allocs          uint64
	restart, export []time.Duration
	// Per-cycle rates and batch latency quantiles during the write phase;
	// the reported figures are their medians, which a slow fsync burst in
	// one cycle does not move.
	rowRates, batchRates, simRates []float64
	latP50, latP99                 []float64
	sl                             serveLayer
	jl                             journalLayer
}

// measureBatch repeats journal lifecycles in fresh directories until d has
// passed. Every cycle writes the same batch set, so every grid must equal
// the reference grid byte for byte.
func (b *bench) measureBatch(bs *batchSet, ref cycle, d time.Duration, spans *spanLog, tag string) batchPhase {
	var out batchPhase
	t0 := time.Now()
	for time.Since(t0) < d {
		dir := filepath.Join(b.workDir, fmt.Sprintf("%s%d", tag, out.cycles))
		cy, err := b.journalCycle(dir, bs, spans, spans != nil && out.cycles == 0)
		b.gauge(2)
		out.cycles++
		if !b.check(err) {
			continue
		}
		for j := range cy.grids {
			if !bytes.Equal(cy.grids[j], ref.grids[j]) {
				b.check(fmt.Errorf("cycle %d job %d: grid differs from the reference grid", out.cycles, j))
			}
		}
		out.rows += cy.rows
		out.batches += cy.batches
		out.write += cy.write
		out.allocs += cy.allocs
		out.batchLat = append(out.batchLat, cy.batchLat...)
		out.restart = append(out.restart, cy.restart...)
		out.export = append(out.export, cy.export...)
		sec := cy.write.Seconds()
		out.rowRates = append(out.rowRates, float64(cy.rows)/sec)
		out.batchRates = append(out.batchRates, float64(cy.batches)/sec)
		out.simRates = append(out.simRates, float64(cy.sl.sims)/sec)
		lat := ms(cy.batchLat)
		out.latP50 = append(out.latP50, quantile(lat, 0.5))
		out.latP99 = append(out.latP99, quantile(lat, 0.99))
		out.sl.merge(cy.sl)
		out.jl.merge(cy.jl)
	}
	return out
}

// runBatchJournal is the journaled batch workload.
func runBatchJournal(b *bench) error {
	bs, err := newBatchSet(genBatchSpecs(b.seed, b.sz.batchJobs))
	if err != nil {
		return err
	}
	// Each set-up runs one whole lifecycle, which finishes the servers' lazy
	// set-up; the first yields the reference grids.
	var ref cycle
	var setups []time.Duration
	for i := 0; i < b.sz.setups; i++ {
		dir := filepath.Join(b.workDir, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		cy, err := b.journalCycle(dir, bs, nil, false)
		setups = append(setups, time.Since(t0))
		b.gauge(2)
		if err != nil {
			return err
		}
		if ref.grids == nil {
			ref = cy
		}
		for j := range cy.grids {
			if !bytes.Equal(cy.grids[j], ref.grids[j]) {
				b.check(fmt.Errorf("set-up %d job %d: grid differs from the first set-up's", i, j))
			}
		}
	}
	es := newEngineStats()
	b.checkRowSample(bs, ref, es)
	if !b.trace {
		ph := b.measureBatch(bs, ref, b.seconds, nil, "cycle")
		b.reportEndToEnd(endToEnd{setup: setups, runsPerS: median(ph.simRates),
			opsPerS: median(ph.batchRates), rowsPerS: median(ph.rowRates),
			lat: ph.batchLat, cycleP50: ph.latP50, cycleP99: ph.latP99, allocs: ph.allocs, ops: ph.rows,
			restart: ph.restart, export: ph.export})
		b.note("cycles=%d rows=%d batches=%d", ph.cycles, ph.rows, ph.batches)
	} else {
		plain := b.measureBatch(bs, ref, b.seconds/2, nil, "plain")
		spans := newSpanLog()
		traced := b.measureBatch(bs, ref, b.seconds/2, spans, "traced")
		b.reportLayers(traced.sl, es, traced.jl, overhead{plain.write, traced.write, plain.rows, traced.rows})
		b.finishSpans(spans)
	}
	b.noteCounts(es)
	b.setDigest(ref.grids...)
	return nil
}
