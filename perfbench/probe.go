package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"rwsfs/internal/harness"
	"rwsfs/internal/serve"
	"rwsfs/internal/serve/jobs"
)

// probeOut is what the journal lifecycle probe measured.
type probeOut struct {
	restart, export []time.Duration
	sl              serveLayer
	jl              journalLayer
	// grids are the first cycle's grid bodies, for the digest.
	grids [][]byte
}

func (p *probeOut) add(cy cycle) {
	p.restart = append(p.restart, cy.restart...)
	p.export = append(p.export, cy.export...)
	p.sl.merge(cy.sl)
	p.jl.merge(cy.jl)
}

// probe runs journal lifecycles alongside a workload's main phase: each
// writes the same seed-generated batch set through POST /batch into a
// fresh journal, restarts on it with WarmCache, and exports the corpus.
// It supplies every workload's restart and corpus export times and, when
// traced, the journal and batch layer metrics. Every cycle's grids must
// equal the first cycle's, and a sample of rows must equal a direct
// computation.
type probe struct {
	bs  *batchSet
	ref cycle
	n   int
	out probeOut
}

func (b *bench) newProbe() (*probe, error) {
	bs, err := newBatchSet(genBatchSpecs(b.seed+1, b.sz.probeJobs))
	return &probe{bs: bs}, err
}

// probeCycle runs one probe lifecycle in a fresh directory.
func (b *bench) probeCycle(p *probe, spans *spanLog) {
	dir := filepath.Join(b.workDir, fmt.Sprintf("probe%d", p.n))
	p.n++
	cy, err := b.journalCycle(dir, p.bs, spans, spans != nil && p.ref.grids == nil)
	b.gauge(2)
	if !b.check(err) {
		return
	}
	if p.ref.grids == nil {
		p.ref = cy
		p.out.grids = cy.grids
		b.checkRowSample(p.bs, p.ref, newEngineStats())
	}
	for j := range cy.grids {
		if !bytes.Equal(cy.grids[j], p.ref.grids[j]) {
			b.check(fmt.Errorf("probe cycle %d job %d: grid differs from the first cycle's", p.n, j))
		}
	}
	p.out.add(cy)
}

// interleave splits the measured phase d into probeCycles segments and runs
// a probe cycle after each, so that the probe's restarts and exports are
// spread over the run like the main phase's own samples.
func (b *bench) interleave(d time.Duration, measure func(time.Duration), spans *spanLog) (probeOut, error) {
	p, err := b.newProbe()
	if err != nil {
		return probeOut{}, err
	}
	n := b.sz.probeCycles
	for i := 0; i < n; i++ {
		if measure != nil {
			measure(d / time.Duration(n))
		}
		b.probeCycle(p, spans)
	}
	return p.out, nil
}

// checkRowSample recomputes a seed-chosen sample of the batch rows, half
// from each sim-grid half's algorithms, through harness and rws directly; each grid row's result must equal those bytes.
func (b *bench) checkRowSample(bs *batchSet, ref cycle, es *engineStats) {
	results := make(map[string][]byte)
	for _, g := range ref.grids {
		for _, ln := range bytes.Split(bytes.TrimSuffix(g, []byte("\n")), []byte("\n")) {
			var rec jobs.RowRecord
			if json.Unmarshal(ln, &rec) == nil {
				results[rec.Key] = rec.Result
			}
		}
	}
	var rows []serve.Request
	for _, rs := range bs.rows {
		rows = append(rows, rs...)
	}
	pool := &harness.Runner{}
	defer pool.Close()
	rng := rand.New(rand.NewSource(b.seed + 5151))
	algs := make([]string, len(rows))
	for i, r := range rows {
		algs[i] = r.Alg
	}
	for _, i := range sampleByHalf(rng, algs, b.sz.batchSample) {
		want, err := directRuns(pool, rows[i], es)
		if b.check(err) && !bytes.Equal(results[rows[i].Key()], want) {
			b.check(fmt.Errorf("row %s: grid result differs from the direct computation", rows[i].Key()))
		}
	}
}

// finishSpans writes the run's spans next to the build and keeps the
// self-time table for the report.
func (b *bench) finishSpans(spans *spanLog) {
	b.self = spans.selfTimes()
	path := filepath.Join(filepath.Dir(filepath.Dir(b.workDir)), "spans",
		fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	if err := spans.write(path); err != nil {
		b.note("spans not written: %v", err)
		return
	}
	b.note("spans written to %s", path)
}
