package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rwsfs/internal/harness"
	"rwsfs/internal/serve"
)

// zipfS is the Zipf exponent of key popularity.
const zipfS = 1.1

// zipfState is a set-up simulate-zipf run: a server on loopback whose LRU
// holds the most popular keys, and the request bodies of the universe.
type zipfState struct {
	ls     *liveServer
	uni    []serve.Request
	keys   []string
	bodies [][]byte

	mu sync.Mutex
	// runs holds the first runs bytes served for each key; every later
	// answer for that key must carry the same bytes.
	runs map[string][]byte
}

// sameRuns records or compares the runs bytes served for key.
func (z *zipfState) sameRuns(key string, runs []byte) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if prev, ok := z.runs[key]; ok {
		if string(prev) != string(runs) {
			return fmt.Errorf("key %s served two different results", key)
		}
		return nil
	}
	z.runs[key] = append([]byte(nil), runs...)
	return nil
}

// zipfPhase is what one measured stretch of simulate-zipf saw.
type zipfPhase struct {
	requests int64
	elapsed  time.Duration
	// Requests, rows and simulations per second in each window (about a
	// second long) of the phase; the reported rates are their medians.
	winReqs, winRows, winSims []float64
	lat                       []time.Duration
	allocs                    uint64
	// handler and transport are the traced requests' times inside and
	// outside ServeHTTP; stages holds queue waits and attempt times from
	// GET /tracez.
	handler, transport []time.Duration
	stages             serveLayer
}

func (p *zipfPhase) merge(o zipfPhase) {
	p.requests += o.requests
	p.elapsed += o.elapsed
	p.winReqs = append(p.winReqs, o.winReqs...)
	p.winRows = append(p.winRows, o.winRows...)
	p.winSims = append(p.winSims, o.winSims...)
	p.lat = append(p.lat, o.lat...)
	p.allocs += o.allocs
}

// setupZipf starts a server with the default configuration and warms its
// LRU with the most popular keys, two clients at a time.
func (b *bench) setupZipf(z *zipfState, spans *spanLog) error {
	ls, err := startServer(serve.Config{}, spans)
	if err != nil {
		return err
	}
	z.ls = ls
	cl := newClient()
	defer cl.close()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < b.sz.zipfWarm; k += 2 {
				b.check(b.zipfCall(z, cl, k, nil))
			}
		}(c)
	}
	wg.Wait()
	return nil
}

// zipfCall posts universe request k and checks the answer. ph, when set,
// receives the timing.
func (b *bench) zipfCall(z *zipfState, cl *client, k int, ph *zipfPhase) error {
	res, err := cl.do(z.ls, http.MethodPost, "/simulate", z.bodies[k], "client.simulate")
	if err != nil {
		return err
	}
	sb, err := checkSimulate(res.status, res.body, z.keys[k], false, nil)
	if err != nil {
		return err
	}
	if err := z.sameRuns(z.keys[k], sb.Runs); err != nil {
		return err
	}
	if ph != nil {
		ph.lat = append(ph.lat, res.elapsed)
		ph.requests++
		if res.timed {
			ph.handler = append(ph.handler, res.handler)
			ph.transport = append(ph.transport, res.transport)
		}
	}
	return nil
}

// tracezPoll is how often a traced phase reads GET /tracez. The default
// ring keeps the last 256 timelines, a tenth of a second of this traffic,
// so each poll samples the stages of the requests just before it.
const tracezPoll = 250 * time.Millisecond

// measureZipf runs two closed-loop clients for d, each drawing keys from
// its own seeded Zipf stream, and samples the counters about once a second.
// With stages set, it also samples the queue and attempt stages from
// GET /tracez.
func (b *bench) measureZipf(z *zipfState, d time.Duration, stages bool, phase int64) zipfPhase {
	var out zipfPhase
	var mu sync.Mutex
	var wg sync.WaitGroup
	var reqs, rows atomic.Int64
	cl := newClient()
	defer cl.close()
	m0 := mallocs()
	t0 := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*1009 + phase*2 + int64(c)))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(z.uni)-1))
			var local zipfPhase
			for time.Since(t0) < d {
				k := int(zipf.Uint64())
				if b.check(b.zipfCall(z, cl, k, &local)) {
					reqs.Add(1)
					rows.Add(int64(z.uni[k].Runs))
				}
			}
			mu.Lock()
			out.requests += local.requests
			out.lat = append(out.lat, local.lat...)
			out.handler = append(out.handler, local.handler...)
			out.transport = append(out.transport, local.transport...)
			mu.Unlock()
		}(c)
	}
	if stages {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[string]bool{}
			for time.Since(t0) < d {
				time.Sleep(tracezPoll)
				b.stageSamples(z.ls.srv, &out.stages, seen)
			}
		}()
	}
	nWin := max(int(d/time.Second), 1)
	win := d / time.Duration(nWin)
	lastReqs, lastRows, lastSims := int64(0), int64(0), z.ls.srv.Stats().Simulations
	for i := 1; i <= nWin; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i) * win)))
		r, n, sims := reqs.Load(), rows.Load(), z.ls.srv.Stats().Simulations
		sec := win.Seconds()
		out.winReqs = append(out.winReqs, float64(r-lastReqs)/sec)
		out.winRows = append(out.winRows, float64(n-lastRows)/sec)
		out.winSims = append(out.winSims, float64(sims-lastSims)/sec)
		lastReqs, lastRows, lastSims = r, n, sims
	}
	wg.Wait()
	out.elapsed = time.Since(t0)
	out.allocs = mallocs() - m0
	b.gauge(8)
	return out
}

// checkZipfSample recomputes a seed-chosen sample of the universe, half
// from each sim-grid half's algorithms, through harness and rws directly;
// the served runs must equal those bytes. It returns the sample's keys,
// for the digest.
func (b *bench) checkZipfSample(z *zipfState, es *engineStats) []string {
	rng := rand.New(rand.NewSource(b.seed + 4242))
	pool := &harness.Runner{}
	defer pool.Close()
	cl := newClient()
	defer cl.close()
	var keys []string
	algs := make([]string, len(z.uni))
	for i, r := range z.uni {
		algs[i] = r.Alg
	}
	for _, k := range sampleByHalf(rng, algs, b.sz.zipfSample) {
		want, err := directRuns(pool, z.uni[k], es)
		if b.check(err) {
			b.check(b.zipfCall(z, cl, k, nil))
			z.mu.Lock()
			got := z.runs[z.keys[k]]
			z.mu.Unlock()
			if string(got) != string(want) {
				b.check(fmt.Errorf("key %s: served runs differ from the direct computation", z.keys[k]))
			}
		}
		keys = append(keys, z.keys[k])
	}
	return keys
}

// runZipf is the cached-hit front end plus fresh-path workload.
func runZipf(b *bench) error {
	z := &zipfState{uni: genUniverse(b.seed, b.sz)}
	for _, r := range z.uni {
		z.keys = append(z.keys, r.Key())
		body, err := json.Marshal(r)
		if err != nil {
			return err
		}
		z.bodies = append(z.bodies, body)
	}
	var spans *spanLog
	if b.trace {
		spans = newSpanLog()
	}
	var setups []time.Duration
	for i := 0; i < b.sz.setups; i++ {
		if z.ls != nil {
			z.ls.stop()
		}
		z.runs = make(map[string][]byte)
		t0 := time.Now()
		if err := b.setupZipf(z, spans); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		b.gauge(2)
	}
	defer func() { z.ls.stop() }()
	warmKeys := append([]string(nil), z.keys[:b.sz.zipfWarm]...)

	es := newEngineStats()
	sample := b.checkZipfSample(z, es)
	// Unmeasured traffic first, until the LRU has converged from the setup's
	// most-popular-first fill to the mix's steady state.
	b.measureZipf(z, min(b.seconds/5, 2*time.Second), false, 2)
	var probe probeOut
	var err error
	if !b.trace {
		var ph zipfPhase
		segment := int64(10)
		probe, err = b.interleave(b.seconds, func(d time.Duration) {
			ph.merge(b.measureZipf(z, d, false, segment))
			segment++
		}, nil)
		if err != nil {
			return err
		}
		b.reportEndToEnd(endToEnd{setup: setups, runsPerS: median(ph.winSims),
			opsPerS: median(ph.winReqs), rowsPerS: median(ph.winRows),
			lat: ph.lat, allocs: ph.allocs, ops: ph.requests,
			restart: probe.restart, export: probe.export})
	} else {
		z.ls.on.Store(false)
		plain := b.measureZipf(z, b.seconds/2, false, 0)
		z.ls.on.Store(true)
		before := z.ls.srv.Stats()
		traced := b.measureZipf(z, b.seconds/2, true, 1)
		sl := serveLayer{handler: traced.handler, transport: traced.transport,
			queueWait: traced.stages.queueWait, attempt: traced.stages.attempt}
		sl.addStats(before, z.ls.srv.Stats())
		if probe, err = b.interleave(0, nil, spans); err != nil {
			return err
		}
		sl.hitUS, sl.hitAllocs = b.hitProbe(z.ls.srv, z.uni[:b.sz.zipfWarm], nil)
		sl.keyNS = keyProbe(z.uni, b.sz.hitCalls)
		b.reportLayers(sl, es, probe.jl, overhead{plain.elapsed, traced.elapsed, plain.requests, traced.requests})
		b.finishSpans(spans)
	}
	b.noteCounts(es)
	b.zipfDigest(z, warmKeys, sample, probe.grids)
	return nil
}

// zipfDigest fingerprints the runs served for the warm keys and the
// directly checked sample, and the journal probe's grids, which are the
// same for every run of a seed.
func (b *bench) zipfDigest(z *zipfState, warm, sample []string, grids [][]byte) {
	keys := append(append([]string(nil), warm...), sample...)
	sort.Strings(keys)
	var parts [][]byte
	for _, k := range keys {
		parts = append(parts, []byte(k), z.runs[k])
	}
	parts = append(parts, grids...)
	b.setDigest(parts...)
}
