package main

import (
	"sync"
	"time"
)

// The reference host is a shared 2-vCPU VM whose speed drifts by 20-50%
// over minutes, with next to no CPU steal: other tenants load the shared
// L3 cache and memory, and how much the two vCPUs can run in parallel
// changes (two sorts on two goroutines took 1.8-1.95 times as long as one).
// A fixed yardstick, timed at quiet points of every run, measures that
// drift, and the end-to-end timings are reported at the yardstick's
// nominal speed.
//
// The yardstick fills and then probes an open-addressing hash table of
// 4 MB with a fixed hash, on as many goroutines as the workload has
// callers, each with its own table. The table spills the 2 MB L2 into
// the shared L3, where the simulator and the server lose speed when the
// host is busy. Among a CPU loop, random reads over 32 MB, Go maps of
// 2 MB, an allocating map-and-sort loop, loopback HTTP round trips, and
// tables of 256 KB and 8 MB, the 8 MB table tracked the drift of
// sim-grid's round times best: it cut their spread over twelve runs on a
// contended host from 0.37 to 0.05 (IQR over median). The table is 4 MB
// here so that two copies add little memory; each timing follows an
// untimed pass, so the table starts from the same cache state. Its hash
// is fixed and it allocates nothing, so neither the per-process map seed
// nor the program's heap and GC change its time.

// yardstickNominal is the yardstick's median time on one goroutine on a
// quiet reference host. The nominal time on n goroutines is n times as
// long, as on a host whose two vCPUs share one core. A run whose median
// is its nominal time is reported unscaled.
const yardstickNominal = 6 * time.Millisecond

// yardThreads is how many goroutines run the yardstick on each workload:
// one per closed-loop caller.
var yardThreads = map[string]int{"sim-grid": 1, "simulate-zipf": 2, "batch-journal": 2}

// yardTables are the yardstick's tables: 2^19 slots each, half filled.
var (
	yardTables [2][]uint64
	yardSink   [2]uint64
)

// fillProbe fills table i and then looks every key up again.
func fillProbe(i int) {
	if yardTables[i] == nil {
		yardTables[i] = make([]uint64, 1<<19)
	}
	t := yardTables[i]
	clear(t)
	mask := uint64(len(t) - 1)
	slot := func(x uint64) uint64 { return (x * 0x9E3779B97F4A7C15) >> 20 & mask }
	x := uint64(88172645463325252)
	for k := 0; k < len(t)/2; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h := slot(x)
		for t[h] != 0 {
			h = (h + 1) & mask
		}
		t[h] = x | 1
	}
	x = uint64(88172645463325252)
	s := uint64(0)
	for k := 0; k < len(t)/2; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h := slot(x)
		for t[h] != x|1 {
			h = (h + 1) & mask
		}
		s += h
	}
	yardSink[i] += s
}

// yardstick times fillProbe on n goroutines at once.
func yardstick(n int) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fillProbe(i)
		}(i)
	}
	wg.Wait()
	return time.Since(t0)
}

// gauge times the yardstick n times. Call it only where the workload is
// quiet, so that the program's own threads do not slow the yardstick.
func (b *bench) gauge(n int) {
	k := yardThreads[b.workload]
	yardstick(k) // brings the tables back into the caches the program used
	for i := 0; i < n; i++ {
		b.yard = append(b.yard, yardstick(k))
	}
}

// speedFactor is the run's median yardstick time over its nominal one:
// above 1 on a host slower than the reference. End-to-end times are
// divided by it and rates multiplied by it.
func (b *bench) speedFactor() float64 {
	return median(scaled(b.yard, 1)) / float64(time.Duration(yardThreads[b.workload])*yardstickNominal)
}
