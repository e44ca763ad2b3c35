package rws

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// panicMidRun forks a wide tree whose leaf 37 panics after its siblings
// started, so other strands are suspended mid-job (parked on joins or
// waiting to be resumed) when the panic unwinds the run.
func panicMidRun(out mem.Addr) func(*Ctx) {
	return func(c *Ctx) {
		c.ForkN(64, func(j int, c *Ctx) {
			c.Work(machine.Tick(5 + j%7))
			if j == 37 {
				panic("boom")
			}
			c.StoreInt(out+mem.Addr(j), int64(j))
		})
	}
}

// TestPanickedEnginesReleaseStrands is the quarantine path of the daemon in
// miniature: Reset, a Run whose kernel panics with strands live mid-job,
// then Close. Every strand coroutine must be gone afterwards, so the
// goroutine count returns to its baseline.
func TestPanickedEnginesReleaseStrands(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		e := MustNewEngine(DefaultConfig(4))
		if err := e.Reset(DefaultConfig(4)); err != nil {
			t.Fatal(err)
		}
		out := e.Machine().Alloc.Alloc(64)
		func() {
			defer func() {
				pv := recover()
				msg, _ := pv.(string)
				if !strings.Contains(msg, "rws: algorithm panicked on processor") || !strings.Contains(msg, "boom") {
					t.Fatalf("run %d panicked with %v, want the algorithm-panic message", i, pv)
				}
			}()
			e.Run(panicMidRun(out))
		}()
		if e.strandPeak < 2 {
			t.Fatalf("run %d: only %d strands live at the panic; the test needs several", i, e.strandPeak)
		}
		e.Close()
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutines: %d before, %d after 20 panicked-then-closed engines", base, got)
	}
}

// TestEngineReuseAcrossGoroutines alternates Reset+Run of one engine between
// two goroutines, as a shared engine pool may: each Run resumes coroutines
// created or last resumed on the other goroutine. Every Result must equal a
// fresh engine's. Run it under -race as well.
func TestEngineReuseAcrossGoroutines(t *testing.T) {
	pols := Policies()
	runs := 12
	if testing.Short() {
		runs = 6
	}
	cfgOf := func(i int) (Config, int) {
		cfg := DefaultConfig(2 + i%7)
		cfg.Seed = int64(100 + i)
		cfg.Policy = pols[i%len(pols)]
		cfg.DisableFastPath = i%5 == 4
		return cfg, 64 + 16*i
	}
	fresh := make([]Result, runs)
	for i := range fresh {
		cfg, leaves := cfgOf(i)
		e := MustNewEngine(cfg)
		fresh[i] = e.Run(leafSquares(e.Machine().Alloc.Alloc(leaves), leaves))
	}

	e := MustNewEngine(DefaultConfig(2))
	defer e.Close()
	turns := [2]chan int{make(chan int), make(chan int)}
	done := make(chan struct{})
	got := make([]Result, runs)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(mine, other chan int) {
			defer wg.Done()
			for i := range mine {
				cfg, leaves := cfgOf(i)
				if err := e.Reset(cfg); err != nil {
					t.Error(err)
				}
				got[i] = e.Run(leafSquares(e.Machine().Alloc.Alloc(leaves), leaves))
				if i+1 == runs {
					close(done)
					continue
				}
				other <- i + 1
			}
		}(turns[g], turns[1-g])
	}
	turns[0] <- 0
	<-done
	close(turns[0])
	close(turns[1])
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], fresh[i]) {
			t.Errorf("run %d (goroutine %d) diverged from a fresh engine:\nreused: %+v\nfresh:  %+v",
				i, i%2, got[i], fresh[i])
		}
	}
}
