package serve

import "time"

// Fault is one injected misbehavior applied to a single worker attempt. The
// zero value injects nothing.
type Fault struct {
	// Delay makes the worker a straggler: it sleeps this long before the
	// attempt's first engine checkout (interruptible by the request
	// deadline). Hedged re-dispatch exists for exactly this shape.
	Delay time.Duration
	// Panic poisons the attempt: the first run's kernel panics mid-run,
	// with other strands live, exercising the recovery path — the engine is
	// quarantined (never recycled) and the next checkout replaces it from
	// the pool. Retry-with-backoff exists for exactly this shape.
	Panic bool
	// Stall simulates a stuck engine: the attempt blocks until the request
	// context is done and then reports a cancellation, never producing a
	// result. Deadlines and hedging exist for exactly this shape.
	Stall bool

	// The Corpus* fields below apply to GET /corpus exports instead of
	// worker attempts; the injector is consulted once per export with
	// worker -1, the export ordinal as the attempt, and the fixed key
	// "corpus". They model the peer failure shapes the warm-up client must
	// survive.

	// CorpusTruncateAfter > 0 ends the export stream (no trailer) after
	// this many row lines — a peer dying mid-transfer. The importer must
	// classify the result as truncation.
	CorpusTruncateAfter int
	// CorpusCorruptRow garbles the Nth (1-based) row line's bytes in
	// flight; the trailer checksum still covers the intact bytes, so the
	// importer must detect the damage and admit nothing from the line.
	CorpusCorruptRow int
	// CorpusStall freezes the export mid-stream until the client gives up;
	// the peer-side transfer timeout exists for exactly this shape.
	CorpusStall bool
	// CorpusError fails the export with a 500 before any bytes stream.
	CorpusError bool
}

// FaultInjector decides, per worker attempt, what misbehavior to inject; nil
// disables injection entirely (the production configuration). It is called
// with the worker's ID, the attempt ordinal for the request (retries count
// up from 0; hedged attempts start at Config.MaxAttempts so an injector can
// target first attempts only), and the request's canonical key — enough to
// build deterministic chaos schedules keyed on the request. Corpus exports
// consult the injector too (worker -1, export ordinal, key "corpus") so the
// peer warm-up path shares the same chaos machinery. Injectors run on worker
// and handler goroutines and must be safe for concurrent use.
type FaultInjector func(worker, attempt int, key string) Fault
