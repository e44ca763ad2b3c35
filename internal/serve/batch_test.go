package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rwsfs/internal/serve/jobs"
)

func postBatch(s *Server, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("POST", "/batch", strings.NewReader(body)))
	return rr
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr
}

// streamParts is a parsed /batch NDJSON stream: the job header, the row
// lines (decoded and raw — raw for byte-identity checks), and the trailer.
type streamParts struct {
	header struct {
		Type string `json:"type"`
		Job  string `json:"job"`
		Rows int    `json:"rows"`
	}
	rows    []jobs.RowRecord
	rowRaw  [][]byte
	trailer struct {
		Type   string                 `json:"type"`
		Job    string                 `json:"job"`
		Status string                 `json:"status"`
		Counts map[jobs.RowStatus]int `json:"counts"`
	}
}

func parseStream(t *testing.T, body []byte) streamParts {
	t.Helper()
	var out streamParts
	for _, ln := range bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n")) {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(ln, &probe); err != nil {
			t.Fatalf("unparseable stream line %q: %v", ln, err)
		}
		switch probe.Type {
		case "job":
			if err := json.Unmarshal(ln, &out.header); err != nil {
				t.Fatalf("bad job header %q: %v", ln, err)
			}
		case "row":
			var rec jobs.RowRecord
			if err := json.Unmarshal(ln, &rec); err != nil {
				t.Fatalf("bad row line %q: %v", ln, err)
			}
			out.rows = append(out.rows, rec)
			out.rowRaw = append(out.rowRaw, append([]byte(nil), ln...))
		case "end":
			if err := json.Unmarshal(ln, &out.trailer); err != nil {
				t.Fatalf("bad trailer %q: %v", ln, err)
			}
		default:
			t.Fatalf("unexpected stream line type %q: %s", probe.Type, ln)
		}
	}
	return out
}

// gridBody fetches /batch/{id}/grid and fails unless it is a 200.
func gridBody(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	rr := get(s, "/batch/"+id+"/grid")
	if rr.Code != http.StatusOK {
		t.Fatalf("grid: want 200, got %d: %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("grid: want NDJSON content type, got %q", ct)
	}
	return rr.Body.Bytes()
}

const baseSpec = `{"algs":["prefix"],"ns":[64],"ps":[2,4],"seeds":[1,2,3]}`

// TestBatchSweepStreamsGrid submits a 6-row sweep and checks the whole happy
// path: header, one terminal row per grid cell, done trailer, the status
// endpoint, the listing, and — the core contract — that the streamed row
// lines are byte-identical to the grid endpoint's.
func TestBatchSweepStreamsGrid(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	rr := postBatch(s, baseSpec)
	if rr.Code != http.StatusOK {
		t.Fatalf("batch: want 200, got %d: %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("batch: want NDJSON content type, got %q", ct)
	}
	sp := parseStream(t, rr.Body.Bytes())
	if sp.header.Type != "job" || sp.header.Rows != 6 || sp.header.Job == "" {
		t.Fatalf("bad header: %+v", sp.header)
	}
	if len(sp.rows) != 6 {
		t.Fatalf("want 6 row lines, got %d", len(sp.rows))
	}
	for _, rec := range sp.rows {
		if rec.Status != jobs.RowOK || len(rec.Result) == 0 || rec.Key == "" {
			t.Fatalf("row %d not ok-with-result: %+v", rec.Index, rec)
		}
	}
	if sp.trailer.Status != "done" || sp.trailer.Counts[jobs.RowOK] != 6 {
		t.Fatalf("bad trailer: %+v", sp.trailer)
	}

	// Stream rows (sorted into index order) must be the grid's bytes.
	idx := make([]int, len(sp.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return sp.rows[idx[a]].Index < sp.rows[idx[b]].Index })
	var want bytes.Buffer
	for _, i := range idx {
		want.Write(sp.rowRaw[i])
		want.WriteByte('\n')
	}
	if got := gridBody(t, s, sp.header.Job); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("grid differs from streamed rows:\n%s\nvs\n%s", got, want.Bytes())
	}

	// Status endpoint: done, every row ok.
	srr := get(s, "/batch/"+sp.header.Job)
	var status struct {
		Job    string                 `json:"job"`
		Status string                 `json:"status"`
		Rows   int                    `json:"rows"`
		Counts map[jobs.RowStatus]int `json:"counts"`
		Grid   []struct {
			Index  int            `json:"index"`
			Key    string         `json:"key"`
			Status jobs.RowStatus `json:"status"`
		} `json:"grid"`
	}
	if err := json.Unmarshal(srr.Body.Bytes(), &status); err != nil {
		t.Fatalf("status: %v", err)
	}
	if status.Status != "done" || status.Rows != 6 || status.Counts[jobs.RowOK] != 6 || len(status.Grid) != 6 {
		t.Fatalf("bad status: %+v", status)
	}

	// Listing knows the job.
	lrr := get(s, "/batch")
	var listing map[string][]struct {
		Job    string `json:"job"`
		Status string `json:"status"`
		Rows   int    `json:"rows"`
	}
	if err := json.Unmarshal(lrr.Body.Bytes(), &listing); err != nil {
		t.Fatalf("list: %v", err)
	}
	if jl := listing["jobs"]; len(jl) != 1 || jl[0].Job != sp.header.Job || jl[0].Status != "done" {
		t.Fatalf("bad listing: %+v", listing)
	}

	st := s.Stats()
	if st.BatchJobs != 1 || st.BatchRows != 6 {
		t.Fatalf("want BatchJobs=1 BatchRows=6, got %+v", st)
	}
}

// TestBatchRowMatchesSimulate pins that a batch row's journaling-format
// result is the same runs array /simulate serves for the same cell —
// same canonical key, same bytes.
func TestBatchRowMatchesSimulate(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	sp := parseStream(t, postBatch(s, `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[9]}`).Body.Bytes())
	if len(sp.rows) != 1 || sp.rows[0].Status != jobs.RowOK {
		t.Fatalf("want 1 ok row, got %+v", sp.rows)
	}
	w := mustOK(t, s, `{"alg":"prefix","n":64,"p":4,"seed":9}`)
	if w.Key != sp.rows[0].Key {
		t.Fatalf("batch row and /simulate disagree on the canonical key: %s vs %s", sp.rows[0].Key, w.Key)
	}
	if !bytes.Equal(w.Runs, sp.rows[0].Result) {
		t.Fatalf("batch row result differs from /simulate runs:\n%s\nvs\n%s", sp.rows[0].Result, w.Runs)
	}
}

func TestBatchRejectsBadSpecs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBatchRows: 4})
	cases := []struct{ name, body string }{
		{"empty", `{}`},
		{"no seeds", `{"algs":["prefix"],"ns":[64],"ps":[4]}`},
		{"unknown alg", `{"algs":["nope"],"ns":[64],"ps":[4],"seeds":[1]}`},
		{"row over limits", `{"algs":["prefix"],"ns":[1000000],"ps":[4],"seeds":[1]}`},
		{"too many rows", `{"algs":["prefix"],"ns":[64],"ps":[1,2,3,4,5],"seeds":[1]}`},
		{"unknown field", `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1],"bogus":true}`},
	}
	for _, tc := range cases {
		rr := postBatch(s, tc.body)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d: %s", tc.name, rr.Code, rr.Body.String())
			continue
		}
		if w := decode(t, rr); w.Error == nil || w.Error.Code != codeInvalid {
			t.Errorf("%s: want typed %q, got %s", tc.name, codeInvalid, rr.Body.String())
		}
	}
	if rr := get(s, "/batch/nope"); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown job: want 404, got %d", rr.Code)
	} else if w := decode(t, rr); w.Error == nil || w.Error.Code != codeNotFound {
		t.Fatalf("unknown job: want typed %q, got %s", codeNotFound, rr.Body.String())
	}
}

// waitBatchDone polls the white-box job handle until every row is terminal.
func waitBatchDone(t *testing.T, s *Server, id string) *jobs.Job {
	t.Helper()
	e, ok := s.batch(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	select {
	case <-e.job.DoneCh():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish: %v", id, e.job.Counts())
	}
	return e.job
}

// onlyJobID polls the listing until exactly one job exists and returns it.
func onlyJobID(t *testing.T, s *Server) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var listing map[string][]struct {
			Job string `json:"job"`
		}
		if err := json.Unmarshal(get(s, "/batch").Body.Bytes(), &listing); err == nil {
			if jl := listing["jobs"]; len(jl) == 1 {
				return jl[0].Job
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no batch job appeared")
	return ""
}

// TestBatchJournalResumeServedFromJournal runs a batch to completion under a
// journal, restarts on the same directory, and checks that the new process
// serves the whole job from the journal: zero simulations, identical grid.
func TestBatchJournalResumeServedFromJournal(t *testing.T) {
	dir := t.TempDir()
	a := New(Config{Workers: 2, JournalDir: dir})
	sp := parseStream(t, postBatch(a, baseSpec).Body.Bytes())
	if sp.trailer.Status != "done" {
		t.Fatalf("job did not finish: %+v", sp.trailer)
	}
	wantGrid := gridBody(t, a, sp.header.Job)
	a.Close()

	b := New(Config{Workers: 2, JournalDir: dir})
	defer b.Close()
	job := waitBatchDone(t, b, sp.header.Job)
	if job.Interrupted() {
		t.Fatal("replayed complete job reports interrupted")
	}
	if got := gridBody(t, b, sp.header.Job); !bytes.Equal(got, wantGrid) {
		t.Fatalf("resumed grid differs from original:\n%s\nvs\n%s", got, wantGrid)
	}
	if st := b.Stats(); st.Simulations != 0 || st.BatchRows != 0 {
		t.Fatalf("finished rows must never be recomputed: %+v", st)
	}
	// Every replayed row's provenance says so: source journal, zero attempts.
	var status struct {
		Grid []batchRowStatus `json:"grid"`
	}
	if err := json.Unmarshal(get(b, "/batch/"+sp.header.Job).Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	for _, row := range status.Grid {
		if row.Source != sourceJournal || row.Attempts != 0 {
			t.Fatalf("replayed row %d provenance = %q/%d attempts, want %q/0",
				row.Index, row.Source, row.Attempts, sourceJournal)
		}
	}
}

// TestBatchRowProvenance warms the result cache with one row's /simulate
// twin, runs a two-row batch, and expects the status grid to attribute one
// row to the cache (zero attempts) and the other to a fresh computation
// (at least one attempt).
func TestBatchRowProvenance(t *testing.T) {
	s := newTestServer(t, Config{})
	warm := mustOK(t, s, `{"alg":"prefix","n":64,"p":4,"seed":1}`)
	sp := parseStream(t, postBatch(s, `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1,2]}`).Body.Bytes())
	waitBatchDone(t, s, sp.header.Job)
	var status struct {
		Grid []batchRowStatus `json:"grid"`
	}
	if err := json.Unmarshal(get(s, "/batch/"+sp.header.Job).Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Grid) != 2 {
		t.Fatalf("grid rows = %d, want 2", len(status.Grid))
	}
	// Rows expand in seed order: row 0 is the warmed seed 1, row 1 is seed 2.
	if r := status.Grid[0]; r.Key != warm.Key || r.Source != sourceCache || r.Attempts != 0 {
		t.Fatalf("warmed row provenance = %q/%d attempts (key %s, warm key %s), want %q/0",
			r.Source, r.Attempts, r.Key, warm.Key, sourceCache)
	}
	if r := status.Grid[1]; r.Source != sourceFresh || r.Attempts < 1 {
		t.Fatalf("cold row provenance = %q/%d attempts, want %q/>=1", r.Source, r.Attempts, sourceFresh)
	}
}

// TestBatchKillRestartResumesFromJournal is the crash-recovery drill: a slow
// batch is hard-killed mid-flight (drain + hard-cancel + close, the same
// sequence a SIGKILL approximates once the journal's records are fsync'd), a
// fresh server resumes from the journal, recomputes exactly the rows without
// a journal record, and the final grid is byte-identical to an uninterrupted
// run on a clean server.
func TestBatchKillRestartResumesFromJournal(t *testing.T) {
	const (
		spec  = `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}`
		total = 16
	)
	dir := t.TempDir()
	a := New(Config{
		Workers:       2,
		BatchParallel: 2,
		JournalDir:    dir,
		DrainGrace:    5 * time.Second,
		Injector:      func(int, int, string) Fault { return Fault{Delay: 20 * time.Millisecond} },
	})
	streamDone := make(chan []byte, 1)
	go func() {
		streamDone <- postBatch(a, spec).Body.Bytes()
	}()
	id := onlyJobID(t, a)

	// Let a few rows land, then kill the process (as far as the serving
	// layer can tell): stop admission, hard-cancel every in-flight row's
	// context, tear down.
	deadline := time.Now().Add(10 * time.Second)
	for {
		e, ok := a.batch(id)
		if ok && e.job.Counts()[jobs.RowOK] >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no rows completed in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.Drain()
	a.baseCancel()
	a.Close()
	sp := parseStream(t, <-streamDone)
	if sp.trailer.Status != "interrupted" && sp.trailer.Status != "done" {
		t.Fatalf("killed job trailer: %+v", sp.trailer)
	}

	// Every journaled row is ok (in-flight rows were checkpointed back to
	// unstarted, not recorded as failures), and at least one row survived.
	jr, err := jobs.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := jr.Replay()
	if err != nil || len(replayed) != 1 {
		t.Fatalf("replay: %v (%d jobs)", err, len(replayed))
	}
	journaled := len(replayed[0].Rows)
	for _, rec := range replayed[0].Rows {
		if rec.Status != jobs.RowOK {
			t.Fatalf("journal holds a non-ok row after kill: %+v", rec)
		}
	}
	if journaled < 3 {
		t.Fatalf("want >= 3 journaled rows, got %d", journaled)
	}
	t.Logf("killed with %d/%d rows journaled", journaled, total)

	// Restart on the same journal: the job resumes, recomputes exactly the
	// missing rows, and completes.
	b := New(Config{Workers: 2, JournalDir: dir})
	defer b.Close()
	job := waitBatchDone(t, b, id)
	if job.Interrupted() {
		t.Fatal("resumed job reports interrupted after completing")
	}
	if st := b.Stats(); st.Simulations != int64(total-journaled) {
		t.Fatalf("resume must recompute exactly the unjournaled rows: want %d simulations, got %+v",
			total-journaled, st)
	}

	// The resumed grid is byte-identical to an uninterrupted run's.
	ref := newTestServer(t, Config{Workers: 2})
	refSp := parseStream(t, postBatch(ref, spec).Body.Bytes())
	if refSp.trailer.Status != "done" {
		t.Fatalf("reference run did not finish: %+v", refSp.trailer)
	}
	if got, want := gridBody(t, b, id), gridBody(t, ref, refSp.header.Job); !bytes.Equal(got, want) {
		t.Fatalf("resumed grid differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestBatchDrainCheckpointsRows pins the graceful-drain contract: rows
// already dispatched finish (and are journaled), rows not yet dispatched
// stay unstarted with no journal record — nothing is recorded as a spurious
// failure and nothing is lost.
func TestBatchDrainCheckpointsRows(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{
		Workers:       2,
		BatchParallel: 1,
		JournalDir:    dir,
		DrainGrace:    10 * time.Second,
		Injector:      func(int, int, string) Fault { return Fault{Delay: 20 * time.Millisecond} },
	})
	go postBatch(s, `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1,2,3,4,5,6,7,8,9,10,11,12]}`)
	id := onlyJobID(t, s)
	e, _ := s.batch(id)
	deadline := time.Now().Add(10 * time.Second)
	for e.job.Counts()[jobs.RowOK] < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.Drain()
	s.Close()

	counts := e.job.Counts()
	if counts[jobs.RowRunning] != 0 {
		t.Fatalf("drained job left rows marked running: %v", counts)
	}
	if counts[jobs.RowFailed]+counts[jobs.RowDeadline] != 0 {
		t.Fatalf("drain recorded spurious failures: %v", counts)
	}
	if counts[jobs.RowOK] == 0 || counts[jobs.RowUnstarted] == 0 {
		t.Fatalf("want a mix of finished and checkpointed rows, got %v", counts)
	}
	jr, err := jobs.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := jr.Replay()
	if err != nil || len(replayed) != 1 {
		t.Fatalf("replay: %v (%d jobs)", err, len(replayed))
	}
	if len(replayed[0].Rows) != counts[jobs.RowOK] {
		t.Fatalf("journal rows (%d) must match finished rows (%d)", len(replayed[0].Rows), counts[jobs.RowOK])
	}
}

// TestBatchRowQuarantine fences one poisoned configuration: a row whose
// config panics on every attempt trips the per-key breaker, lands as a typed
// row_quarantined row, and must NOT sink the rest of the job. The quarantine
// is journaled, so a restart serves it without re-poisoning engines, and
// /simulate of the same config answers a typed 500 without computing.
func TestBatchRowQuarantine(t *testing.T) {
	// The poisoned cell, keyed exactly as the batch expansion will key it.
	poisoned := Request{Alg: "prefix", N: 64, P: 4, Seed: 3}
	poisoned.normalize()
	target := poisoned.Key()

	dir := t.TempDir()
	a := New(Config{
		Workers:         2,
		MaxAttempts:     2,
		QuarantineAfter: 2,
		RetryBackoff:    time.Millisecond,
		JournalDir:      dir,
		Injector: func(_, _ int, key string) Fault {
			return Fault{Panic: key == target}
		},
	})
	sp := parseStream(t, postBatch(a, `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1,2,3,4,5]}`).Body.Bytes())
	if sp.trailer.Status != "done" {
		t.Fatalf("job must complete despite the poisoned row: %+v", sp.trailer)
	}
	if sp.trailer.Counts[jobs.RowOK] != 4 || sp.trailer.Counts[jobs.RowQuarantined] != 1 {
		t.Fatalf("want 4 ok + 1 quarantined, got %v", sp.trailer.Counts)
	}
	for _, rec := range sp.rows {
		if rec.Key == target {
			if rec.Status != jobs.RowQuarantined || rec.Error == "" {
				t.Fatalf("poisoned row not quarantined: %+v", rec)
			}
		} else if rec.Status != jobs.RowOK {
			t.Fatalf("healthy row %d sunk by its neighbor: %+v", rec.Index, rec)
		}
	}
	if st := a.Stats(); st.RowsQuarantined != 1 {
		t.Fatalf("want RowsQuarantined=1, got %+v", st)
	}

	// The breaker now answers /simulate for the poisoned config up front.
	rr := post(a, `{"alg":"prefix","n":64,"p":4,"seed":3}`)
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("tripped key via /simulate: want 500, got %d", rr.Code)
	}
	if w := decode(t, rr); w.Error == nil || w.Error.Code != codeQuarantined {
		t.Fatalf("want typed %q, got %s", codeQuarantined, rr.Body.String())
	}
	id := sp.header.Job
	a.Close()

	// Restart: the quarantined row is served from the journal — no engine is
	// poisoned again, nothing recomputes.
	b := New(Config{Workers: 2, JournalDir: dir})
	defer b.Close()
	job := waitBatchDone(t, b, id)
	if got := job.Counts(); got[jobs.RowQuarantined] != 1 || got[jobs.RowOK] != 4 {
		t.Fatalf("resumed counts wrong: %v", got)
	}
	if st := b.Stats(); st.Simulations != 0 {
		t.Fatalf("restart must serve every row from the journal: %+v", st)
	}
}

// TestBatchSpecOverflowRejected pins the row-count overflow guard end to
// end: a spec whose dimension lists multiply past an int must be rejected
// by the MaxBatchRows bound without materializing any of the cross product.
func TestBatchSpecOverflowRejected(t *testing.T) {
	dim := 1 << 13 // 8192^5 = 2^65: wraps an int64 product, saturates RowCount
	spec := &jobs.Spec{
		Algs: []string{"prefix"},
		Ns:   make([]int, dim), Ps: make([]int, dim),
		Seeds: make([]int64, dim), Sockets: make([]int, dim),
		Policies: make([]string, dim),
	}
	start := time.Now()
	if _, err := expandRows(spec, Limits{}.withDefaults(), 4096); err == nil {
		t.Fatal("overflowing spec must be rejected by the row bound")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("rejection took %s — the grid was materialized", elapsed)
	}
}

// TestBatchRowRetriesInheritedDeadline pins that a batch row joining a
// flight led by a /simulate request does not inherit that leader's deadline
// as its own terminal outcome: the leader's (possibly tiny, client-chosen)
// deadline describes the leader's request, so the row must retry the flight
// and compute under its own context.
func TestBatchRowRetriesInheritedDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	req := Request{Alg: "prefix", N: 64, P: 4, Seed: 7}
	req.normalize()
	key := req.Key()

	// Occupy the flight, standing in for a /simulate leader.
	c, leader := s.flight.join(key)
	if !leader {
		t.Fatal("test flight already occupied")
	}
	type outcome struct {
		p      *payload
		reject *apiError
	}
	done := make(chan outcome, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		p, _, _, reject := s.resolve(ctx, key, &req, nil, block)
		done <- outcome{p, reject}
	}()
	// The row must join as a follower (the key is held until finish), so
	// wait for the dedup, then hand it the leader's deadline rejection.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Dedups == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.flight.finish(key, c, nil, errDeadline())
	got := <-done
	if got.reject != nil {
		t.Fatalf("row inherited the leader's deadline as a terminal outcome: %+v", got.reject)
	}
	if got.p == nil || len(got.p.Runs) == 0 {
		t.Fatalf("row did not recompute after the inherited deadline: %+v", got.p)
	}
}

// TestBatchRowHedgeRescuesDelayedPrimary pins that batch rows hedge like
// /simulate: every primary attempt straggles far past HedgeAfter, the hedge
// re-dispatch answers instead, and the finished grid is byte-identical to a
// fault-free run's.
func TestBatchRowHedgeRescuesDelayedPrimary(t *testing.T) {
	const attempts = 3
	const spec = `{"algs":["prefix"],"ns":[64],"ps":[2,4],"seeds":[1,2],"row_deadline_ms":20000}`
	clean := newTestServer(t, Config{Workers: 2})
	want := gridBody(t, clean, parseStream(t, postBatch(clean, spec).Body.Bytes()).header.Job)

	s := newTestServer(t, Config{
		Workers: 2, BatchParallel: 1, MaxAttempts: attempts, HedgeAfter: 10 * time.Millisecond,
		Injector: func(_, attempt int, _ string) Fault {
			if attempt < attempts {
				return Fault{Delay: 5 * time.Second} // primaries only
			}
			return Fault{}
		},
	})
	sp := parseStream(t, postBatch(s, spec).Body.Bytes())
	if sp.trailer.Status != "done" || sp.trailer.Counts[jobs.RowOK] != 4 {
		t.Fatalf("hedged batch did not finish ok: %+v", sp.trailer)
	}
	if got := gridBody(t, s, sp.header.Job); !bytes.Equal(got, want) {
		t.Fatalf("hedged grid differs from the fault-free grid:\n%s\nvs\n%s", got, want)
	}
	if st := s.Stats(); st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("batch rows did not hedge: %+v", st)
	}
}

// TestBatchTransientRejectCheckpointsRow pins that a transient admission
// rejection escaping resolve (only possible when the server is stopping)
// checkpoints the row back to unstarted — no journal record, no terminal
// RowFailed — so a resumed job recomputes it instead of serving a serving
// artifact as a permanent result.
func TestBatchTransientRejectCheckpointsRow(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	spec := jobs.Spec{Algs: []string{"prefix"}, Ns: []int{64}, Ps: []int{4}, Seeds: []int64{42}}
	rows, err := expandRows(&spec, s.cfg.Limits, s.cfg.MaxBatchRows)
	if err != nil {
		t.Fatal(err)
	}
	job := jobs.NewJob("ckpt", spec, rowKeys(rows))
	e := &batchEntry{job: job, rows: rows}
	key := job.Key(0)
	c, leader := s.flight.join(key)
	if !leader {
		t.Fatal("test flight already occupied")
	}
	if !job.Start(0) {
		t.Fatal("row did not start")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.runRow(e, 0)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Dedups == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Drain() // stopping: the transient outcome escapes instead of retrying
	s.flight.finish(key, c, nil, errRateLimited())
	<-done
	if st := job.StatusOf(0); st != jobs.RowUnstarted {
		t.Fatalf("transient rejection must checkpoint the row to unstarted, got %q", st)
	}
	if n := s.Stats().BatchRows; n != 0 {
		t.Fatalf("checkpointed row must not count as terminal: BatchRows=%d", n)
	}
}

// TestBatchRetentionEvictsCompletedJobs pins the retention cap: once the
// index exceeds MaxBatchJobs, the oldest completed job is evicted (404 from
// then on) and its journal file deleted, while newer jobs and their
// journals survive.
func TestBatchRetentionEvictsCompletedJobs(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 2, JournalDir: dir, MaxBatchJobs: 2})
	defer s.Close()
	ids := make([]string, 0, 3)
	for seed := 1; seed <= 3; seed++ {
		sp := parseStream(t, postBatch(s, fmt.Sprintf(
			`{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[%d]}`, seed)).Body.Bytes())
		if sp.trailer.Status != "done" {
			t.Fatalf("job %d did not finish: %+v", seed, sp.trailer)
		}
		ids = append(ids, sp.header.Job)
	}
	if rr := get(s, "/batch/"+ids[0]); rr.Code != http.StatusNotFound {
		t.Fatalf("oldest completed job must be evicted: want 404, got %d", rr.Code)
	}
	for _, id := range ids[1:] {
		if rr := get(s, "/batch/"+id); rr.Code != http.StatusOK {
			t.Fatalf("job %s wrongly evicted: got %d", id, rr.Code)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".ndjson")); err != nil {
			t.Fatalf("retained job %s journal missing: %v", id, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ids[0]+".ndjson")); !os.IsNotExist(err) {
		t.Fatalf("evicted job's journal file must be removed, stat err: %v", err)
	}
	var listing map[string][]struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(get(s, "/batch").Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing["jobs"]) != 2 {
		t.Fatalf("want 2 retained jobs, got %+v", listing)
	}
}

// TestBodyTooLarge pins the request-body bound: an oversized body on either
// surface is a typed 413, counted in the outcome ledger.
func TestBodyTooLarge(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 64})
	big := fmt.Sprintf(`{"alg":"prefix","n":64,"p":4,"seed":1,"policy":%q}`, strings.Repeat("x", 128))
	rr := post(s, big)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("want 413, got %d: %s", rr.Code, rr.Body.String())
	}
	if w := decode(t, rr); w.Error == nil || w.Error.Code != codeTooLarge {
		t.Fatalf("want typed %q, got %s", codeTooLarge, rr.Body.String())
	}
	if rr := postBatch(s, `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[`+strings.Repeat("1,", 64)+`1]}`); rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch: want 413, got %d: %s", rr.Code, rr.Body.String())
	}
	// A body exactly at the limit still decodes.
	mustOK(t, s, `{"alg":"prefix","n":64,"p":4,"seed":1}`)
	st := s.Stats()
	if st.TooLarge != 1 {
		t.Fatalf("want TooLarge=1 (batch rejections are off-ledger), got %+v", st)
	}
	if sum := st.OK + st.Invalid + st.RateLimited + st.QueueFull + st.DrainRejected +
		st.DeadlineExpired + st.TooLarge + st.Internal; sum != st.Received {
		t.Fatalf("ledger mismatch: outcomes %d vs received %d: %+v", sum, st.Received, st)
	}
}

// TestStatzSchemaStable pins the /statz wire contract: content type, the
// exact top-level key set, and the exact counter key set. Renaming or
// dropping a field breaks dashboards, so it must break this test first.
func TestStatzSchemaStable(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	mustOK(t, s, baseReq)
	rr := get(s, "/statz")
	if rr.Code != http.StatusOK {
		t.Fatalf("statz: want 200, got %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("statz: want application/json, got %q", ct)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &top); err != nil {
		t.Fatalf("statz: %v", err)
	}
	wantTop := []string{"counters", "draining", "in_flight", "service", "uptime_ms"}
	if got := sortedKeys(top); !equalStrings(got, wantTop) {
		t.Fatalf("statz top-level schema changed:\n got %v\nwant %v", got, wantTop)
	}
	var svc string
	if json.Unmarshal(top["service"], &svc); svc != "rwsimd" {
		t.Fatalf("statz service: want rwsimd, got %q", svc)
	}
	var counters map[string]int64
	if err := json.Unmarshal(top["counters"], &counters); err != nil {
		t.Fatalf("statz counters: %v", err)
	}
	wantCounters := []string{
		"batch_jobs", "batch_rows", "body_too_large", "cache_hits", "cache_warmed",
		"corpus_exported_rows", "corpus_imported_rows", "corpus_rejected_rows",
		"deadline_expired", "dedups", "drain_rejected", "hedge_wins", "hedges",
		"internal", "invalid", "ok", "panics", "peer_warm_failures", "quarantined",
		"queue_full", "rate_limited", "received", "retries", "rows_quarantined",
		"simulations", "warm_skipped_rows",
	}
	got := make([]string, 0, len(counters))
	for k := range counters {
		got = append(got, k)
	}
	sort.Strings(got)
	if !equalStrings(got, wantCounters) {
		t.Fatalf("statz counter schema changed:\n got %v\nwant %v", got, wantCounters)
	}
	if counters["ok"] != 1 || counters["received"] != 1 {
		t.Fatalf("counters not live: %v", counters)
	}
}

// TestStatsSnapshotCopiesEveryCounter sets every counter to a distinct
// value and checks that snapshot returns them all, so a counter added to
// Stats needs no second list anywhere.
func TestStatsSnapshotCopiesEveryCounter(t *testing.T) {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for i := range v.NumField() {
		v.Field(i).SetInt(int64(i + 1))
	}
	if got := st.snapshot(); got != st {
		t.Fatalf("snapshot dropped counters:\n got %+v\nwant %+v", got, st)
	}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
