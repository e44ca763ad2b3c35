package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rwsfs/internal/serve"
	"rwsfs/internal/serve/jobs"
)

// batchSet is a fixed list of batch jobs with everything the benchmark
// needs to check their rows: the request bodies, each row's spelled-out
// request and canonical key.
type batchSet struct {
	specs  []jobs.Spec
	bodies [][]byte
	rows   [][]serve.Request
	keys   [][]string
	total  int
}

func newBatchSet(specs []jobs.Spec) (*batchSet, error) {
	bs := &batchSet{specs: specs}
	for _, sp := range specs {
		body, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		rows := specRows(sp)
		keys := make([]string, len(rows))
		for i := range rows {
			keys[i] = rows[i].Key()
		}
		bs.bodies = append(bs.bodies, body)
		bs.rows = append(bs.rows, rows)
		bs.keys = append(bs.keys, keys)
		bs.total += len(rows)
	}
	return bs, nil
}

// cycle is what one journal lifecycle measured and read back.
type cycle struct {
	rows, batches int64
	write         time.Duration
	batchLat      []time.Duration
	allocs        uint64
	restart       []time.Duration
	export        []time.Duration
	// grids holds each job's /batch/{id}/grid body, in job order.
	grids [][]byte
	sl    serveLayer
	jl    journalLayer
}

// journalCycle is one journal lifecycle in a fresh directory: the batch
// set is written through POST /batch (two closed-loop clients, each
// streaming its batch to the end) on a journaled server; the server is
// closed and restarted on the directory with WarmCache; every grid is
// read back and the corpus exported. With spans set, the servers are
// timed and the serving and journal layers are measured too; with hit
// set, the cached-hit probe runs on the restarted server.
func (b *bench) journalCycle(dir string, bs *batchSet, spans *spanLog, hit bool) (cycle, error) {
	var out cycle
	a, err := startServer(serve.Config{JournalDir: dir}, spans)
	if err != nil {
		return out, err
	}
	cl := newClient()
	defer cl.close()

	ids := make([]string, len(bs.specs))
	streamLines := make([][][]byte, len(bs.specs))
	var mu sync.Mutex
	before := a.srv.Stats()
	m0 := mallocs()
	t0 := time.Now()
	var wg sync.WaitGroup
	next := make(chan int, len(bs.specs)) // every job index, queued up front
	for j := range bs.specs {
		next <- j
	}
	close(next)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				res, err := cl.do(a, http.MethodPost, "/batch", bs.bodies[j], "client.batch")
				var id string
				var lines [][]byte
				if err == nil {
					id, lines, err = parseBatchStream(res.body, bs.keys[j])
				}
				if !b.check(err) {
					continue
				}
				mu.Lock()
				ids[j], streamLines[j] = id, lines
				out.batchLat = append(out.batchLat, res.elapsed)
				if res.timed {
					out.sl.handler = append(out.sl.handler, res.handler)
					out.sl.transport = append(out.sl.transport, res.transport)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.write = time.Since(t0)
	out.allocs = mallocs() - m0
	out.sl.addStats(before, a.srv.Stats())
	out.batches = int64(len(bs.specs))
	out.rows = int64(bs.total)
	out.jl.rowRates = []float64{float64(out.rows) / out.write.Seconds()}

	// Grid bytes before the restart; every grid line must equal the line
	// the stream delivered for that row.
	out.grids = make([][]byte, len(bs.specs))
	results := make(map[string][]byte, bs.total)
	for j, id := range ids {
		if id == "" {
			continue
		}
		res, err := cl.do(a, http.MethodGet, "/batch/"+id+"/grid", nil, "client.grid")
		if err == nil {
			err = checkGrid(res.body, streamLines[j], results)
		}
		if b.check(err) {
			out.grids[j] = res.body
		}
		if spans != nil {
			out.jl.freshRows, out.jl.statusRows = b.provenance(cl, a, id, out.jl.freshRows, out.jl.statusRows)
		}
	}
	if spans != nil {
		b.stageSamples(a.srv, &out.sl, map[string]bool{})
	}
	a.stop()

	// Restart on the journal with WarmCache and re-read every grid, then
	// export the corpus, each several times from a collected heap.
	var r *liveServer
	for k := 0; k < b.sz.restarts; k++ {
		if r != nil {
			r.stop()
		}
		runtime.GC()
		t1 := time.Now()
		if r, err = startServer(serve.Config{JournalDir: dir, WarmCache: true}, spans); err != nil {
			return out, err
		}
		grids := make([][]byte, len(ids))
		for j, id := range ids {
			if id != "" {
				res, err := cl.do(r, http.MethodGet, "/batch/"+id+"/grid", nil, "client.grid")
				if b.check(err) {
					grids[j] = res.body
				}
			}
		}
		out.restart = append(out.restart, time.Since(t1))
		for j := range ids {
			if ids[j] != "" && !bytes.Equal(grids[j], out.grids[j]) {
				b.check(fmt.Errorf("job %d: grid changed across the restart", j))
			}
		}
	}
	for k := 0; k < b.sz.exports; k++ {
		runtime.GC()
		t2 := time.Now()
		res, err := cl.do(r, http.MethodGet, "/corpus", nil, "client.corpus")
		out.export = append(out.export, time.Since(t2))
		if err == nil {
			var n int
			n, err = verifyCorpus(res.body, results)
			out.jl.corpusBytes, out.jl.corpusRows = int64(len(res.body)), int64(n)
		}
		b.check(err)
	}
	st := r.srv.Stats()
	out.jl.warmRows, out.jl.warmSkipped, out.jl.restarts = st.CacheWarmed, st.WarmSkipped, 1
	if hit {
		var reqs []serve.Request
		for _, rows := range bs.rows {
			reqs = append(reqs, rows...)
		}
		out.sl.hitUS, out.sl.hitAllocs = b.hitProbe(r.srv, reqs, results)
		out.sl.keyNS = keyProbe(reqs, b.sz.hitCalls)
	}
	r.stop()

	if spans != nil {
		t3 := time.Now()
		jr, err := jobs.OpenJournal(dir)
		var replayed []jobs.ReplayedJob
		if err == nil {
			replayed, err = jr.Replay()
		}
		t4 := time.Now()
		spans.add("jobs.replay", 0, 0, t3, t4)
		if b.check(err) && len(replayed) != len(ids) {
			b.check(fmt.Errorf("replay found %d jobs, want %d", len(replayed), len(ids)))
		}
		out.jl.replay = append(out.jl.replay, t4.Sub(t3))
		out.jl.journalBytes, out.jl.journaled = dirBytes(dir), int64(bs.total)
	}
	return out, nil
}

// parseBatchStream checks one POST /batch NDJSON stream: a job header,
// one ok row per expected key, and a done trailer. It returns the job id
// and each row's line, by row index.
func parseBatchStream(body []byte, keys []string) (string, [][]byte, error) {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != len(keys)+2 {
		return "", nil, fmt.Errorf("batch stream: %d lines, want %d", len(lines), len(keys)+2)
	}
	var head struct {
		Type, Job string
		Rows      int
	}
	if err := json.Unmarshal(lines[0], &head); err != nil || head.Type != "job" || head.Rows != len(keys) {
		return "", nil, fmt.Errorf("batch stream: bad header %.200s", lines[0])
	}
	rows := make([][]byte, len(keys))
	for _, ln := range lines[1 : len(lines)-1] {
		var rec jobs.RowRecord
		if err := json.Unmarshal(ln, &rec); err != nil {
			return "", nil, fmt.Errorf("batch stream: %v", err)
		}
		if rec.Type != "row" || rec.Index < 0 || rec.Index >= len(keys) || rows[rec.Index] != nil {
			return "", nil, fmt.Errorf("batch stream: bad row %.200s", ln)
		}
		if rec.Key != keys[rec.Index] || rec.Status != jobs.RowOK {
			return "", nil, fmt.Errorf("batch stream: row %d key %s status %s, want key %s ok",
				rec.Index, rec.Key, rec.Status, keys[rec.Index])
		}
		rows[rec.Index] = ln
	}
	var tail struct{ Type, Status string }
	if err := json.Unmarshal(lines[len(lines)-1], &tail); err != nil || tail.Type != "end" || tail.Status != "done" {
		return "", nil, fmt.Errorf("batch stream: bad trailer %.200s", lines[len(lines)-1])
	}
	return head.Job, rows, nil
}

// checkGrid compares a grid body with the streamed row lines and records
// each row's result bytes by key.
func checkGrid(grid []byte, stream [][]byte, results map[string][]byte) error {
	lines := bytes.Split(bytes.TrimSuffix(grid, []byte("\n")), []byte("\n"))
	if len(lines) != len(stream) {
		return fmt.Errorf("grid has %d rows, stream %d", len(lines), len(stream))
	}
	for i, ln := range lines {
		if !bytes.Equal(ln, stream[i]) {
			return fmt.Errorf("grid row %d differs from the streamed row", i)
		}
		var rec jobs.RowRecord
		if err := json.Unmarshal(ln, &rec); err != nil {
			return err
		}
		results[rec.Key] = rec.Result
	}
	return nil
}

// verifyCorpus checks a GET /corpus body: header, rows and trailer agree
// on the row count, the trailer checksum matches the row lines, every
// row's key is the canonical key of its request, and every result is the
// one the grid served. It returns the number of rows.
func verifyCorpus(body []byte, results map[string][]byte) (int, error) {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		return 0, fmt.Errorf("corpus: %d lines", len(lines))
	}
	var head struct {
		Type string
		Rows int
	}
	if err := json.Unmarshal(lines[0], &head); err != nil || head.Type != "header" {
		return 0, fmt.Errorf("corpus: bad header %.200s", lines[0])
	}
	var tail struct{ Type, Checksum string }
	var tailRows struct{ Rows int }
	last := lines[len(lines)-1]
	if json.Unmarshal(last, &tail) != nil || json.Unmarshal(last, &tailRows) != nil || tail.Type != "end" {
		return 0, fmt.Errorf("corpus: bad trailer %.200s", last)
	}
	rows := lines[1 : len(lines)-1]
	sum := sha256.New()
	for _, ln := range rows {
		sum.Write(ln)
		sum.Write([]byte{'\n'})
		var rec struct {
			Type    string
			Key     string
			Request serve.Request
			Result  json.RawMessage
		}
		if err := json.Unmarshal(ln, &rec); err != nil || rec.Type != "row" || rec.Request.Budget == nil {
			return 0, fmt.Errorf("corpus: bad row %.200s", ln)
		}
		if rec.Request.Key() != rec.Key {
			return 0, fmt.Errorf("corpus: row key %s is not its request's key", rec.Key)
		}
		if want, ok := results[rec.Key]; ok && !bytes.Equal(want, rec.Result) {
			return 0, fmt.Errorf("corpus: row %s result differs from the grid", rec.Key)
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != tail.Checksum {
		return 0, fmt.Errorf("corpus: checksum %s, trailer says %s", got, tail.Checksum)
	}
	if head.Rows != len(rows) || tailRows.Rows != len(rows) || len(rows) < len(results) {
		return 0, fmt.Errorf("corpus: header %d, trailer %d, rows %d, want at least %d",
			head.Rows, tailRows.Rows, len(rows), len(results))
	}
	return len(rows), nil
}

// provenance adds the fresh-row count and row count of one job's
// GET /batch/{id} status to the running totals.
func (b *bench) provenance(cl *client, ls *liveServer, id string, fresh, total int64) (int64, int64) {
	res, err := cl.do(ls, http.MethodGet, "/batch/"+id, nil, "client.status")
	var st struct {
		Grid []struct{ Source string }
	}
	if err == nil {
		err = json.Unmarshal(res.body, &st)
	}
	if !b.check(err) {
		return fresh, total
	}
	for _, g := range st.Grid {
		if g.Source == "fresh" {
			fresh++
		}
		total++
	}
	return fresh, total
}

// stageSamples reads the retained attempt timelines from GET /tracez,
// called in process so that it takes no client connection and no span,
// and adds the queue waits and attempt times of the dispatched ones to sl.
// seen holds the timelines already sampled, so that repeated polls count
// each timeline once.
func (b *bench) stageSamples(srv *serve.Server, sl *serveLayer, seen map[string]bool) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/tracez", nil))
	var tz struct{ Traces []serve.Timeline }
	err := json.Unmarshal(rec.Body.Bytes(), &tz)
	if err == nil && rec.Code != http.StatusOK {
		err = fmt.Errorf("tracez: status %d", rec.Code)
	}
	if !b.check(err) {
		return
	}
	for _, tl := range tz.Traces {
		id := tl.Key + "@" + tl.Start.Format(time.RFC3339Nano)
		if seen[id] {
			continue
		}
		seen[id] = true
		if q, a, ok := stageTimes(tl.Events); ok {
			sl.queueWait = append(sl.queueWait, q)
			sl.attempt = append(sl.attempt, a)
		}
	}
}

// hitProbe times sequential ServeHTTP calls on cached keys into a
// ResponseRecorder, with no network in between, and checks each answer is
// a cache hit with the expected result bytes. It returns microseconds and
// heap allocations per call.
func (b *bench) hitProbe(srv *serve.Server, reqs []serve.Request, results map[string][]byte) (float64, float64) {
	n := b.sz.hitCalls
	hreqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range hreqs {
		body, err := json.Marshal(reqs[i%len(reqs)])
		if !b.check(err) {
			return 0, 0
		}
		hreqs[i] = httptest.NewRequest(http.MethodPost, "/simulate", bytes.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	// One untimed call per distinct request first, so every key is cached.
	for _, r := range reqs {
		body, _ := json.Marshal(r) // marshalled without error above
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/simulate", bytes.NewReader(body)))
	}
	var busy time.Duration
	m0 := mallocs()
	for i := range hreqs {
		t0 := time.Now()
		srv.ServeHTTP(recs[i], hreqs[i])
		busy += time.Since(t0)
	}
	allocs := mallocs() - m0
	for i, rec := range recs {
		_, err := checkSimulate(rec.Code, rec.Body.Bytes(), reqs[i%len(reqs)].Key(), true, results)
		b.check(err)
	}
	return float64(busy.Nanoseconds()) / 1e3 / float64(n), float64(allocs) / float64(n)
}

// keySink keeps keyProbe's calls from being optimised away.
var keySink string

// keyProbe returns the nanoseconds per serve.Request.Key call on the
// generated requests.
func keyProbe(reqs []serve.Request, n int) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		keySink = reqs[i%len(reqs)].Key()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// simulateBody is the part of a POST /simulate answer the benchmark checks.
type simulateBody struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Runs   json.RawMessage `json:"runs"`
}

// checkSimulate checks one /simulate answer: status 200, the benchmark's
// own key, a cache hit when wantCached, and, when results knows the key,
// byte-identical runs. It returns the decoded answer.
func checkSimulate(code int, body []byte, key string, wantCached bool, results map[string][]byte) (simulateBody, error) {
	var sb simulateBody
	if code != http.StatusOK {
		return sb, fmt.Errorf("simulate: status %d: %.200s", code, body)
	}
	if err := json.Unmarshal(body, &sb); err != nil {
		return sb, fmt.Errorf("simulate: %v", err)
	}
	if sb.Key != key {
		return sb, fmt.Errorf("simulate: key %s, computed %s", sb.Key, key)
	}
	if wantCached && !sb.Cached {
		return sb, fmt.Errorf("simulate: key %s was not a cache hit", key)
	}
	if want, ok := results[key]; ok && !bytes.Equal(want, sb.Runs) {
		return sb, fmt.Errorf("simulate: key %s runs differ from the expected bytes", key)
	}
	return sb, nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir) // a missing dir counts as empty
	for _, e := range entries {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}
