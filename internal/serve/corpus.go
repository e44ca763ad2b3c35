package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"rwsfs/internal/serve/jobs"
)

// Fleet corpus sharing. GET /corpus streams this node's verified result
// corpus — journal-backed RowOK rows plus live cache entries — as canonical
// NDJSON: a header record with node identity and row count, one row record
// per entry carrying the canonical SHA-256 key, the normalized request and
// the exact cacheable result bytes, and an end trailer whose checksum runs
// over the row lines so a truncated or tampered transfer is always
// detectable. The peer warm-up client (Config.Peers + PeerWarm) pulls that
// stream from a sibling at startup and re-verifies every row with the same
// gate as -warm-cache before inserting it with source=peer provenance.

// corpusFaultKey is the key the export handler passes the fault injector;
// the worker slot is -1 and the attempt is the export ordinal.
const corpusFaultKey = "corpus"

// maxCorpusLine bounds one imported NDJSON line; a peer streaming an
// unbounded line would otherwise grow the importer's buffer without limit.
const maxCorpusLine = 1 << 20

// Corpus stream error classes. Truncation (the stream ended before the
// trailer — peer died, connection cut) is retryable as-is; corruption (bytes
// damaged or forged in flight) means the transfer cannot be trusted past the
// damage. The importer reports exactly one of them.
var (
	errCorpusTruncated = errors.New("corpus stream truncated")
	errCorpusCorrupt   = errors.New("corpus stream corrupt")
)

// corpusHeader opens the export stream.
type corpusHeader struct {
	Type string `json:"type"` // "header"
	Node string `json:"node"`
	Rows int    `json:"rows"`
}

// corpusRow is one verified result row. Request is the normalized request
// (serving-only fields stripped) so an importer can re-canonicalize it and
// check that Key matches — the row proves its own integrity. Result is the
// exact cacheable runs payload, byte-identical to what the exporting node
// serves and journals.
type corpusRow struct {
	Type    string          `json:"type"` // "row"
	Key     string          `json:"key"`
	Request Request         `json:"request"`
	Result  json.RawMessage `json:"result"`
}

// corpusTrailer closes the stream; Checksum is hex SHA-256 over the exact
// row line bytes (newlines included) in stream order.
type corpusTrailer struct {
	Type     string `json:"type"` // "end"
	Rows     int    `json:"rows"`
	Checksum string `json:"checksum"`
}

// wireRequest strips the serving-only fields (deadline, trace opt-in) from a
// normalized request so the corpus wire form is canonical: two nodes that
// computed the same cell export identical row content regardless of how the
// work arrived.
func wireRequest(r Request) Request {
	r.DeadlineMS = 0
	r.Trace = false
	return r
}

// admit is the one verification gate a stored result passes before this
// node serves or exports it: journal warm-up, peer import and corpus export
// all call it. The row's request must normalize and validate against lim,
// its key must equal the re-canonicalized request's key, and its result
// bytes must be exactly what encodeRuns produces for them — so a cache hit
// later serves the stored bytes unchanged, and nothing is ever served
// approximately. canon is the request's canonical key when the caller
// already derived it: a journal grid re-expanded by expandRows is
// normalized, validated and keyed row by row, so those rows go straight to
// the key comparison. "" makes the gate do all three itself.
func admit(lim Limits, row corpusRow, canon, src string) (*payload, error) {
	req := wireRequest(row.Request)
	req.normalize()
	if canon == "" {
		if err := req.validate(lim); err != nil {
			return nil, fmt.Errorf("invalid request: %w", err)
		}
		canon = req.Key()
	}
	if row.Key != canon {
		return nil, fmt.Errorf("key %s does not match re-canonicalized request (%s)", row.Key, canon)
	}
	if !canonicalRuns(row.Result) {
		return nil, errors.New("result bytes not canonical")
	}
	return &payload{Key: row.Key, Alg: req.Alg, Runs: row.Result, warmSrc: src, req: req}, nil
}

// canonicalRuns reports whether result bytes decode and re-encode to
// exactly the same bytes — the round trip admit requires.
func canonicalRuns(result []byte) bool {
	var runs []RunSummary
	return json.Unmarshal(result, &runs) == nil && bytes.Equal(encodeRuns(runs), result)
}

// journalPayloads passes a replayed job's RowOK records through admit
// against the job's re-expanded grid (rows and their keys). Records that
// fail the gate are logged and skipped.
func (s *Server) journalPayloads(id string, rows []Request, keys []string, recs []jobs.RowRecord) []*payload {
	var out []*payload
	for _, rec := range recs {
		if rec.Status != jobs.RowOK || rec.Index < 0 || rec.Index >= len(rows) {
			continue
		}
		p, err := admit(s.cfg.Limits, corpusRow{Key: rec.Key, Request: rows[rec.Index], Result: rec.Result},
			keys[rec.Index], sourceJournal)
		if err != nil {
			s.cfg.Logf("serve: journal job %s row %d: %v; skipped", id, rec.Index, err)
			continue
		}
		out = append(out, p)
	}
	return out
}

// corpusRows gathers the node's exportable corpus: every journaled RowOK
// record that passes admit, plus every live cache entry, deduplicated by key
// and sorted so the export is deterministic. Journal rows are re-verified at
// export time — a node never re-exports bytes it would not itself serve.
func (s *Server) corpusRows() []corpusRow {
	byKey := make(map[string]*payload)
	if s.journal != nil {
		replayed, err := s.journal.Replay()
		if err != nil {
			s.cfg.Logf("serve: corpus export: journal replay failed (exporting cache only): %v", err)
		}
		for _, rj := range replayed {
			spec := rj.Spec
			rows, err := expandRows(&spec, s.cfg.Limits, s.cfg.MaxBatchRows)
			if err != nil {
				continue
			}
			for _, p := range s.journalPayloads(rj.ID, rows, rowKeys(rows), rj.Rows) {
				byKey[p.Key] = p
			}
		}
	}
	for _, p := range s.cache.Snapshot() {
		byKey[p.Key] = p
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]corpusRow, len(keys))
	for i, k := range keys {
		p := byKey[k]
		out[i] = corpusRow{Type: "row", Key: k, Request: p.req, Result: p.Runs}
	}
	return out
}

// handleCorpus streams the corpus. Deliberately available while draining: a
// draining node's corpus is exactly what its replacement wants to pull. The
// injector is consulted once per export so the chaos suite can serve
// truncated, corrupted, stalled and erroring transfers to the warm-up client.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	var fault Fault
	if inj := s.cfg.Injector; inj != nil {
		fault = inj(-1, int(s.corpusExports.Add(1)-1), corpusFaultKey)
	}
	if fault.CorpusError {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: *errInternal("injected corpus export failure")})
		return
	}
	rows := s.corpusRows()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := http.NewResponseController(w).Flush // ErrNotSupported only skips the flush
	writeLine := func(v any) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		_, werr := w.Write(append(b, '\n'))
		return werr == nil
	}
	if !writeLine(corpusHeader{Type: "header", Node: s.nodeID, Rows: len(rows)}) {
		return
	}
	flush()
	sum := sha256.New()
	for i, row := range rows {
		if fault.CorpusTruncateAfter > 0 && i >= fault.CorpusTruncateAfter {
			flush()
			return // stream ends with no trailer: detectably truncated
		}
		if fault.CorpusStall && i == len(rows)/2 {
			flush()
			<-r.Context().Done()
			return
		}
		b, err := json.Marshal(row)
		if err != nil {
			s.cfg.Logf("serve: corpus export: row %s: %v", row.Key, err)
			return
		}
		b = append(b, '\n')
		// The checksum always covers the intact bytes; an injected corrupt
		// row damages only what goes on the wire, exactly like a flaky link.
		sum.Write(b)
		if fault.CorpusCorruptRow == i+1 {
			b = append(bytes.Repeat([]byte{'X'}, len(b)-1), '\n')
		}
		if _, err := w.Write(b); err != nil {
			return
		}
		s.stats.add(&s.stats.CorpusExported, 1)
	}
	writeLine(corpusTrailer{Type: "end", Rows: len(rows), Checksum: hex.EncodeToString(sum.Sum(nil))})
	flush()
}

// corpusImportStats accounts one import attempt: rows verified and handed to
// the sink, rows that failed verification, and verified rows the sink
// declined (cache full, server stopping).
type corpusImportStats struct {
	Imported int
	Rejected int
	Skipped  int
}

// readCorpusLine reads one bounded NDJSON line (newline included when
// present). Returns the partial line alongside io.EOF when the stream ends
// mid-line.
func readCorpusLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		if len(line) > maxCorpusLine {
			return line, fmt.Errorf("%w: line exceeds %d bytes", errCorpusCorrupt, maxCorpusLine)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		return line, err
	}
}

// importCorpusStream consumes one corpus export stream, verifying every row
// before offering it to insert. The returned error is nil for a complete,
// checksum-clean stream; otherwise it wraps exactly one of errCorpusTruncated
// (stream ended before the trailer) or errCorpusCorrupt (a line or the
// trailer cannot be trusted), so callers can distinguish a peer that died
// from a peer that lied. A row that parses but fails verification is counted
// Rejected and skipped — it aborts nothing, because each row proves its own
// integrity independently. insert returning false counts the row Skipped.
// The stats are meaningful even alongside an error: rows verified before the
// damage stay imported.
func importCorpusStream(r io.Reader, lim Limits, insert func(*payload) bool) (corpusImportStats, error) {
	var st corpusImportStats
	br := bufio.NewReaderSize(r, 64<<10)
	sum := sha256.New()
	sawHeader := false
	rows := 0
	for {
		line, err := readCorpusLine(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return st, fmt.Errorf("%w: stream ended before end trailer (%d rows read)", errCorpusTruncated, rows)
			}
			if errors.Is(err, errCorpusCorrupt) {
				return st, err
			}
			// Transport-level read failure: the bytes so far were fine, the
			// stream just stopped — same retryable class as truncation.
			return st, fmt.Errorf("%w: read: %v", errCorpusTruncated, err)
		}
		var probe struct {
			Type string `json:"type"`
		}
		if uerr := json.Unmarshal(line, &probe); uerr != nil {
			return st, fmt.Errorf("%w: unparseable line after %d rows: %v", errCorpusCorrupt, rows, uerr)
		}
		switch probe.Type {
		case "header":
			if sawHeader {
				return st, fmt.Errorf("%w: duplicate header", errCorpusCorrupt)
			}
			sawHeader = true
		case "row":
			if !sawHeader {
				return st, fmt.Errorf("%w: row before header", errCorpusCorrupt)
			}
			sum.Write(line)
			var rec corpusRow
			if uerr := json.Unmarshal(line, &rec); uerr != nil {
				return st, fmt.Errorf("%w: row %d undecodable: %v", errCorpusCorrupt, rows, uerr)
			}
			rows++
			p, verr := admit(lim, rec, "", sourcePeer)
			if verr != nil {
				st.Rejected++
				continue
			}
			if insert != nil && insert(p) {
				st.Imported++
			} else {
				st.Skipped++
			}
		case "end":
			if !sawHeader {
				return st, fmt.Errorf("%w: trailer before header", errCorpusCorrupt)
			}
			var tr corpusTrailer
			if uerr := json.Unmarshal(line, &tr); uerr != nil {
				return st, fmt.Errorf("%w: undecodable trailer: %v", errCorpusCorrupt, uerr)
			}
			if tr.Rows != rows {
				return st, fmt.Errorf("%w: trailer claims %d rows, stream carried %d", errCorpusCorrupt, tr.Rows, rows)
			}
			if got := hex.EncodeToString(sum.Sum(nil)); got != tr.Checksum {
				return st, fmt.Errorf("%w: checksum mismatch over %d rows", errCorpusCorrupt, rows)
			}
			if _, err := br.ReadByte(); err != io.EOF {
				return st, fmt.Errorf("%w: data after end trailer", errCorpusCorrupt)
			}
			return st, nil
		default:
			return st, fmt.Errorf("%w: unknown record type %q", errCorpusCorrupt, probe.Type)
		}
	}
}

// peerWarm is the warm-up goroutine: it walks the configured peers in order,
// giving each PeerAttempts tries with capped-exponential backoff, and stops
// at the first peer whose corpus transfers cleanly. Every failure path
// degrades — next attempt, next peer, and finally a cold start — because a
// dead fleet must never prevent this node from serving. The goroutine rides
// workerWG and aborts promptly on Close (baseCancel cancels both the backoff
// sleeps and any in-flight transfer).
func (s *Server) peerWarm() {
	defer s.workerWG.Done()
	defer close(s.warmDone)
	for _, peer := range s.cfg.Peers {
		for attempt := 0; attempt < s.cfg.PeerAttempts; attempt++ {
			if s.baseCtx.Err() != nil || s.Draining() {
				s.cfg.Logf("serve: peer warm-up aborted: server stopping")
				return
			}
			if attempt > 0 {
				if !sleepCtx(s.baseCtx, retryBackoff(s.cfg.PeerBackoff, attempt)) {
					return
				}
			}
			st, err := s.importFromPeer(peer)
			s.stats.add(&s.stats.CorpusImported, int64(st.Imported))
			s.stats.add(&s.stats.CorpusRejected, int64(st.Rejected))
			s.stats.add(&s.stats.WarmSkipped, int64(st.Skipped))
			if err == nil {
				s.cfg.Logf("serve: peer warm-up from %s: %d rows imported, %d rejected, %d skipped",
					peer, st.Imported, st.Rejected, st.Skipped)
				return
			}
			s.stats.add(&s.stats.PeerWarmFailures, 1)
			s.cfg.Logf("serve: peer warm-up from %s (attempt %d/%d): %v",
				peer, attempt+1, s.cfg.PeerAttempts, err)
		}
	}
	s.cfg.Logf("serve: peer warm-up: every peer failed; continuing with a cold cache")
}

// importFromPeer pulls one corpus transfer from one peer, bounded end to end
// by PeerTimeout under the server's lifetime context.
func (s *Server) importFromPeer(peer string) (corpusImportStats, error) {
	url := peer
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimRight(url, "/") + "/corpus"
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return corpusImportStats{}, fmt.Errorf("peer request: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return corpusImportStats{}, fmt.Errorf("peer connect: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return corpusImportStats{}, fmt.Errorf("peer answered %s", resp.Status)
	}
	return importCorpusStream(resp.Body, s.cfg.Limits, s.insertWarmRow)
}

// insertWarmRow is the peer import's cache sink: it refuses rows once the
// server is stopping (no inserts after teardown begins) and stops at cache
// capacity rather than evicting (AddIfSpace) — the warm-up is a best-effort
// prefill, never allowed to churn the live cache.
func (s *Server) insertWarmRow(p *payload) bool {
	if s.baseCtx.Err() != nil || s.Draining() {
		return false
	}
	return s.cache.AddIfSpace(p.Key, p)
}
