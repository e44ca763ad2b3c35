package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rwsfs/internal/serve"
)

// Request headers that tie a client call to the handler span it caused.
const (
	hdrOp   = "X-Bench-Op"
	hdrSpan = "X-Bench-Span"
)

// liveServer is one serve.Server behind a loopback HTTP listener. When
// timed, a benchmark-side handler wraps ServeHTTP and records how long
// each request spent inside it.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}

	// spans is set on timed servers; on turns the recording on and off.
	spans   *spanLog
	on      atomic.Bool
	mu      sync.Mutex
	handled map[int64]time.Duration // by client op id, until the client collects it
}

func startServer(cfg serve.Config, spans *spanLog) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{srv: serve.New(cfg), url: "http://" + ln.Addr().String(),
		done: make(chan struct{}), spans: spans, handled: make(map[int64]time.Duration)}
	var h http.Handler = ls.srv
	if spans != nil {
		ls.on.Store(true)
		h = http.HandlerFunc(ls.serveTimed)
	}
	ls.hs = &http.Server{Handler: h}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return ls, nil
}

// serveTimed is the benchmark-side handler around ServeHTTP.
func (ls *liveServer) serveTimed(w http.ResponseWriter, r *http.Request) {
	if !ls.on.Load() {
		ls.srv.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	t0 := time.Now()
	ls.srv.ServeHTTP(w, r)
	t1 := time.Now()
	ls.spans.add("serve.handler", op, parent, t0, t1)
	if op != 0 {
		ls.mu.Lock()
		ls.handled[op] = t1.Sub(t0)
		ls.mu.Unlock()
	}
}

// handlerTime returns (and forgets) the handler time of client op id.
func (ls *liveServer) handlerTime(op int64) (time.Duration, bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	d, ok := ls.handled[op]
	delete(ls.handled, op)
	return d, ok
}

// stop drains and closes the daemon, then the listener, and waits for the
// serving goroutine to exit.
func (ls *liveServer) stop() {
	ls.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ls.hs.Shutdown(ctx); err != nil {
		ls.hs.Close()
	}
	<-ls.done
}

// client is a loopback HTTP client holding at most two connections.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call is one finished client request: status, body and round-trip time.
type call struct {
	status  int
	body    []byte
	elapsed time.Duration
	// handler is the time the request spent in ServeHTTP (timed servers
	// only); transport is the rest of the round trip.
	handler, transport time.Duration
	timed              bool
}

// do sends one request and reads the whole response. On a timed server it
// records a client span and pairs it with the handler span.
func (c *client) do(ls *liveServer, method, path string, body []byte, spanName string) (call, error) {
	req, err := http.NewRequest(method, ls.url+path, bytes.NewReader(body))
	if err != nil {
		return call{}, err
	}
	timed := ls.spans != nil && ls.on.Load()
	var op, sid int64
	if timed {
		op, sid = ls.spans.newID(), ls.spans.newID()
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(sid, 10))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return call{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return call{}, err
	}
	out := call{status: resp.StatusCode, body: data, elapsed: t1.Sub(t0)}
	if timed {
		ls.spans.addID(sid, spanName, op, 0, t0, t1)
		if h, ok := ls.handlerTime(op); ok {
			out.handler, out.transport, out.timed = h, out.elapsed-h, true
		}
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d from %s %s: %.200s", resp.StatusCode, method, path, data)
	}
	return out, nil
}

// stageTimes extracts queued->dispatched and first attempt->outcome from
// one attempt timeline; ok is false for timelines without a dispatch (cache
// hits, dedup followers).
func stageTimes(events []serve.TraceEvent) (queueWait, attempt time.Duration, ok bool) {
	var queued, dispatched, attemptAt, outcome int64 = -1, -1, -1, -1
	for _, e := range events {
		switch e.Type {
		case "queued":
			if queued < 0 {
				queued = e.AtUS
			}
		case "dispatched":
			if dispatched < 0 {
				dispatched = e.AtUS
			}
		case "attempt":
			if attemptAt < 0 {
				attemptAt = e.AtUS
			}
		case "outcome":
			outcome = e.AtUS
		}
	}
	if queued < 0 || dispatched < 0 || attemptAt < 0 || outcome < 0 {
		return 0, 0, false
	}
	return time.Duration(dispatched-queued) * time.Microsecond,
		time.Duration(outcome-attemptAt) * time.Microsecond, true
}
