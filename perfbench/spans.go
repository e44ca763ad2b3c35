package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans that belong to one caller operation share Op; Parent is the span
// that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was created
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newID returns a fresh span or operation id (0 when tracing is off).
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	return l.ids.Add(1)
}

// add records a finished span and returns its id.
func (l *spanLog) add(name string, op, parent int64, start, end time.Time) int64 {
	return l.addID(l.newID(), name, op, parent, start, end)
}

// addID records a finished span under an id reserved earlier with newID,
// so that children recorded first can name it as their parent.
func (l *spanLog) addID(id int64, name string, op, parent int64, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
	return id
}

// selfTime is the per-name total of span durations and of self time: a
// span's duration minus the part of its interval its children cover.
type selfTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

func (l *spanLog) selfTimes() []selfTime {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := make(map[string]*selfTime)
	for _, s := range l.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += float64(dur) / 1e6
		st.Self += float64(dur-covered(s.Start, s.End, children[s.ID])) / 1e6
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves every span and the self-time table as one JSON file.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	self := l.selfTimes()
	l.mu.Lock()
	body, err := json.Marshal(struct {
		Self  []selfTime `json:"self"`
		Spans []span     `json:"spans"`
	}{self, l.spans})
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
