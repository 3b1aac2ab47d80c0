package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent links a span to the span that caused it (0 = root).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Req    string    `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: do still runs the call, but records nothing.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// do runs fn inside a span named name under parent, passing fn the new
// span's ID so it can parent its own calls.
func (t *tracer) do(parent int64, req, name string, fn func(id int64) error) error {
	if t == nil {
		return fn(0)
	}
	id := t.next.Add(1)
	start := time.Now()
	err := fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return err
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durationsMs returns the durations of every span named name, in ms.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, ms(s.End.Sub(s.Start)))
		}
	}
	return out
}

// selfMs returns the self time of every span named name, in ms: its
// duration minus the part of its interval its child spans cover.
func (t *tracer) selfMs(name string) []float64 {
	all := t.snapshot()
	children := make(map[int64][]span)
	for _, s := range all {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range all {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		covered := time.Duration(0)
		var curLo, curHi time.Time
		flush := func() {
			if curHi.After(curLo) {
				covered += curHi.Sub(curLo)
			}
		}
		for i, k := range kids {
			lo, hi := k.Start, k.End
			if lo.Before(s.Start) {
				lo = s.Start
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if i > 0 && !lo.After(curHi) {
				if hi.After(curHi) {
					curHi = hi
				}
				continue
			}
			if i > 0 {
				flush()
			}
			curLo, curHi = lo, hi
		}
		if len(kids) > 0 {
			flush()
		}
		out = append(out, ms(s.End.Sub(s.Start)-covered))
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
