package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Parent is 0 for a root; spans of one operation share the
// root's ID through their parent chain.
type span struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent"`
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the tracing-off state: every method is a no-op, so call sites stay
// unconditional and the untraced run pays one nil check per call.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	next  int64
	// limit bounds how many spans one name may contribute, so that a
	// phase with tens of thousands of requests does not produce a trace
	// nobody can open; dropped counts what the limit refused.
	limit   int
	perName map[string]int
	dropped map[string]int
}

func newRecorder(limitPerName int) *recorder {
	return &recorder{
		epoch:   time.Now(),
		limit:   limitPerName,
		perName: map[string]int{},
		dropped: map[string]int{},
	}
}

// start opens a span and returns its ID, or 0 when tracing is off or the
// name's limit is reached. A child of a refused parent is refused too.
func (r *recorder) start(parent int64, name string) int64 {
	if r == nil {
		return 0
	}
	return r.add(parent, name, time.Now(), time.Time{}, nil)
}

// end closes a span opened by start.
func (r *recorder) end(id int64, attrs map[string]any) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	s := &r.spans[id-1]
	s.EndNS = now
	s.Attrs = attrs
	r.mu.Unlock()
}

// add records a finished span (end non-zero) or opens one (end zero).
func (r *recorder) add(parent int64, name string, start, end time.Time, attrs map[string]any) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.limit > 0 && r.perName[name] >= r.limit {
		r.dropped[name]++
		return 0
	}
	r.perName[name]++
	r.next++
	s := span{ID: r.next, Parent: parent, Name: name,
		StartNS: start.Sub(r.epoch).Nanoseconds(), Attrs: attrs}
	if !end.IsZero() {
		s.EndNS = end.Sub(r.epoch).Nanoseconds()
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	doc := struct {
		Spans   []span         `json:"spans"`
		Dropped map[string]int `json:"dropped_over_limit,omitempty"`
	}{r.spans, r.dropped}
	b, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// merged first, and children are clipped to the parent's interval).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered := int64(0)
		cursor := s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < cursor {
				lo = cursor
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return out
}

// selfByName sums self time per span name, the per-layer view of a trace.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
