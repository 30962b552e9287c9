package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// The layer is the name's prefix before the first dot.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs share the traced code path.
type tracer struct {
	traceID string
	t0      time.Time

	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer(traceID string) *tracer { return &tracer{traceID: traceID, t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) begin(parent int, name string) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, s: span{ID: t.newID(), Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()}}
}

// add records a span whose start and end were observed elsewhere.
func (t *tracer) add(parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: t.newID(), Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (s *openSpan) id() int {
	if s == nil {
		return 0
	}
	return s.s.ID
}

// rename relabels the span before it ends (a call whose kind is known
// only once it returns, such as an idle lease poll).
func (s *openSpan) rename(name string) {
	if s != nil {
		s.s.Name = name
	}
}

func (s *openSpan) end() {
	if s == nil {
		return
	}
	s.s.End = time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.s)
	s.t.mu.Unlock()
}

// scope is where new spans attach: a tracer (nil when untraced) and the
// parent span.
type scope struct {
	tr     *tracer
	parent int
}

func (sc scope) begin(name string) *openSpan     { return sc.tr.begin(sc.parent, name) }
func (sc scope) traced() bool                    { return sc.tr != nil }
func (sc scope) under(s *openSpan) scope         { return scope{sc.tr, s.id()} }
func (sc scope) add(name string, a, b time.Time) { sc.tr.add(sc.parent, name, a, b) }

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations in seconds of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// durationsPrefix is durations over every span whose name has prefix.
func (t *tracer) durationsPrefix(prefix string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfTimes attributes every instant covered by at least one span to
// the innermost spans open at that instant — spans with no open child —
// split equally among them when several run concurrently (two campaign
// workers, or a worker and a polling client). Without concurrency this
// is the span's duration minus its children's; with it, the self times
// still sum to the time covered, never more than the wall time.
func selfTimes(spans []span) []float64 {
	idx := make(map[int]int, len(spans))
	type event struct {
		at   int64
		open bool
		i    int
	}
	for i, s := range spans {
		idx[s.ID] = i
	}
	// Clip every span to its ancestors' intervals, so a call still in
	// flight when its traced unit ended (an idle lease poll) is not
	// counted outside the traced time, and a child observed to start a
	// moment before its parent still nests inside it.
	start := make([]int64, len(spans))
	end := make([]int64, len(spans))
	done := make([]bool, len(spans))
	var clip func(i int)
	clip = func(i int) {
		if done[i] {
			return
		}
		done[i] = true
		start[i], end[i] = spans[i].Start, spans[i].End
		if p, ok := idx[spans[i].Parent]; ok && p != i {
			clip(p)
			start[i], end[i] = max(start[i], start[p]), min(end[i], end[p])
		}
	}
	evs := make([]event, 0, 2*len(spans))
	for i := range spans {
		clip(i)
		if end[i] > start[i] {
			evs = append(evs, event{start[i], true, i}, event{end[i], false, i})
		}
	}
	sort.Slice(evs, func(a, b int) bool {
		ea, eb := evs[a], evs[b]
		switch {
		case ea.at != eb.at:
			return ea.at < eb.at
		case ea.open != eb.open:
			return !ea.open // close before open at the same instant
		case ea.open:
			return spans[ea.i].ID < spans[eb.i].ID // parents open first
		}
		return spans[ea.i].ID > spans[eb.i].ID // children close first
	})
	self := make([]float64, len(spans))
	open := make([]bool, len(spans))
	kids := make([]int, len(spans))
	counted := make([]int, len(spans)) // parent whose kids this span bumped
	leaves := map[int]bool{}
	var last int64
	for _, e := range evs {
		if dt := e.at - last; dt > 0 && len(leaves) > 0 {
			share := float64(dt) / 1e9 / float64(len(leaves))
			for i := range leaves {
				self[i] += share
			}
		}
		last = e.at
		i := e.i
		if e.open {
			open[i], counted[i] = true, -1
			if p, ok := idx[spans[i].Parent]; ok && open[p] {
				counted[i] = p
				kids[p]++
				delete(leaves, p)
			}
			if kids[i] == 0 {
				leaves[i] = true
			}
			continue
		}
		open[i] = false
		delete(leaves, i)
		if p := counted[i]; p >= 0 {
			kids[p]--
			if kids[p] == 0 && open[p] {
				leaves[p] = true
			}
		}
	}
	return self
}

// layerSelf sums self times by layer and returns them with the traced
// wall time: the summed durations of the root spans (the traced units
// and set-ups, which run one after another).
func (t *tracer) layerSelf() (map[string]float64, float64) {
	spans := t.snapshot()
	self := selfTimes(spans)
	out := map[string]float64{}
	var wall float64
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += self[i]
		if s.Parent == 0 {
			wall += float64(s.End-s.Start) / 1e9
		}
	}
	return out, wall
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		TraceID string `json:"trace_id"`
		Spans   []span `json:"spans"`
	}{t.traceID, t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanKey carries the current span ID through a context into calls the
// benchmark cannot wrap directly (HTTP requests a worker or client makes).
type spanKey struct{}

func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}
