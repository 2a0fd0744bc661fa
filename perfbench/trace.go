package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds the spans a traced run keeps in memory; later spans
// are counted as dropped instead of growing the heap without limit.
const maxSpans = 1 << 18

// spanRec is one finished span: a timed call into a layer of the
// program, made from the benchmark's own code. Req is the root span of
// the operation it belongs to, so every span of one job, cell or loop
// operation shares an identifier.
type spanRec struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Duration // since the tracer's epoch
}

// spanRef is an open span.
type spanRef struct {
	id, parent, req int64
	name            string
	start           time.Duration
}

// tracer records spans in memory and writes them as Chrome trace-event
// JSON when the run ends. The nil *tracer records nothing, so the
// untraced run pays one pointer test per span site.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	next    int64
	spans   []spanRec
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span; parent is the enclosing span (zero value for a
// root, which then starts a new request).
func (t *tracer) begin(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	req := parent.req
	if req == 0 {
		req = id
	}
	return spanRef{id: id, parent: parent.id, req: req, name: name, start: time.Since(t.epoch)}
}

// end closes a span opened by begin.
func (t *tracer) end(s spanRef) {
	if t == nil || s.id == 0 {
		return
	}
	t.record(s, time.Since(t.epoch))
}

// endAt closes a span at an explicit instant (used where the end was
// observed on another goroutine).
func (t *tracer) endAt(s spanRef, at time.Time) {
	if t == nil || s.id == 0 {
		return
	}
	t.record(s, at.Sub(t.epoch))
}

// span records a finished root or child span with explicit bounds.
func (t *tracer) span(name string, parent spanRef, start, end time.Time) {
	if t == nil {
		return
	}
	s := t.begin(name, parent)
	s.start = start.Sub(t.epoch)
	t.record(s, end.Sub(t.epoch))
}

func (t *tracer) record(s spanRef, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, spanRec{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name, Start: s.start, End: end})
}

// write exports the spans to path as Chrome trace-event JSON (one
// track per request), loadable in chrome://tracing or Perfetto.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: s.Req,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	dropped := t.dropped
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": dropped},
	})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// Timeline categories: where the host spends time while a simulated
// application runs.
const (
	catKernel  = iota // between Env calls: kernel bodies and core scheduling code
	catAccess         // Env.Load/Store/LoadAt/StoreAt
	catCompute        // Env.Compute/ComputeSerial
	catSync           // Join, Barrier.Wait, Cell operations, Spawn
	numCats
)

// timeline attributes host time to categories across proc handoffs.
// The simulator runs one proc at a time, so the host's time is one
// sequence of segments. Every call boundary the wrappers observe cuts
// the sequence: entering a call charges what follows to that call's
// category; returning from one charges what follows to the kernel. A
// call that hands off to another proc therefore keeps its self time
// only until the other proc is seen to resume (its own call returns).
type timeline struct {
	mu   sync.Mutex
	now  func() time.Time
	on   bool
	last time.Time
	cur  int
	acc  [numCats]time.Duration
}

func newTimeline(now func() time.Time) *timeline { return &timeline{now: now} }

// start begins attribution with cat current.
func (tl *timeline) start(cat int) {
	tl.mu.Lock()
	tl.on, tl.last, tl.cur = true, tl.now(), cat
	tl.mu.Unlock()
}

// mark closes the current segment and opens one of category cat.
func (tl *timeline) mark(cat int) {
	tl.mu.Lock()
	t := tl.now()
	if tl.on {
		tl.acc[tl.cur] += t.Sub(tl.last)
	}
	tl.last, tl.cur = t, cat
	tl.mu.Unlock()
}

// stop closes the current segment and ends attribution.
func (tl *timeline) stop() {
	tl.mark(catKernel)
	tl.mu.Lock()
	tl.on = false
	tl.mu.Unlock()
}

// totals returns the time charged to each category so far.
func (tl *timeline) totals() [numCats]time.Duration {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.acc
}
