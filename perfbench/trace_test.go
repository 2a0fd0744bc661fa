package main

import (
	"testing"
	"time"
)

// fakeClock is a settable time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time                { return c.t }
func (c *fakeClock) at(d time.Duration) *fakeClock { c.t = time.Unix(0, 0).Add(d); return c }

// TestTimelineHandoff replays a proc handoff: proc A enters a Load at
// 0 and faults; the simulator hands off to proc B, which resumes from
// its Barrier.Wait at 5, computes from 7 to 8, then enters a Load at
// 9 that hands control back to A, whose Load returns at 10. A's Load
// keeps its self time only until B resumes, and again from B's Load
// until A resumes: access = 5 + 1, compute = 1, kernel = 2 + 1.
func TestTimelineHandoff(t *testing.T) {
	c := new(fakeClock).at(0)
	tl := newTimeline(c.now)
	tl.start(catKernel)
	steps := []struct {
		at  time.Duration
		cat int
	}{
		{0, catAccess},  // A enters Load
		{5, catKernel},  // B's Barrier.Wait returns: B resumes
		{7, catCompute}, // B enters Compute
		{8, catKernel},  // B's Compute returns
		{9, catAccess},  // B enters Load, hands off to A
		{10, catKernel}, // A's Load returns
	}
	for _, s := range steps {
		c.at(s.at)
		tl.mark(s.cat)
	}
	c.at(10)
	tl.stop()
	got := tl.totals()
	want := [numCats]time.Duration{catKernel: 3, catAccess: 6, catCompute: 1, catSync: 0}
	if got != want {
		t.Fatalf("totals = %v, want %v", got, want)
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != 10 {
		t.Fatalf("self times sum to %v, want the 10 elapsed", sum)
	}
}

// TestTimelineIgnoresTimeOutsideRuns checks that time between two
// simulated runs is charged to nothing.
func TestTimelineIgnoresTimeOutsideRuns(t *testing.T) {
	c := new(fakeClock).at(0)
	tl := newTimeline(c.now)
	tl.start(catKernel)
	c.at(4)
	tl.stop()
	c.at(100)
	tl.mark(catSync)
	tl.start(catKernel)
	c.at(101)
	tl.stop()
	if got := tl.totals(); got[catKernel] != 5 || got[catSync] != 0 {
		t.Fatalf("totals = %v, want kernel 5 and nothing else", got)
	}
}

func TestSpansShareRequestID(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", spanRef{})
	child := tr.begin("child", root)
	grand := tr.begin("grand", child)
	tr.end(grand)
	tr.end(child)
	tr.end(root)
	other := tr.begin("other", spanRef{})
	tr.end(other)
	if len(tr.spans) != 4 {
		t.Fatalf("recorded %d spans", len(tr.spans))
	}
	for _, s := range tr.spans[:3] {
		if s.Req != root.id {
			t.Errorf("span %s has request %d, want %d", s.Name, s.Req, root.id)
		}
	}
	if tr.spans[1].Parent != child.parent || child.parent != root.id {
		t.Errorf("child parent = %d, want %d", tr.spans[1].Parent, root.id)
	}
	if tr.spans[3].Req == root.id {
		t.Errorf("a new root must start a new request")
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", spanRef{})) // must not panic
}
