package main

import (
	"sync"
	"sync/atomic"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/perf"
)

// tracedCluster is a pass-through wrapper around the Cluster handed to
// core.New. It counts every Env, Cell, Barrier and Handle call, cuts
// the host timeline at each call boundary (see timeline), and sums
// each thread's perf counters when the thread ends. It changes no
// behaviour: the fig6 traced pass checks that every virtual time it
// produces equals the untraced program's.
type tracedCluster struct {
	cluster.Cluster
	l *simLayers
}

// simLayers accumulates what tracedClusters observe across every run
// of a traced pass.
type simLayers struct {
	tl    *timeline
	calls atomic.Int64

	mu   sync.Mutex
	perf perf.Counters // summed at each thread's end
}

func newSimLayers() *simLayers { return &simLayers{tl: newTimeline(time.Now)} }

func (c *tracedCluster) NewCell(name string, home int) cluster.Cell {
	return &tracedCell{inner: c.Cluster.NewCell(name, home), c: c}
}

func (c *tracedCluster) NewBarrier(parties int) cluster.Barrier {
	return &tracedBarrier{inner: c.Cluster.NewBarrier(parties), c: c}
}

func (c *tracedCluster) Run(master func(cluster.Env)) error {
	c.l.tl.start(catKernel)
	defer c.l.tl.stop()
	return c.Cluster.Run(func(e cluster.Env) { c.thread(e, master) })
}

// thread runs one application thread on the wrapped Env and adds its
// counters to the sum when it ends.
func (c *tracedCluster) thread(e cluster.Env, fn func(cluster.Env)) {
	c.l.tl.mark(catKernel)
	fn(&tracedEnv{inner: e, c: c})
	ctr := e.Counters()
	c.l.mu.Lock()
	c.l.perf = c.l.perf.Add(ctr)
	c.l.mu.Unlock()
}

// call brackets one timed call into the cluster layer.
func (c *tracedCluster) call(cat int, fn func()) {
	c.l.calls.Add(1)
	c.l.tl.mark(cat)
	fn()
	c.l.tl.mark(catKernel)
}

// unwrap returns the Env the inner cluster handed out.
func unwrap(e cluster.Env) cluster.Env {
	if te, ok := e.(*tracedEnv); ok {
		return te.inner
	}
	return e
}

type tracedEnv struct {
	inner cluster.Env
	c     *tracedCluster
}

// Node, Now and Counters are counted but do not cut the timeline:
// they are getters, and their time stays with the code calling them.
func (e *tracedEnv) Node() int { e.c.l.calls.Add(1); return e.inner.Node() }

func (e *tracedEnv) Now() time.Duration { e.c.l.calls.Add(1); return e.inner.Now() }

func (e *tracedEnv) Counters() perf.Counters { e.c.l.calls.Add(1); return e.inner.Counters() }

func (e *tracedEnv) Compute(ops, vec float64) {
	e.c.call(catCompute, func() { e.inner.Compute(ops, vec) })
}

func (e *tracedEnv) ComputeSerial(ops, vec float64) {
	e.c.call(catCompute, func() { e.inner.ComputeSerial(ops, vec) })
}

func (e *tracedEnv) Load(r *cluster.Region, off, length int64) {
	e.c.call(catAccess, func() { e.inner.Load(r, off, length) })
}

func (e *tracedEnv) Store(r *cluster.Region, off, length int64) {
	e.c.call(catAccess, func() { e.inner.Store(r, off, length) })
}

func (e *tracedEnv) LoadAt(r *cluster.Region, offsets []int64, width int) {
	e.c.call(catAccess, func() { e.inner.LoadAt(r, offsets, width) })
}

func (e *tracedEnv) StoreAt(r *cluster.Region, offsets []int64, width int) {
	e.c.call(catAccess, func() { e.inner.StoreAt(r, offsets, width) })
}

func (e *tracedEnv) Spawn(node int, name string, fn func(cluster.Env)) cluster.Handle {
	var h cluster.Handle
	e.c.call(catSync, func() {
		h = e.inner.Spawn(node, name, func(ie cluster.Env) { e.c.thread(ie, fn) })
	})
	return &tracedHandle{inner: h, c: e.c}
}

type tracedHandle struct {
	inner cluster.Handle
	c     *tracedCluster
}

func (h *tracedHandle) Join(from cluster.Env) {
	h.c.call(catSync, func() { h.inner.Join(unwrap(from)) })
}

type tracedBarrier struct {
	inner cluster.Barrier
	c     *tracedCluster
}

func (b *tracedBarrier) Wait(e cluster.Env) bool {
	var last bool
	b.c.call(catSync, func() { last = b.inner.Wait(unwrap(e)) })
	return last
}

type tracedCell struct {
	inner cluster.Cell
	c     *tracedCluster
}

func (s *tracedCell) Load(e cluster.Env) int64 {
	var v int64
	s.c.call(catSync, func() { v = s.inner.Load(unwrap(e)) })
	return v
}

func (s *tracedCell) Store(e cluster.Env, v int64) {
	s.c.call(catSync, func() { s.inner.Store(unwrap(e), v) })
}

func (s *tracedCell) Add(e cluster.Env, delta int64) int64 {
	var v int64
	s.c.call(catSync, func() { v = s.inner.Add(unwrap(e), delta) })
	return v
}

func (s *tracedCell) CompareAndSwap(e cluster.Env, old, new int64) bool {
	var ok bool
	s.c.call(catSync, func() { ok = s.inner.CompareAndSwap(unwrap(e), old, new) })
	return ok
}
