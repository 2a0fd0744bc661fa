package main

import (
	"math/rand"
	"sync"
	"time"
)

// jitteredDues returns n seeded arrival offsets at the given rate (jobs
// per second): job i is due at a uniformly drawn point of the i-th
// 1/rate slot. Arrivals keep the offered rate exactly over any window
// of a few slots, but gaps vary from 0 to 2/rate.
func jitteredDues(n int, rate float64, rng *rand.Rand) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
	}
	return dues
}

// loopResult is what one open-loop run observed.
type loopResult[T any] struct {
	start time.Time // due times are offsets from start
	// latency[i] is job i's time from its due time to its result; late[i]
	// is how long after its due time the generator sent it.
	latency []time.Duration
	late    []time.Duration
	results []T
	sent    []bool // false: the job was refused at admission
	refused int
}

// drive is an open-loop generator: it sends job i at start+dues[i], or
// as soon after as it can, whatever the system's state, and times each
// job from when it was due, so a stall also counts against the jobs it
// delayed. now and sleep are the clock (time.Now and time.Sleep outside
// tests); submit sends one job and returns the channel its result
// arrives on.
func drive[T any](dues []time.Duration, now func() time.Time, sleep func(time.Duration),
	submit func(i int) (<-chan T, error)) loopResult[T] {
	n := len(dues)
	r := loopResult[T]{
		latency: make([]time.Duration, n),
		late:    make([]time.Duration, n),
		results: make([]T, n),
		sent:    make([]bool, n),
	}
	var wg sync.WaitGroup
	start := now()
	r.start = start
	for i, d := range dues {
		due := start.Add(d)
		if wait := due.Sub(now()); wait > 0 {
			sleep(wait)
		}
		r.late[i] = now().Sub(due)
		ch, err := submit(i)
		if err != nil {
			r.refused++
			continue
		}
		r.sent[i] = true
		wg.Add(1)
		go func(i int, due time.Time, ch <-chan T) {
			defer wg.Done()
			res := <-ch
			r.latency[i] = now().Sub(due)
			r.results[i] = res
		}(i, due, ch)
	}
	wg.Wait()
	return r
}
