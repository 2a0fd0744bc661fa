package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// lockedClock is a fake clock shared by the generator and the
// goroutines that wait for results.
type lockedClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *lockedClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Unix(0, 0).Add(c.t)
}

func (c *lockedClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t += d
	c.mu.Unlock()
}

// TestDriveTimesFromDueTime stalls the generator on job 0's submission
// for 25ms, so job 1 (due at 10ms) goes out 15ms late. Every result
// arrives at 40ms. Latency must count from each job's due time, so the
// stall is charged to job 1 as well; lateness reports the stall.
func TestDriveTimesFromDueTime(t *testing.T) {
	c := &lockedClock{}
	dues := []time.Duration{0, 10 * time.Millisecond, 30 * time.Millisecond}
	results := make([]chan int, len(dues))
	for i := range results {
		results[i] = make(chan int, 1)
	}
	var sentAt []time.Duration
	release := make(chan struct{})
	go func() {
		<-release
		c.advance(40*time.Millisecond - c.now().Sub(time.Unix(0, 0)))
		for i, ch := range results {
			ch <- i
		}
	}()
	r := drive(dues, c.now, c.advance, func(i int) (<-chan int, error) {
		sentAt = append(sentAt, c.now().Sub(time.Unix(0, 0)))
		if i == 0 {
			c.advance(25 * time.Millisecond) // the stall
		}
		if i == len(dues)-1 {
			close(release)
		}
		return results[i], nil
	})
	wantSent := []time.Duration{0, 25 * time.Millisecond, 30 * time.Millisecond}
	wantLate := []time.Duration{0, 15 * time.Millisecond, 0}
	wantLat := []time.Duration{40 * time.Millisecond, 30 * time.Millisecond, 10 * time.Millisecond}
	for i := range dues {
		if sentAt[i] != wantSent[i] || r.late[i] != wantLate[i] || r.latency[i] != wantLat[i] {
			t.Errorf("job %d: sent %v late %v latency %v; want %v %v %v",
				i, sentAt[i], r.late[i], r.latency[i], wantSent[i], wantLate[i], wantLat[i])
		}
		if !r.sent[i] || r.results[i] != i {
			t.Errorf("job %d: sent %v result %d", i, r.sent[i], r.results[i])
		}
	}
}

// TestDriveCountsRefusals checks that a refused job is counted and
// never waited for.
func TestDriveCountsRefusals(t *testing.T) {
	c := &lockedClock{}
	done := make(chan int, 1)
	done <- 7
	r := drive([]time.Duration{0, time.Millisecond}, c.now, c.advance, func(i int) (<-chan int, error) {
		if i == 0 {
			return nil, errTooFewSamples // any error is a refusal
		}
		return done, nil
	})
	if r.refused != 1 || r.sent[0] || !r.sent[1] || r.results[1] != 7 {
		t.Fatalf("refused %d, sent %v, results %v", r.refused, r.sent, r.results)
	}
}

func TestJitteredDuesSeeded(t *testing.T) {
	a := jitteredDues(1000, 100, rand.New(rand.NewSource(3)))
	b := jitteredDues(1000, 100, rand.New(rand.NewSource(3)))
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("dues not seeded and ascending at %d", i)
		}
	}
	for i, d := range a {
		if lo := time.Duration(i) * 10 * time.Millisecond; d < lo || d >= lo+10*time.Millisecond {
			t.Fatalf("job %d due at %v, outside its 10ms slot at 100/s", i, d)
		}
	}
}
