package loadgen

import (
	"math"
	"sync"
	"time"
)

// Clock times a run in nanoseconds since its epoch, on the monotonic
// clock.
type Clock struct{ epoch time.Time }

// NewClock starts a clock at the current instant.
func NewClock() Clock { return Clock{epoch: time.Now()} }

// Now returns the nanoseconds elapsed since the epoch.
func (c Clock) Now() int64 { return int64(time.Since(c.epoch)) }

// Since returns t as nanoseconds since the epoch.
func (c Clock) Since(t time.Time) int64 { return int64(t.Sub(c.epoch)) }

// Recorder collects samples from concurrent operations.
type Recorder struct {
	mu      sync.Mutex
	samples []Sample
}

// Add records one sample.
func (r *Recorder) Add(s Sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// Samples returns a copy of the samples recorded so far.
func (r *Recorder) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Sample(nil), r.samples...)
}

// Closed runs a closed loop: one goroutine per generator, each sending
// its next operation as soon as the previous one completed, until the
// deadline. do runs one operation and records its samples. Closed
// returns once every goroutine has finished its last operation.
func Closed(deadline time.Time, gens []*Generator, do func(Op)) {
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				do(g.Next())
			}
		}()
	}
	wg.Wait()
}

// Open runs an open loop: operation i of gen falls due at start +
// i/rate, for every due time before start+dur, and runs in its own
// goroutine with at most bound in flight. An operation that falls due
// while bound are in flight is not sent; drop records it. do receives
// each operation with its due time and records its samples. Open
// returns once every operation sent has finished.
func Open(start time.Time, dur time.Duration, rate float64, bound int, gen *Generator, do, drop func(Op, time.Time)) {
	slots := make(chan struct{}, bound)
	var wg sync.WaitGroup
	n := int(math.Ceil(dur.Seconds()*rate - 1e-9))
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		op := gen.Next()
		select {
		case slots <- struct{}{}:
		default:
			drop(op, due)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			do(op, due)
		}()
	}
	wg.Wait()
}
