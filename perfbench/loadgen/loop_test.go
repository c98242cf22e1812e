package loadgen

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestOpenDropsAtTheBound(t *testing.T) {
	const rate, n = 200.0, 20
	start := time.Now()
	var mu sync.Mutex
	var sent, dropped []time.Time
	Open(start, 100*time.Millisecond, rate, 1, NewGenerator(1, 0, testMix),
		func(_ Op, due time.Time) {
			mu.Lock()
			sent = append(sent, due)
			mu.Unlock()
			time.Sleep(12 * time.Millisecond) // longer than two intervals
		},
		func(_ Op, due time.Time) {
			mu.Lock()
			dropped = append(dropped, due)
			mu.Unlock()
		})
	if len(sent)+len(dropped) != n {
		t.Fatalf("%d sent and %d dropped, want %d due", len(sent), len(dropped), n)
	}
	if len(sent) == 0 || len(dropped) == 0 {
		t.Fatalf("%d sent and %d dropped: a bound of 1 with 12 ms operations every 5 ms must do both", len(sent), len(dropped))
	}
	for _, due := range append(sent, dropped...) {
		i := due.Sub(start).Seconds() * rate
		if math.Abs(i-math.Round(i)) > 1e-6 {
			t.Errorf("due time %v is off the schedule", due.Sub(start))
		}
	}
}

func TestClosedRunsUntilTheDeadline(t *testing.T) {
	var mu sync.Mutex
	seqs := map[int][]int{}
	gens := []*Generator{NewGenerator(1, 0, testMix), NewGenerator(1, 1, testMix)}
	Closed(time.Now().Add(30*time.Millisecond), gens, func(op Op) {
		time.Sleep(time.Millisecond)
		mu.Lock()
		seqs[op.Stream] = append(seqs[op.Stream], op.Seq)
		mu.Unlock()
	})
	for stream := 0; stream < 2; stream++ {
		if len(seqs[stream]) < 3 {
			t.Errorf("stream %d ran %d operations in 30 ms", stream, len(seqs[stream]))
		}
		for i, s := range seqs[stream] {
			if s != i {
				t.Fatalf("stream %d ran operation %d as its %d-th", stream, s, i)
			}
		}
	}
}

func TestRecorderAndClock(t *testing.T) {
	var r Recorder
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			now := c.Now()
			r.Add(Sample{Class: Query, Due: now, Start: now, End: c.Now()})
		}()
	}
	wg.Wait()
	got := r.Samples()
	if len(got) != 8 {
		t.Fatalf("recorded %d samples, want 8", len(got))
	}
	got[0].Class = Batch
	if r.Samples()[0].Class != Query {
		t.Error("Samples must return a copy")
	}
	if c.Since(time.Now()) <= 0 {
		t.Error("Since is not measured from the epoch")
	}
}
