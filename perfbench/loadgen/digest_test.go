package loadgen

import (
	"errors"
	"math"
	"testing"
)

const ms = int64(1e6)

// TestSummarizeTimesFromDue pins the open-loop rule: latency runs from
// the due time, so a late send counts against the operation.
func TestSummarizeTimesFromDue(t *testing.T) {
	d := Summarize([]Sample{
		{Class: Query, Due: 0, Start: 5 * ms, End: 7 * ms},
		{Class: Query, Due: 10 * ms, Start: 10 * ms, End: 11 * ms},
		{Class: Release, Due: 20 * ms, Start: 20 * ms, End: 30 * ms, Err: errors.New("boom")},
		{Class: Append, Due: 30 * ms, Start: 30 * ms, End: 30 * ms, Dropped: true},
	})
	if d.Attempted != 4 || d.Failed != 2 || d.Dropped != 1 || d.Completed != 2 {
		t.Fatalf("attempted %d failed %d dropped %d completed %d, want 4 2 1 2",
			d.Attempted, d.Failed, d.Dropped, d.Completed)
	}
	if got := d.ByClass[Query]; len(got) != 2 || got[0] != 1 || got[1] != 7 {
		t.Errorf("query latencies %v, want [1 7]: the first was due 7 ms before it completed", got)
	}
	if len(d.Late) != 3 || d.Late[2] != 5 {
		t.Errorf("lateness %v, want three sends, one 5 ms late", d.Late)
	}
	if d.First != 0 || d.Last != 30*ms {
		t.Errorf("phase [%d, %d], want [0, 30 ms]", d.First, d.Last)
	}
	if tp := d.Throughput(); math.Abs(tp-2/0.030) > 1e-9 {
		t.Errorf("throughput %g, want 2 operations in 30 ms", tp)
	}
}

// TestSummarizeDropAccounting mirrors hcoc-load's
// TestDigestDropAccounting: drops count as attempted and as failed, so
// 6 successes, 2 errors and 2 drops rate 4/10.
func TestSummarizeDropAccounting(t *testing.T) {
	var samples []Sample
	for i := int64(0); i < 6; i++ {
		samples = append(samples, Sample{Class: Query, Due: i * ms, Start: i * ms, End: (i + 1) * ms})
	}
	samples = append(samples,
		Sample{Class: Query, Err: errors.New("connection refused")},
		Sample{Class: Release, Err: errors.New("boom")},
		Sample{Class: Query, Dropped: true},
		Sample{Class: Batch, Dropped: true},
	)
	d := Summarize(samples)
	if d.Attempted != 10 || d.Failed != 4 || d.Dropped != 2 {
		t.Fatalf("attempted %d failed %d dropped %d, want 10 4 2", d.Attempted, d.Failed, d.Dropped)
	}
	if got := d.ErrorRate(); got != 0.4 {
		t.Fatalf("error rate %g, want 4/10", got)
	}
}

func TestEmptyDigest(t *testing.T) {
	d := Summarize(nil)
	if d.ErrorRate() != 1 || d.Throughput() != 0 {
		t.Fatalf("an empty phase rates %g errors at %g ops/s, want 1 and 0", d.ErrorRate(), d.Throughput())
	}
}
