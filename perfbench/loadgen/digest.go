package loadgen

import "sort"

// Sample is one attempted operation, timed in nanoseconds since the
// run's clock epoch. A closed loop sends an operation as soon as it is
// due, so Due equals Start; an open loop fixes Due in advance and Start
// records when the generator actually sent it.
type Sample struct {
	Class           Class
	Due, Start, End int64
	Err             error
	// Dropped marks an open-loop operation that fell due while the
	// in-flight bound was reached, so it was never sent.
	Dropped bool
}

// Failed reports whether the operation counts against the error rate:
// it returned an error or it was dropped.
func (s Sample) Failed() bool { return s.Err != nil || s.Dropped }

// LatencyMS is the time from when the operation was due to when it
// completed, in milliseconds.
func (s Sample) LatencyMS() float64 { return float64(s.End-s.Due) / 1e6 }

// Digest summarizes the samples of one load phase. Latencies are in
// milliseconds and sorted.
type Digest struct {
	// Attempted counts every sample, drops included; Failed counts
	// errors and drops, Dropped the drops alone, Completed the rest.
	Attempted, Failed, Dropped, Completed int
	// All holds the latency of every completed operation, and ByClass
	// the same per class.
	All     []float64
	ByClass map[Class][]float64
	// Late holds, for every operation sent, how long after its due time
	// it was sent: zero in a closed loop.
	Late []float64
	// First is the earliest due time and Last the latest completion, in
	// nanoseconds since the epoch.
	First, Last int64
}

// Summarize digests the samples of one phase.
func Summarize(samples []Sample) Digest {
	d := Digest{ByClass: make(map[Class][]float64)}
	for i, s := range samples {
		d.Attempted++
		if i == 0 || s.Due < d.First {
			d.First = s.Due
		}
		if s.Dropped {
			d.Failed++
			d.Dropped++
			continue
		}
		d.Late = append(d.Late, float64(s.Start-s.Due)/1e6)
		d.Last = max(d.Last, s.End)
		if s.Err != nil {
			d.Failed++
			continue
		}
		d.Completed++
		d.All = append(d.All, s.LatencyMS())
		d.ByClass[s.Class] = append(d.ByClass[s.Class], s.LatencyMS())
	}
	sort.Float64s(d.All)
	sort.Float64s(d.Late)
	for _, xs := range d.ByClass {
		sort.Float64s(xs)
	}
	return d
}

// ErrorRate is Failed over Attempted, drops counted on both sides; a
// phase that attempted nothing failed and rates 1.
func (d Digest) ErrorRate() float64 {
	if d.Attempted == 0 {
		return 1
	}
	return float64(d.Failed) / float64(d.Attempted)
}

// Throughput is completed operations per second between the first due
// time and the last completion.
func (d Digest) Throughput() float64 {
	if d.Last <= d.First {
		return 0
	}
	return float64(d.Completed) / (float64(d.Last-d.First) / 1e9)
}
