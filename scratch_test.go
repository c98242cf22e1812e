package hcoc

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// raceEnabled reports whether the tests run under the race detector,
// which slows the Hc kernel by an order of magnitude; race_test.go sets
// it.
var raceEnabled bool

// TestReleaseSparseConcurrentScratch runs releases from 8 goroutines at
// once, twice over, at bounds whose Hc scratch is pooled and at the
// first that is not (2^17+1), with mixed seeds, and requires every
// artifact byte-equal to the same release run alone. The releases hand
// pooled scratch back and take it up again while others run, so any
// state that leaks between them, or any sharing of one entry, shows as
// a different artifact (or, under -race, as a race).
func TestReleaseSparseConcurrentScratch(t *testing.T) {
	ks := []int{10000, 100000, 1<<17 + 1}
	if raceEnabled || testing.Short() {
		ks = []int{1000, 10000, 1<<17 + 1}
	}
	tree, err := SyntheticTree(DatasetRaceHawaiian, DatasetConfig{Seed: 1, Scale: 0.05, WestCoast: true})
	if err != nil {
		t.Fatal(err)
	}
	const releases = 8
	opts := func(i int) Options {
		return Options{Epsilon: 0.5, K: ks[i%len(ks)], Seed: int64(100 + i), Workers: 2}
	}
	artifact := func(i int) ([]byte, error) {
		o := opts(i)
		rel, err := ReleaseSparse(tree, o)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := WriteReleaseSparse(&buf, rel, o.Epsilon); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	alone := make([][]byte, releases)
	for i := range alone {
		if alone[i], err = artifact(i); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make([]error, releases)
		for i := 0; i < releases; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := artifact(i)
				if err == nil && !bytes.Equal(got, alone[i]) {
					err = fmt.Errorf("release %d (K=%d, seed %d): %d bytes differ from the %d of the same release run alone",
						i, opts(i).K, opts(i).Seed, len(got), len(alone[i]))
				}
				errs[i] = err
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Errorf("round %d: %v", round, err)
			}
		}
	}
}
