package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"hcoc/internal/store"
)

// TestMetricsLedgerTotal: the ledger total Metrics reports is the sum
// of the per-tenant spends after random charges and refunds over 1,000
// fingerprints, on a fresh engine and on one that replayed a store's
// ledger. Every amount is a multiple of 1/64, so every sum is exact in
// any order and the comparison can be exact.
func TestMetricsLedgerTotal(t *testing.T) {
	fps := make([]string, 1000)
	for i := range fps {
		fps[i] = fmt.Sprintf("fp-%04d", i)
	}
	for _, replay := range []bool{false, true} {
		t.Run(fmt.Sprintf("replay=%v", replay), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			dyadic := func() float64 { return float64(1+rng.Intn(128)) / 64 }
			var opts Options
			var replayed float64
			if replay {
				st, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				for i := 0; i < 300; i++ {
					eps := dyadic()
					if err := st.AppendCharge(store.Meta{Key: fmt.Sprint("k", i), Hierarchy: fps[rng.Intn(len(fps))], Epsilon: eps}); err != nil {
						t.Fatal(err)
					}
					replayed += eps
				}
				opts.Store = st
			}
			e := New(opts)
			type charge struct {
				fp  string
				eps float64
			}
			var outstanding []charge
			for i := 0; i < 20000; i++ {
				if n := len(outstanding); n > 0 && rng.Intn(3) == 0 {
					j := rng.Intn(n)
					c := outstanding[j]
					outstanding[j] = outstanding[n-1]
					outstanding = outstanding[:n-1]
					e.refund(c.fp, c.eps)
					continue
				}
				c := charge{fps[rng.Intn(len(fps))], dyadic()}
				if err := e.charge(c.fp, c.eps, nil); err != nil {
					t.Fatal(err)
				}
				outstanding = append(outstanding, c)
			}
			var sum float64
			for _, ts := range e.TenantStats() {
				sum += ts.EpsilonSpent
			}
			m := e.Metrics()
			if m.EpsilonSpent != sum {
				t.Fatalf("EpsilonSpent = %v, the per-tenant spends sum to %v", m.EpsilonSpent, sum)
			}
			if want := sum - replayed; m.EpsilonSpentLocal != want {
				t.Fatalf("EpsilonSpentLocal = %v, want %v (%v replayed)", m.EpsilonSpentLocal, want, replayed)
			}
		})
	}
}

// metricsSink keeps BenchmarkEngineMetrics' snapshots live.
var metricsSink Metrics

// BenchmarkEngineMetrics times one Metrics snapshot against a ledger of
// 10 and of 100,000 charged fingerprints; /healthz takes one per probe.
func BenchmarkEngineMetrics(b *testing.B) {
	for _, n := range []int{10, 100000} {
		b.Run(fmt.Sprintf("fingerprints=%d", n), func(b *testing.B) {
			e := New(Options{})
			for i := 0; i < n; i++ {
				if err := e.charge(fmt.Sprintf("fp-%d", i), 1, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				metricsSink = e.Metrics()
			}
		})
	}
}
