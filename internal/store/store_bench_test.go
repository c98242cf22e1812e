package store

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"hcoc"
	"hcoc/internal/store/s3stub"
)

// BenchmarkStoreRelease measures the store's release operations on the
// disk backend and on an S3 backend over an in-process s3stub whose
// manifest holds 200 chunks, all on one release: the ingest hierarchy
// (housing at scale 0.05, three levels, west coast) at K 10000, about
// 35 KB as an artifact. put is PutRelease of a new key (the artifact
// and its manifest line), get a GetRelease of an indexed key, and miss
// a GetRelease of a key nothing has put, the lookup every release the
// store has never seen makes before it computes. The s3 arms report
// reqs/op, the S3 requests per operation.
func BenchmarkStoreRelease(b *testing.B) {
	tree, err := hcoc.SyntheticTree(hcoc.DatasetHousing, hcoc.DatasetConfig{Seed: 1, Scale: 0.05, Levels: 3, WestCoast: true})
	if err != nil {
		b.Fatal(err)
	}
	rel, err := hcoc.ReleaseSparse(tree, hcoc.Options{Epsilon: 1, K: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m := meta("stored", "fp-bench", 1)

	backends := []struct {
		name string
		open func(b *testing.B, c *requestCounter) *Store
	}{
		{"disk", func(b *testing.B, _ *requestCounter) *Store {
			s, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return s
		}},
		{"s3", func(b *testing.B, c *requestCounter) *Store {
			srv := httptest.NewServer(s3stub.New("hcoc-test"))
			b.Cleanup(srv.Close)
			writer := manifestStore(b, srv.URL, 0, nil)
			appendCharges(b, writer, "fp1", 200)
			writer.Close()
			return manifestStore(b, srv.URL, 0, c)
		}},
	}
	ops := []struct {
		name string
		op   func(s *Store, i int) error
	}{
		{"put", func(s *Store, i int) error {
			m := m
			m.Key = fmt.Sprintf("put-%d", i)
			return s.PutRelease(m, rel)
		}},
		{"get", func(s *Store, _ int) error {
			_, _, err := s.GetRelease(m.Key)
			return err
		}},
		{"miss", func(s *Store, _ int) error {
			if _, _, err := s.GetRelease("absent"); !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("miss: %v, want ErrNotFound", err)
			}
			return nil
		}},
	}
	for _, be := range backends {
		for _, op := range ops {
			b.Run(be.name+"/"+op.name, func(b *testing.B) {
				c := newRequestCounter()
				s := be.open(b, c)
				defer s.Close()
				if err := s.PutRelease(m, rel); err != nil {
					b.Fatal(err)
				}
				c.take()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := op.op(s, i); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if be.name == "s3" {
					b.ReportMetric(float64(c.requests())/float64(b.N), "reqs/op")
				}
			})
		}
	}
}
