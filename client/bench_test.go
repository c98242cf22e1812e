package client_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/serve"
)

// BenchmarkBatchQuery measures the batch endpoint's reason to exist:
// answering N node queries in one round trip and one engine pass versus
// N sequential /v1/query calls. At N=16 the batch path amortizes 16
// HTTP exchanges, 16 cache reads and 16 lock acquisitions into one.
// The cross arm sends 16 emd entries across two releases, the shape of
// the load generators' cross-release batches: its body is over 1 KiB,
// so it times the gzipped request path, compressor and decompressor
// included.
func BenchmarkBatchQuery(b *testing.B) {
	srv, err := serve.NewServer(engine.New(engine.Options{}), nil)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	var groups []hcoc.Group
	for leaf := 0; leaf < 16; leaf++ {
		for i := 0; i < 50; i++ {
			groups = append(groups, hcoc.Group{
				Path: []string{fmt.Sprintf("R%02d", leaf)},
				Size: int64(i%7 + 1),
			})
		}
	}
	h, err := c.UploadHierarchy(ctx, "root", groups)
	if err != nil {
		b.Fatal(err)
	}
	rel, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 100, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	rel2, err := c.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 100, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}

	nodes := make([]string, 16)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("root/R%02d", i)
	}
	params := client.QueryParams{Quantiles: []float64{0.5, 0.9, 0.99}, TopCode: 8}

	run := func(b *testing.B, qs []client.NodeQuery) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			results, err := c.BatchQuery(ctx, rel.Release, qs)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range results {
				if r.Error != "" {
					b.Fatal(r.Error)
				}
			}
		}
	}
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sequential/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					if _, err := c.Query(ctx, rel.Release, nodes[j], params); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("batch/N=%d", n), func(b *testing.B) {
			qs := make([]client.NodeQuery, n)
			for j := range qs {
				qs[j] = client.NodeQuery{Node: nodes[j], Quantiles: params.Quantiles, TopCode: params.TopCode}
			}
			run(b, qs)
		})
	}
	b.Run("cross/N=16", func(b *testing.B) {
		qs := make([]client.NodeQuery, 16)
		for j := range qs {
			qs[j] = client.NodeQuery{Op: "emd", Releases: []string{rel.Release, rel2.Release}, Node: nodes[j]}
		}
		run(b, qs)
	})
}
