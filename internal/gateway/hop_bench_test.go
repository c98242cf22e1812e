package gateway

import (
	"context"
	"fmt"
	"testing"

	"hcoc"
	"hcoc/client"
)

// BenchmarkGatewayHop measures what the gateway hop adds to a read.
// Two backends share one in-process s3stub bucket behind a gateway at
// R=2, over one warm release of a 4-state, 32-county tree. Each read
// runs through the SDK twice: straight to the release's primary
// (direct) and through the gateway, which routes it to that same
// primary (gateway). The difference between the two arms is the hop.
func BenchmarkGatewayHop(b *testing.B) {
	ctx := context.Background()
	stub := newStub(b)
	backends := []*backendFixture{newSharedBackend(b, stub), newSharedBackend(b, stub)}
	gw, via, _ := newGateway(b, 2, 1, backends...)

	var groups []hcoc.Group
	for s := 0; s < 4; s++ {
		for c := 0; c < 8; c++ {
			for i := 0; i < 12; i++ {
				groups = append(groups, hcoc.Group{
					Path: []string{fmt.Sprintf("S%d", s), fmt.Sprintf("C%d", c)},
					Size: int64((s+c+i)%9 + 1),
				})
			}
		}
	}
	h, err := via.UploadHierarchy(ctx, "US", groups)
	if err != nil {
		b.Fatal(err)
	}
	rel, err := via.Release(ctx, client.ReleaseRequest{Hierarchy: h.ID, Epsilon: 1, K: 100, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	direct := byURL(b, backends, gw.Cluster().Owners(hierarchyFP(h.ID))[0]).c

	params := client.QueryParams{Quantiles: []float64{0.5, 0.9}, TopCode: 8}
	batch := make([]client.NodeQuery, 8)
	for i := range batch {
		batch[i] = client.NodeQuery{Node: fmt.Sprintf("US/S%d/C%d", i%4, i), Quantiles: []float64{0.5}}
	}
	reads := []struct {
		name string
		read func(c *client.Client) error
	}{
		{"query", func(c *client.Client) error {
			_, err := c.Query(ctx, rel.Release, "US/S1", params)
			return err
		}},
		{"batch", func(c *client.Client) error {
			_, err := c.BatchQuery(ctx, rel.Release, batch)
			return err
		}},
		{"download", func(c *client.Client) error {
			_, err := c.DownloadReleaseBytes(ctx, rel.Release, "")
			return err
		}},
	}
	for _, rd := range reads {
		for _, arm := range []struct {
			name string
			c    *client.Client
		}{{"direct", direct}, {"gateway", via}} {
			b.Run(rd.name+"/"+arm.name, func(b *testing.B) {
				if err := rd.read(arm.c); err != nil { // warm the primary's LRU
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rd.read(arm.c); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
