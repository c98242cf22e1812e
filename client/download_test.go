package client_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"hcoc"
	"hcoc/client"
	"hcoc/internal/engine"
)

// TestImportAndRawDownload pins the SDK's raw artifact downloads: the
// sparse bytes decode to the release at its epsilon, the dense shape is
// a distinct encoding of the same release, and an unknown format is
// refused.
func TestImportAndRawDownload(t *testing.T) {
	a := newClient(t, newDaemon(t, engine.Options{}).URL)
	ctx := context.Background()

	up, err := a.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := a.Release(ctx, client.ReleaseRequest{Hierarchy: up.ID, Epsilon: 1, K: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := a.DownloadReleaseBytes(ctx, rel.Release, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, epsilon, err := hcoc.ReadReleaseSparse(bytes.NewReader(raw)); err != nil {
		t.Fatalf("raw bytes do not decode: %v", err)
	} else if epsilon != 1 {
		t.Fatalf("epsilon = %v, want 1", epsilon)
	}
	// The dense shape is a distinct artifact encoding of the same release.
	dense, err := a.DownloadReleaseBytes(ctx, rel.Release, "dense")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, dense) {
		t.Fatal("sparse and dense downloads returned identical bytes")
	}
	if _, err := a.DownloadReleaseBytes(ctx, rel.Release, "bogus"); err == nil {
		t.Fatal("bogus format succeeded")
	}
}

// TestBudgetErrorString pins the typed budget-refusal error text the
// SDK surfaces to operators.
func TestBudgetErrorString(t *testing.T) {
	ts := newDaemon(t, engine.Options{MaxEpsilonPerHierarchy: 0.5})
	c := newClient(t, ts.URL)
	ctx := context.Background()
	up, err := c.UploadHierarchy(ctx, "US", testGroups())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Release(ctx, client.ReleaseRequest{Hierarchy: up.ID, Epsilon: 1, K: 50, Seed: 7})
	if err == nil {
		t.Fatal("over-budget release succeeded")
	}
	msg := fmt.Sprint(err)
	if msg == "" {
		t.Fatal("budget error has empty string form")
	}
}
