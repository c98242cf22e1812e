package hcoc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

func TestReleaseRoundTrip(t *testing.T) {
	tree, err := BuildHierarchy("US", smallGroups(40, 300))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Release(tree, Options{Epsilon: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRelease(&buf, rel, 1.0); err != nil {
		t.Fatal(err)
	}
	back, eps, err := ReadRelease(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if eps != 1.0 {
		t.Errorf("epsilon = %f, want 1", eps)
	}
	if len(back) != len(rel) {
		t.Fatalf("round trip lost nodes: %d != %d", len(back), len(rel))
	}
	for path, h := range rel {
		if !h.Equal(back[path]) {
			t.Fatalf("node %q differs after round trip", path)
		}
	}
	// The reloaded artifact still passes the structural check.
	if err := Check(tree, back); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReleaseRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRelease(&buf, Histograms{}, 1); err == nil {
		t.Error("empty release accepted")
	}
}

func TestReadReleaseRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		"",
		"not json",
		`{"format":"wrong/v9","nodes":{"a":[1]}}`,
		`{"format":"hcoc-release/v1","nodes":{}}`,
		`{"format":"hcoc-release/v1","nodes":{"a":[1,-2]}}`,
		`{"format":"hcoc-release/v2-sparse","nodes":{}}`,
		`{"format":"hcoc-release/v2-sparse","nodes":{"a":[[1,-2]]}}`,
		`{"format":"hcoc-release/v2-sparse","nodes":{"a":[[-1,2]]}}`,
		`{"format":"hcoc-release/v2-sparse","nodes":{"a":[[3,1],[1,1]]}}`,
		`{"format":"hcoc-release/v2-sparse","nodes":{"a":[[2,1],[2,1]]}}`,
		`{"format":"hcoc-release/v2-sparse","nodes":{"a":[[2,0]]}}`,
		`{"format":"hcoc-release/v2-sparse","nodes":{"a":[[4194305,1]]}}`,
		`{"format":"hcoc-release/v2-sparse","nodes":{"a":[[01,1]]}}`,
		`{"format":"hcoc-release/v2-sparse","nodes":{"a":[[1.5,1]]}}`,
		`{"format":"hcoc-release/v2-sparse","nodes":{"a":[[1,2],]}}`,
		`{"format":"hcoc-release/v2-sparse","nodes":{"a":[[1,2]]},}`,
		`{"format":"hcoc-release/v2-sparse","nodes":{"a":[[1,2]]}`,
		"{\"format\":\"hcoc-release/v2-sparse\",\"nodes\":{\"a\tb\":[[1,2]]}}",
	} {
		if _, _, err := ReadRelease(strings.NewReader(bad)); err == nil {
			t.Errorf("bad artifact %q accepted by ReadRelease", bad)
		}
		if _, _, err := ReadReleaseSparse(strings.NewReader(bad)); err == nil {
			t.Errorf("bad artifact %q accepted by ReadReleaseSparse", bad)
		}
	}
}

// TestSparseReleaseRoundTrip covers the v2 wire format in all four
// direction pairs: sparse->sparse, sparse->dense, dense->sparse, and
// cross-format equality of the decoded releases.
func TestSparseReleaseRoundTrip(t *testing.T) {
	tree, err := BuildHierarchy("US", smallGroups(40, 300))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := ReleaseSparse(tree, Options{Epsilon: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	var v2 bytes.Buffer
	if err := WriteReleaseSparse(&v2, rel, 0.5); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := WriteRelease(&v1, rel.Dense(), 0.5); err != nil {
		t.Fatal(err)
	}
	if v2.Len() >= v1.Len() {
		t.Logf("note: v2 artifact (%d bytes) not smaller than v1 (%d bytes) on this instance", v2.Len(), v1.Len())
	}

	backSparse, eps, err := ReadReleaseSparse(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if eps != 0.5 {
		t.Errorf("epsilon = %f, want 0.5", eps)
	}
	backDense, _, err := ReadRelease(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromV1, _, err := ReadReleaseSparse(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(backSparse) != len(rel) || len(backDense) != len(rel) || len(fromV1) != len(rel) {
		t.Fatalf("round trips lost nodes: %d/%d/%d of %d", len(backSparse), len(backDense), len(fromV1), len(rel))
	}
	for path, s := range rel {
		if !s.Equal(backSparse[path]) {
			t.Fatalf("node %q differs after v2 sparse round trip", path)
		}
		if !s.Hist().Equal(backDense[path]) {
			t.Fatalf("node %q differs after v2 dense round trip", path)
		}
		if !s.Equal(fromV1[path]) {
			t.Fatalf("node %q differs after v1->sparse round trip", path)
		}
	}
	if err := CheckSparse(tree, backSparse); err != nil {
		t.Fatal(err)
	}
}

// TestReadReleaseBoundsDenseExpansion: many near-limit nodes pass the
// per-node size check but must not make the dense reader allocate
// their combined expansion; the sparse reader still accepts them.
func TestReadReleaseBoundsDenseExpansion(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"format":"hcoc-release/v2-sparse","nodes":{`)
	for i := 0; i < 20; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"n%d":[[4194303,1]]`, i)
	}
	sb.WriteString(`}}`)
	if _, _, err := ReadRelease(strings.NewReader(sb.String())); err == nil {
		t.Fatal("dense reader accepted an artifact expanding past the cell bound")
	}
	if _, _, err := ReadReleaseSparse(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("sparse reader rejected a valid artifact: %v", err)
	}
}

func TestWriteReleaseSparseRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReleaseSparse(&buf, SparseHistograms{}, 1); err == nil {
		t.Error("empty sparse release accepted")
	}
}

// TestSparseParserReadsWrittenArtifacts: every artifact
// WriteReleaseSparse writes takes the direct parser, with no fallback,
// and decodes to what the encoding/json path reads from it.
func TestSparseParserReadsWrittenArtifacts(t *testing.T) {
	trees := []struct {
		kind DatasetKind
		cfg  DatasetConfig
	}{
		{DatasetHousing, DatasetConfig{Seed: 1, Scale: 0.01, Levels: 3, WestCoast: true}},
		{DatasetRaceHawaiian, DatasetConfig{Seed: 2, Scale: 0.05}},
		{DatasetTaxi, DatasetConfig{Seed: 3, Scale: 0.02, Levels: 3}},
	}
	for _, tr := range trees {
		tree, err := SyntheticTree(tr.kind, tr.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Method{MethodHc, MethodNaive} {
			rel, err := ReleaseSparse(tree, Options{Epsilon: 1, K: 3000, Methods: []Method{m}, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			// Epsilon 0 is omitted from the artifact.
			for _, eps := range []float64{0, 0.1, 1, 3.5e-7} {
				var buf bytes.Buffer
				if err := WriteReleaseSparse(&buf, rel, eps); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%v/%v/eps=%g", tr.kind, m, eps)
				p := sparseParser{b: buf.Bytes()}
				got, gotEps, ok := p.parse()
				if !ok {
					t.Fatalf("%s: the direct parser refused a written artifact", name)
				}
				want, wantEps, err := decodeReleaseJSON(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if gotEps != wantEps || gotEps != eps || !reflect.DeepEqual(got, want) || len(got) != len(rel) {
					t.Fatalf("%s: direct parse differs from encoding/json (eps %g vs %g)", name, gotEps, wantEps)
				}
			}
		}
	}
}

// TestDecodeReleaseReadError: a read error after the artifact's last
// byte refuses nothing the encoding/json decoder, which stops at the
// end of the first value, accepts; one before it refuses.
func TestDecodeReleaseReadError(t *testing.T) {
	const artifact = `{"format":"hcoc-release/v2-sparse","epsilon":1,"nodes":{"US":[[1,2]]}}`
	broken := errors.New("connection reset")
	rel, eps, err := ReadReleaseSparse(io.MultiReader(strings.NewReader(artifact), iotest.ErrReader(broken)))
	if err != nil || eps != 1 || !rel["US"].Equal(SparseHistogram{{Size: 1, Count: 2}}) {
		t.Fatalf("complete artifact, then a read error: %v, eps %v, %v", rel, eps, err)
	}
	_, _, err = ReadReleaseSparse(io.MultiReader(strings.NewReader(artifact[:30]), iotest.ErrReader(broken)))
	if !errors.Is(err, broken) {
		t.Fatalf("truncated artifact, then a read error: %v, want %v", err, broken)
	}
}

// TestDecodeReleaseConcurrent: decodes running at once share the
// scratch pool without sharing a buffer.
func TestDecodeReleaseConcurrent(t *testing.T) {
	var artifacts [][]byte
	var want []SparseHistograms
	for _, seed := range []int64{1, 2} {
		tree, err := BuildHierarchy("US", smallGroups(seed, 300*int(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rel, err := ReleaseSparse(tree, Options{Epsilon: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteReleaseSparse(&buf, rel, 1); err != nil {
			t.Fatal(err)
		}
		artifacts, want = append(artifacts, buf.Bytes()), append(want, rel)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(artifacts)
				got, _, err := ReadReleaseSparse(bytes.NewReader(artifacts[k]))
				if err != nil || len(got) != len(want[k]) {
					t.Errorf("artifact %d: %d nodes, %v", k, len(got), err)
					return
				}
				for path, s := range want[k] {
					if !s.Equal(got[path]) {
						t.Errorf("artifact %d: node %q differs", k, path)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzDecodeRelease fuzzes decodeRelease differentially against the
// encoding/json decoder: both must accept and refuse the same inputs
// and, on success, return the same release and epsilon. No input may
// panic, and anything accepted must re-encode to an artifact that
// decodes to the same release (canonical round trip).
func FuzzDecodeRelease(f *testing.F) {
	f.Add([]byte(`{"format":"hcoc-release/v1","epsilon":1,"nodes":{"US":[0,2,1]}}`))
	f.Add([]byte(`{"format":"hcoc-release/v2-sparse","epsilon":0.5,"nodes":{"US":[[1,2],[7,1]],"US/CA":[[1,2]]}}`))
	f.Add([]byte(`{"format":"hcoc-release/v2-sparse","nodes":{"a":[[3,1],[1,1]]}}`))
	f.Add([]byte(`{"format":"wrong","nodes":{}}`))
	f.Add([]byte("[]"))
	// One input per shape the direct parser leaves to encoding/json.
	f.Add([]byte(`{"format":"hcoc-release/v2-sparse","nodes":{"U\u0053":[[1,2]]}}`))
	f.Add([]byte("{\"format\":\"hcoc-release/v2-sparse\",\"nodes\":{\"U\xff\":[[1,2]]}}"))
	f.Add([]byte(`{"format":"hcoc-release/v2-sparse","nodes":{"US":[[1,2]],"US":[[3,4]]}}`))
	f.Add([]byte(`{"Format":"hcoc-release/v2-sparse","nodes":{"US":[[1,2]]}}`))
	f.Add([]byte(`{"format":"hcoc-release/v2-sparse","nodes":{"US":[[1,2,3]]}}`))
	f.Add([]byte(`{"format":"hcoc-release/v2-sparse","nodes":{"US":null}}`))
	f.Add([]byte(`{"format":"hcoc-release/v2-sparse","epsilon":1e400,"nodes":{"US":[[1,2]]}}`))
	f.Add([]byte(`{"format":"hcoc-release/v2-sparse","nodes":{"US":[[1,2]]}} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, eps, err := ReadReleaseSparse(bytes.NewReader(data))
		ref, refEps, refErr := decodeReleaseJSON(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decodeRelease error %v, encoding/json error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if math.Float64bits(eps) != math.Float64bits(refEps) || !reflect.DeepEqual(rel, ref) {
			t.Fatalf("decodeRelease and encoding/json disagree: eps %v vs %v", eps, refEps)
		}
		for path, s := range rel {
			if e := s.Validate(); e != nil {
				t.Fatalf("accepted invalid node %q: %v", path, e)
			}
		}
		var buf bytes.Buffer
		if err := WriteReleaseSparse(&buf, rel, eps); err != nil {
			t.Fatalf("re-encoding accepted release: %v", err)
		}
		back, eps2, err := ReadReleaseSparse(&buf)
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if eps2 != eps || len(back) != len(rel) {
			t.Fatalf("canonical round trip drifted: eps %v->%v, nodes %d->%d", eps, eps2, len(rel), len(back))
		}
		for path, s := range rel {
			if !s.Equal(back[path]) {
				t.Fatalf("canonical round trip drifted at node %q", path)
			}
		}
		// The dense reader must agree with the sparse one, except that
		// it may refuse releases whose dense expansion is too large.
		dense, _, err := ReadRelease(bytes.NewReader(data))
		if err != nil {
			if !strings.Contains(err.Error(), "dense cells") {
				t.Fatalf("dense reader rejected what sparse accepted: %v", err)
			}
			return
		}
		for path, s := range rel {
			if !s.Hist().Equal(dense[path]) {
				t.Fatalf("dense and sparse readers disagree at node %q", path)
			}
		}
	})
}
