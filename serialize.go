package hcoc

import (
	"encoding/json"
	"fmt"
	"io"
)

// Release artifacts come in two wire formats:
//
//   - hcoc-release/v1: nodes map to dense histogram arrays. Simple,
//     but a node whose largest group has size s costs s+1 numbers.
//   - hcoc-release/v2-sparse: nodes map to run lists [[size, count],
//     ...] with strictly increasing sizes and positive counts — the
//     wire form of SparseHistogram. On census-shaped data it is
//     smaller by the same orders of magnitude as the in-memory
//     representation.
//
// ReadRelease and ReadReleaseSparse accept both formats; WriteRelease
// emits v1 and WriteReleaseSparse emits v2.

const (
	releaseFormat       = "hcoc-release/v1"
	releaseFormatSparse = "hcoc-release/v2-sparse"

	// maxDenseCells bounds the total cells ReadRelease will materialize
	// across all nodes (512 MiB of int64): per-node size limits alone
	// would let a kilobyte artifact with many near-limit nodes demand
	// gigabytes from the dense reader. Larger releases are legitimate —
	// read them with ReadReleaseSparse, which never densifies.
	maxDenseCells = 1 << 26
)

// releaseFile is the on-disk JSON shape of a v1 (dense) artifact.
type releaseFile struct {
	// Format identifies the artifact type and version.
	Format string `json:"format"`
	// Epsilon records the privacy budget the release was produced
	// under (informational; the artifact itself is safe to publish).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Nodes maps node paths to count-of-counts histograms.
	Nodes map[string]Histogram `json:"nodes"`
}

// wireRuns is the JSON shape of one node in a v2 artifact.
type wireRuns [][2]int64

// sparseFile is the on-disk JSON shape of a v2 (run-length) artifact.
type sparseFile struct {
	Format  string              `json:"format"`
	Epsilon float64             `json:"epsilon,omitempty"`
	Nodes   map[string]wireRuns `json:"nodes"`
}

// releaseHeader is the probe both readers use to dispatch on format.
type releaseHeader struct {
	Format  string          `json:"format"`
	Epsilon float64         `json:"epsilon"`
	Nodes   json.RawMessage `json:"nodes"`
}

// WriteRelease serializes a released set of histograms as a dense v1
// JSON artifact, the publishable artifact of a run. Epsilon is recorded
// for provenance.
func WriteRelease(w io.Writer, rel Histograms, epsilon float64) error {
	if len(rel) == 0 {
		return fmt.Errorf("hcoc: empty release")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(releaseFile{
		Format:  releaseFormat,
		Epsilon: epsilon,
		Nodes:   map[string]Histogram(rel),
	})
}

// WriteReleaseSparse serializes a run-length release as a v2 artifact.
func WriteReleaseSparse(w io.Writer, rel SparseHistograms, epsilon float64) error {
	if len(rel) == 0 {
		return fmt.Errorf("hcoc: empty release")
	}
	nodes := make(map[string]wireRuns, len(rel))
	for path, s := range rel {
		runs := make(wireRuns, len(s))
		for i, r := range s {
			runs[i] = [2]int64{r.Size, r.Count}
		}
		nodes[path] = runs
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sparseFile{
		Format:  releaseFormatSparse,
		Epsilon: epsilon,
		Nodes:   nodes,
	})
}

// decodeRelease parses either artifact format into the run-length
// representation, validating every node.
func decodeRelease(r io.Reader) (SparseHistograms, float64, error) {
	var head releaseHeader
	if err := json.NewDecoder(r).Decode(&head); err != nil {
		return nil, 0, fmt.Errorf("hcoc: parsing release: %w", err)
	}
	out := make(SparseHistograms)
	switch head.Format {
	case releaseFormat:
		var nodes map[string]Histogram
		if err := json.Unmarshal(head.Nodes, &nodes); err != nil {
			return nil, 0, fmt.Errorf("hcoc: parsing release nodes: %w", err)
		}
		for path, h := range nodes {
			if err := h.Validate(); err != nil {
				return nil, 0, fmt.Errorf("hcoc: node %q: %w", path, err)
			}
			out[path] = h.Sparse()
		}
	case releaseFormatSparse:
		var nodes map[string]wireRuns
		if err := json.Unmarshal(head.Nodes, &nodes); err != nil {
			return nil, 0, fmt.Errorf("hcoc: parsing release nodes: %w", err)
		}
		for path, runs := range nodes {
			s := make(SparseHistogram, len(runs))
			for i, r := range runs {
				s[i] = SparseRun{Size: r[0], Count: r[1]}
			}
			if err := s.Validate(); err != nil {
				return nil, 0, fmt.Errorf("hcoc: node %q: %w", path, err)
			}
			// A run list is a few bytes regardless of the sizes it
			// declares, but densifying it is not; bound the declared
			// sizes so a hostile artifact cannot make ReadRelease
			// allocate a histogram the writer never paid for.
			if max := s.MaxSize(); max > MaxGroupSize {
				return nil, 0, fmt.Errorf("hcoc: node %q declares group size %d, above the artifact limit %d", path, max, int64(MaxGroupSize))
			}
			out[path] = s
		}
	default:
		return nil, 0, fmt.Errorf("hcoc: unsupported release format %q", head.Format)
	}
	if len(out) == 0 {
		return nil, 0, fmt.Errorf("hcoc: release has no nodes")
	}
	return out, head.Epsilon, nil
}

// ReadRelease parses a release artifact in either wire format and
// returns it densely, validating every histogram. It refuses artifacts
// whose dense expansion exceeds maxDenseCells in total; use
// ReadReleaseSparse for arbitrarily large releases.
func ReadRelease(r io.Reader) (Histograms, float64, error) {
	rel, epsilon, err := decodeRelease(r)
	if err != nil {
		return nil, 0, err
	}
	var cells int64
	for path, s := range rel {
		cells += s.MaxSize() + 1
		if cells > maxDenseCells {
			return nil, 0, fmt.Errorf("hcoc: release expands to more than %d dense cells (at node %q); use ReadReleaseSparse", int64(maxDenseCells), path)
		}
	}
	return rel.Dense(), epsilon, nil
}

// ReadReleaseSparse parses a release artifact in either wire format
// into the run-length representation.
func ReadReleaseSparse(r io.Reader) (SparseHistograms, float64, error) {
	return decodeRelease(r)
}
