package hcoc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
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
// representation, validating every node. The artifacts this package
// writes take sparseParser's single pass; every other input goes to
// decodeReleaseJSON, so both accept and refuse exactly what the
// encoding/json decoder does, with the same result.
func decodeRelease(r io.Reader) (SparseHistograms, float64, error) {
	sc := sparseScratchPool.Get().(*sparseScratch)
	defer sc.recycle()
	if _, err := sc.buf.ReadFrom(r); err != nil {
		// The reference decoder stops at the end of the first JSON value,
		// so it may still succeed on the bytes read before the error.
		return decodeReleaseJSON(io.MultiReader(bytes.NewReader(sc.buf.Bytes()), failingReader{err}))
	}
	p := sparseParser{b: sc.buf.Bytes(), runs: sc.runs[:0], nodes: sc.nodes[:0]}
	rel, epsilon, ok := p.parse()
	sc.runs, sc.nodes = p.runs, p.nodes
	if ok {
		return rel, epsilon, nil
	}
	return decodeReleaseJSON(bytes.NewReader(sc.buf.Bytes()))
}

// decodeReleaseJSON is the encoding/json decoder of both formats: the
// reference decodeRelease must agree with, and its path for every
// input outside the canonical v2 shape.
func decodeReleaseJSON(r io.Reader) (SparseHistograms, float64, error) {
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

// failingReader returns err from every Read.
type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

// maxPooledArtifact bounds the scratch buffer kept for reuse, so one
// huge artifact does not stay resident after its decode.
const maxPooledArtifact = 4 << 20

// sparseScratch is decodeRelease's reusable working memory: the
// artifact bytes, and the runs and node spans the direct parser reads
// before it allocates the release at its exact size.
type sparseScratch struct {
	buf   bytes.Buffer
	runs  []SparseRun
	nodes []nodeSpan
}

var sparseScratchPool = sync.Pool{New: func() any { return new(sparseScratch) }}

// recycle returns sc to the pool unless its buffer grew too large.
func (sc *sparseScratch) recycle() {
	if sc.buf.Cap() > maxPooledArtifact {
		return
	}
	sc.buf.Reset()
	clear(sc.nodes) // so stale spans cannot pin an outgrown buffer
	sparseScratchPool.Put(sc)
}

// nodeSpan is one node the direct parser has read: its path, still in
// the artifact bytes, and its runs in sparseParser.runs.
type nodeSpan struct {
	path       []byte
	start, end int
}

// sparseParser reads the canonical v2-sparse shape straight from the
// artifact bytes: an object with the keys "format", "epsilon" and
// "nodes", each at most once and in any order; node paths that are
// valid UTF-8 with no escapes; runs as [size,count] pairs of integer
// literals; any JSON whitespace. It checks each node as it reads it.
// A method returning false means the input is outside that shape or
// invalid, and the caller falls back to decodeReleaseJSON.
type sparseParser struct {
	b     []byte
	i     int
	runs  []SparseRun
	nodes []nodeSpan
}

// parse reads the whole artifact and builds its release.
func (p *sparseParser) parse() (SparseHistograms, float64, bool) {
	epsilon, ok := p.artifact()
	if !ok {
		return nil, 0, false
	}
	rel, ok := p.assemble()
	return rel, epsilon, ok
}

// artifact reads the top-level object and returns its epsilon.
func (p *sparseParser) artifact() (float64, bool) {
	var epsilon float64
	var format, eps, nodes bool
	if !p.next('{') {
		return 0, false
	}
	for n := 0; !p.next('}'); n++ {
		if n > 0 && !p.next(',') {
			return 0, false
		}
		key, ok := p.str()
		if !ok || !p.next(':') {
			return 0, false
		}
		switch string(key) {
		case "format":
			v, ok := p.str()
			if format || !ok || string(v) != releaseFormatSparse {
				return 0, false
			}
			format = true
		case "epsilon":
			if epsilon, ok = p.number(); eps || !ok {
				return 0, false
			}
			eps = true
		case "nodes":
			if nodes || !p.nodeMap() {
				return 0, false
			}
			nodes = true
		default:
			return 0, false
		}
	}
	p.skipSpace()
	return epsilon, format && nodes && p.i == len(p.b)
}

// nodeMap reads the nodes object.
func (p *sparseParser) nodeMap() bool {
	if !p.next('{') {
		return false
	}
	for n := 0; !p.next('}'); n++ {
		if n > 0 && !p.next(',') {
			return false
		}
		path, ok := p.str()
		if !ok || !p.next(':') || !p.runList(path) {
			return false
		}
	}
	return true
}

// runList reads one node's runs, checking that sizes strictly increase
// up to MaxGroupSize and that every count is positive.
func (p *sparseParser) runList(path []byte) bool {
	if !p.next('[') {
		return false
	}
	start, prev := len(p.runs), int64(-1)
	for !p.next(']') {
		if len(p.runs) > start && !p.next(',') {
			return false
		}
		if !p.next('[') {
			return false
		}
		size, ok := p.integer()
		if !ok || size <= prev || size > MaxGroupSize || !p.next(',') {
			return false
		}
		count, ok := p.integer()
		if !ok || count <= 0 || !p.next(']') {
			return false
		}
		p.runs = append(p.runs, SparseRun{Size: size, Count: count})
		prev = size
	}
	p.nodes = append(p.nodes, nodeSpan{path: path, start: start, end: len(p.runs)})
	return true
}

// assemble builds the release from the nodes read: every path in one
// string and every run in one array, each node's histogram a
// capacity-limited slice of it. A duplicate path, or no node at all,
// refuses.
func (p *sparseParser) assemble() (SparseHistograms, bool) {
	if len(p.nodes) == 0 {
		return nil, false
	}
	size := 0
	for _, n := range p.nodes {
		size += len(n.path)
	}
	var sb strings.Builder
	sb.Grow(size)
	for _, n := range p.nodes {
		sb.Write(n.path)
	}
	paths := sb.String()
	runs := make(SparseHistogram, len(p.runs))
	copy(runs, p.runs)
	out := make(SparseHistograms, len(p.nodes))
	off := 0
	for _, n := range p.nodes {
		path := paths[off : off+len(n.path)]
		off += len(n.path)
		if _, dup := out[path]; dup {
			return nil, false
		}
		out[path] = runs[n.start:n.end:n.end]
	}
	return out, true
}

// jsonSpace has bit c set for each JSON whitespace byte c.
const jsonSpace = 1<<' ' | 1<<'\t' | 1<<'\n' | 1<<'\r'

// skipSpace advances past JSON whitespace. An indented artifact is
// mostly whitespace, so the test is one compare and one mask.
func (p *sparseParser) skipSpace() {
	i := p.i
	for i < len(p.b) && p.b[i] <= ' ' && jsonSpace&(1<<p.b[i]) != 0 {
		i++
	}
	p.i = i
}

// next skips whitespace and consumes c, reporting whether it was there.
func (p *sparseParser) next(c byte) bool {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str reads a string with no escapes whose bytes are valid UTF-8,
// returning its contents as a slice of the artifact.
func (p *sparseParser) str() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	start, ascii := p.i, true
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// digits advances past a run of decimal digits and returns its length.
func (p *sparseParser) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// integer reads a nonnegative JSON integer literal of at most 18
// digits, which cannot overflow an int64.
func (p *sparseParser) integer() (int64, bool) {
	p.skipSpace()
	start := p.i
	if n := p.digits(); n == 0 || n > 18 || (n > 1 && p.b[start] == '0') {
		return 0, false
	}
	var v int64
	for _, c := range p.b[start:p.i] {
		v = v*10 + int64(c-'0')
	}
	return v, true
}

// number reads a JSON number literal and converts it as encoding/json
// does for a float64; a value out of float64 range refuses.
func (p *sparseParser) number() (float64, bool) {
	p.skipSpace()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	intStart := p.i
	if n := p.digits(); n == 0 || (n > 1 && p.b[intStart] == '0') {
		return 0, false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if p.digits() == 0 {
			return 0, false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if p.digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	return f, err == nil
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
