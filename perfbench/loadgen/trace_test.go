package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

func span(id, parent int64, layer Layer, start, end int64) Span {
	return Span{ID: id, Parent: parent, Op: 1, Layer: layer, Name: string(layer), Start: start, End: end}
}

func TestCoveredUnionsAndClips(t *testing.T) {
	spans := []Span{{Start: 0, End: 10}, {Start: 5, End: 20}, {Start: 30, End: 40}, {Start: 90, End: 120}}
	for _, c := range []struct{ start, end, want int64 }{
		{0, 100, 20 + 10 + 10},
		{15, 35, 5 + 5},
		{50, 60, 0},
	} {
		if got := Covered(c.start, c.end, spans); got != c.want {
			t.Errorf("Covered(%d, %d) = %d, want %d", c.start, c.end, got, c.want)
		}
	}
}

// gatewayOp is one operation through the gateway whose two backend
// calls overlap: client [0,100] > attempt [5,95] > gateway [10,90] >
// backend attempts [20,50] and [30,70] > serve [22,48] and [32,68].
func gatewayOp() []Span {
	return []Span{
		span(1, 0, LayerClient, 0, 100),
		span(2, 1, LayerAttempt, 5, 95),
		span(3, 2, LayerGateway, 10, 90),
		span(4, 3, LayerAttempt, 20, 50),
		span(5, 3, LayerAttempt, 30, 70),
		span(6, 4, LayerServe, 22, 48),
		span(7, 5, LayerServe, 32, 68),
	}
}

func TestAttributeSplitsLayers(t *testing.T) {
	a := Attribute(gatewayOp(), Unlinked{Blob: 30, Stub: 10, Compute: 20})
	want := map[string]int64{"client": 20, "gateway": 34, "serve": 12, "compute": 20, "blob": 20, "s3stub": 10}
	for layer, v := range want {
		if a.Self[layer] != v {
			t.Errorf("%s self time %d, want %d", layer, a.Self[layer], v)
		}
	}
	if a.Busy != 100 || a.Parallel != 16 {
		t.Errorf("busy %d parallel %d, want 100 and 16", a.Busy, a.Parallel)
	}
	if r := a.Residual(); r != 0 {
		t.Errorf("residual %g, want 0 when every span is linked", r)
	}
	if len(a.ClientSelf) != 1 || a.ClientSelf[0] != 20 || len(a.GatewaySelf) != 1 || a.GatewaySelf[0] != 34 {
		t.Errorf("per-request self times %v and %v", a.ClientSelf, a.GatewaySelf)
	}
	if errs := a.Check([]string{"client", "gateway", "serve", "compute", "blob", "s3stub"}, 0.1); len(errs) != 0 {
		t.Errorf("a fully linked phase fails its check: %v", errs)
	}
}

func TestCheckFlagsUnlinkedTimeBeyondHandlers(t *testing.T) {
	// The serve spans hold 62 ns, but blob and compute report 80: 18 ns
	// of it ran outside any handler, so serve self time is negative.
	a := Attribute(gatewayOp(), Unlinked{Blob: 50, Stub: 10, Compute: 30})
	if a.Self["serve"] != -18 {
		t.Fatalf("serve self time %d, want -18", a.Self["serve"])
	}
	if r := a.Residual(); math.Abs(r+0.18) > 1e-12 {
		t.Errorf("residual %g, want -0.18 for 18 ns no handler holds", r)
	}
	errs := a.Check(nil, 0.1)
	if len(errs) != 2 || !strings.Contains(errs[0].Error(), "serve self time") || !strings.Contains(errs[1].Error(), "busy time") {
		t.Errorf("check found %v, want the negative serve time and the residual", errs)
	}

	// Stub time beyond the blob calls that hold it fails the check even
	// while the residual stays within its limit.
	a = Attribute(gatewayOp(), Unlinked{Blob: 5, Stub: 10, Compute: 20})
	if r := a.Residual(); math.Abs(r+0.05) > 1e-12 {
		t.Errorf("residual %g, want -0.05", r)
	}
	if errs := a.Check(nil, 0.1); len(errs) != 1 || !strings.Contains(errs[0].Error(), "blob self time") {
		t.Errorf("check found %v, want the negative blob time", errs)
	}
}

func TestCheckFlagsMissingBoundary(t *testing.T) {
	// No stub time on a workload that crosses the stub: the residual is
	// zero, but the expected layer is missing.
	a := Attribute(gatewayOp(), Unlinked{Blob: 30, Compute: 20})
	if r := a.Residual(); r != 0 {
		t.Errorf("residual %g, want 0", r)
	}
	errs := a.Check([]string{"serve", "s3stub"}, 0.1)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "s3stub recorded no time") {
		t.Errorf("check found %v, want the missing s3stub boundary", errs)
	}
}

func TestAttributeFlagsUnlinkedSpans(t *testing.T) {
	// The serve span's attempt was never recorded: its time belongs to
	// no operation.
	spans := append(gatewayOp(), span(8, 99, LayerServe, 0, 10))
	a := Attribute(spans, Unlinked{Blob: 30, Stub: 10, Compute: 20})
	if r := a.Residual(); math.Abs(r+0.1) > 1e-12 {
		t.Errorf("residual %g, want -0.1 for 10 ns of serve time linked to no operation", r)
	}
	if r := Attribute(nil, Unlinked{}).Residual(); r != 0 {
		t.Errorf("an empty phase has residual %g", r)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestSpansRecordAndWrite(t *testing.T) {
	var s Spans
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Add(Span{ID: s.NewID(), Layer: LayerServe})
		}()
	}
	wg.Wait()
	list := s.List()
	ids := map[int64]bool{}
	for _, sp := range list {
		ids[sp.ID] = true
	}
	if len(list) != 10 || len(ids) != 10 {
		t.Fatalf("%d spans with %d distinct ids, want 10 and 10", len(list), len(ids))
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, list); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for sc := bufio.NewScanner(&buf); sc.Scan(); lines++ {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil || sp.Layer != LayerServe {
			t.Fatalf("line %d: %v", lines, err)
		}
	}
	if lines != 10 {
		t.Errorf("wrote %d lines, want 10", lines)
	}
	if err := WriteJSON(failWriter{}, list); err == nil {
		t.Error("WriteJSON swallowed a write error")
	}
	s.Reset()
	if len(s.List()) != 0 {
		t.Error("Reset kept spans")
	}
}
