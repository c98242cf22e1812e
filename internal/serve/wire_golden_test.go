package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"hcoc/internal/engine"
	"hcoc/internal/serve"
	"hcoc/internal/store"
)

// wireGolden is the transcript TestWireGolden compares against.
const wireGolden = "testdata/wire.golden"

// wireVolatile matches the values of a transcript that change from run
// to run: timestamps, wall-clock durations (JSON fields and /metrics
// series alike) and random job ids.
var wireVolatile = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"(created_at|started_at|finished_at)":"[^"]*"`), `"$1":"*"`},
	{regexp.MustCompile(`"(duration_ms|queue_wait_ms)":[-+.0-9eE]+`), `"$1":*`},
	{regexp.MustCompile(`j-[0-9a-f]+`), `j-*`},
	{regexp.MustCompile(`(?m)^(hcoc_release_seconds_(?:total|last)|hcoc_tenant_queue_wait_seconds_total\{[^}]*\}) .*$`), `$1 *`},
}

// wireSession drives one Server through ServeHTTP and keeps a masked
// transcript of every exchange.
type wireSession struct {
	t   *testing.T
	srv *serve.Server
	out strings.Builder
}

// do sends one request and records its status and body. Each entry of
// hdr is set as a request header; body "" sends none.
func (s *wireSession) do(method, path, body string, hdr map[string]string) (int, string) {
	s.t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, req)
	got := rec.Body.String()
	s.record(method+" "+path, rec.Code, got)
	return rec.Code, got
}

func (s *wireSession) record(line string, status int, body string) {
	fmt.Fprintf(&s.out, "=== %s\n%d\n%s\n", line, status, strings.TrimSuffix(body, "\n"))
}

// field reads one top-level string field of a JSON object body.
func (s *wireSession) field(body, name string) string {
	s.t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		s.t.Fatalf("parsing %q: %v", body, err)
	}
	v, _ := m[name].(string)
	if v == "" {
		s.t.Fatalf("no %q in %s", name, body)
	}
	return v
}

// must is do for a step the rest of the session builds on.
func (s *wireSession) must(want int, method, path, body string, hdr map[string]string) string {
	s.t.Helper()
	status, got := s.do(method, path, body, hdr)
	if status != want {
		s.t.Fatalf("%s %s: status %d, want %d: %s", method, path, status, want, got)
	}
	return got
}

// mask replaces the volatile values of a transcript.
func mask(transcript string) string {
	for _, v := range wireVolatile {
		transcript = v.re.ReplaceAllString(transcript, v.with)
	}
	return transcript
}

// TestWireGolden pins the bytes of every JSON route and of /metrics: it
// drives one Server over a disk store through uploads, delta appends,
// releases (computed, cached, pinned, async and refused), listings,
// downloads, node and batch queries, budget, tenants and metrics with
// fixed seeds, and compares each status and body with
// testdata/wire.golden. Only timestamps, durations and job ids are
// masked. A wire change fails
// here by route; when it is intended, the failure names a file holding
// the new transcript to copy over the golden one.
func TestWireGolden(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := serve.NewServer(engine.New(engine.Options{Store: st, MaxEpsilonPerHierarchy: 2, ComputeSlots: 2}), st)
	if err != nil {
		t.Fatal(err)
	}
	s := &wireSession{t: t, srv: srv}

	// Hierarchy: an upload, its listing, two deltas (the first
	// conditional), a stale If-Match and the version history.
	up := s.must(http.StatusOK, "POST", "/v1/hierarchy", `{"root":"US","groups":[`+
		`{"path":["CA","Alameda"],"size":1},{"path":["CA","Alameda"],"size":3},{"path":["CA","Alameda"],"size":3},`+
		`{"path":["CA","Marin"],"size":2},{"path":["CA","Marin"],"size":5},`+
		`{"path":["WA","King"],"size":1},{"path":["WA","King"],"size":1},{"path":["WA","King"],"size":4},`+
		`{"path":["WA","Pierce"],"size":6}]}`, nil)
	h := s.field(up, "id")
	v1 := s.field(up, "fingerprint")
	s.must(http.StatusOK, "GET", "/v1/hierarchy", "", nil)
	s.must(http.StatusOK, "POST", "/v1/hierarchy/"+h+"/events", `{"events":[{"type":"delta",`+
		`"add":[{"path":["WA","Pierce"],"size":2}],"drift":[{"path":["CA","Alameda"],"from":3,"to":4,"count":1}]}]}`,
		map[string]string{"If-Match": `"` + v1 + `"`})
	s.must(http.StatusOK, "POST", "/v1/hierarchy/"+h+"/events", `{"events":[{"type":"delta",`+
		`"remove":[{"path":["CA","Marin"],"size":5}]}]}`, nil)
	s.must(http.StatusConflict, "POST", "/v1/hierarchy/"+h+"/events", `{"events":[{"type":"delta",`+
		`"add":[{"path":["CA","Marin"],"size":1}]}]}`, map[string]string{"If-Match": v1})
	s.must(http.StatusOK, "GET", "/v1/hierarchy/"+h+"/versions", "", nil)

	// Releases: computed at the head, its cache hit, a pinned hg/average
	// release of version 1, an async release of version 2 polled to
	// done, and a refusal over the per-version bound of 2.
	head := `{"hierarchy":"` + h + `","epsilon":1,"k":8,"seed":7}`
	r3 := s.field(s.must(http.StatusOK, "POST", "/v1/release", head, nil), "release")
	s.must(http.StatusOK, "POST", "/v1/release", head, nil)
	r1 := s.field(s.must(http.StatusOK, "POST", "/v1/release", `{"hierarchy":"`+h+
		`","version":1,"epsilon":0.5,"k":8,"seed":3,"methods":["hg"],"merge":"average"}`, nil), "release")
	job := s.field(s.must(http.StatusAccepted, "POST", "/v1/release", `{"hierarchy":"`+h+
		`","version":2,"epsilon":0.5,"k":8,"seed":5,"async":true}`, nil), "job")
	r2 := s.field(s.pollJob(job), "release")
	s.must(http.StatusTooManyRequests, "POST", "/v1/release", `{"hierarchy":"`+h+`","epsilon":1.5,"k":8,"seed":9}`, nil)

	// Listings and downloads.
	s.must(http.StatusOK, "GET", "/v1/release", "", nil)
	s.must(http.StatusOK, "GET", "/v1/release?hierarchy="+h+"&version=1", "", nil)
	s.must(http.StatusOK, "GET", "/v1/release/"+r3, "", nil)
	s.must(http.StatusOK, "GET", "/v1/release/"+r3+"?format=dense", "", nil)

	// Node queries: every statistic, a version-pinned one and an
	// unknown node.
	s.must(http.StatusOK, "GET", "/v1/query/US/CA?release="+r3+"&q=0.5&q=0.9&k=1&k=2&topcode=4", "", nil)
	s.must(http.StatusOK, "GET", "/v1/query/US/WA?hierarchy="+h+"&version=1&q=0.25", "", nil)
	s.do("GET", "/v1/query/US/OR?release="+r3, "", nil)

	// A batch with every op and one failing entry.
	s.must(http.StatusOK, "POST", "/v1/query/batch", `{"release":"`+r3+`","queries":[`+
		`{"node":"US/CA/Alameda","q":[0.5],"k":[1],"topcode":3},`+
		`{"op":"emd","releases":["`+r1+`","`+r3+`"],"node":"US"},`+
		`{"op":"delta","releases":["`+r1+`","`+r2+`"],"node":"US/WA"},`+
		`{"op":"series","releases":["`+r1+`","`+r2+`","`+r3+`"],"node":"US/CA","q":[0.5]},`+
		`{"op":"compare","releases":["`+r3+`","`+r1+`"],"node":"US/WA/King","k":[1]},`+
		`{"node":"US/OR"}]}`, nil)

	s.must(http.StatusOK, "GET", "/v1/budget/"+h, "", nil)
	s.must(http.StatusOK, "GET", "/v1/tenants", "", nil)
	s.must(http.StatusOK, "GET", "/metrics", "", nil)

	got := mask(s.out.String())
	want, err := os.ReadFile(wireGolden)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	n := 0
	for n < len(gl) && n < len(wl) && gl[n] == wl[n] {
		n++
	}
	t.Errorf("wire bytes differ from %s at line %d:\ngot  %s\nwant %s", wireGolden, n+1, lineAt(gl, n), lineAt(wl, n))
	f, err := os.CreateTemp("", "wire-*.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteString(got)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("this run's transcript is in %s", f.Name())
}

// lineAt is lines[n], or "" past the end.
func lineAt(lines []string, n int) string {
	if n < len(lines) {
		return lines[n]
	}
	return ""
}

// pollJob polls an async job until it finishes and records only its
// terminal snapshot, whose bytes do not depend on how many polls it
// took.
func (s *wireSession) pollJob(id string) string {
	s.t.Helper()
	path := "/v1/jobs/" + id
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := httptest.NewRecorder()
		s.srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		body := rec.Body.String()
		if rec.Code != http.StatusOK {
			s.t.Fatalf("GET %s: status %d: %s", path, rec.Code, body)
		}
		switch status := s.field(body, "status"); status {
		case "done":
			s.record("GET "+path, rec.Code, body)
			return body
		case "failed":
			s.t.Fatalf("job failed: %s", body)
		default:
			if time.Now().After(deadline) {
				s.t.Fatalf("job still %s after 30s", status)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}
