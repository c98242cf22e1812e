package gateway

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"hcoc/client"
	"hcoc/internal/engine"
	"hcoc/internal/serve"
)

// gatewayWireGolden is the transcript TestGatewayWireGolden compares
// against.
const gatewayWireGolden = "testdata/wire.golden"

// gatewayVolatile matches the values of a gateway transcript that change
// from run to run: wall-clock latencies and the backends' random
// instance ids.
var gatewayVolatile = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"(duration_ms|mean_latency_ms)":[-+.0-9eE]+`), `"$1":*`},
	{regexp.MustCompile(`(?m)^(hcoc_gateway_backend_latency_seconds_total\{[^}]*\}) .*$`), `$1 *`},
}

// handlerTransport answers each request in process with the handler
// its host names. Backends with fixed URLs place every hierarchy on the
// same ring points in every run, so the per-backend series of a
// transcript do not depend on which ports a run was given.
type handlerTransport map[string]http.Handler

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := t[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no backend at %s", r.URL.Host)
	}
	in := r.Clone(r.Context())
	if in.Body == nil {
		in.Body = http.NoBody
	}
	in.RequestURI = r.URL.RequestURI()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, in)
	return rec.Result(), nil
}

// TestGatewayWireGolden pins the bytes the gateway writes itself
// (/v1/cluster, /healthz, /metrics, the node admin refusals and its own
// errors) beside the backend answers it relays and merges, over two
// in-process backends with fixed URLs, and compares each status and
// body with testdata/wire.golden. Only latencies are masked. When a
// change is intended, the failure names a file holding the new
// transcript to copy over the golden one.
func TestGatewayWireGolden(t *testing.T) {
	tr := handlerTransport{}
	for _, host := range []string{"a.test", "b.test"} {
		srv, err := serve.NewServer(engine.New(engine.Options{ComputeSlots: 2}), nil)
		if err != nil {
			t.Fatal(err)
		}
		tr[host] = srv
	}
	gw, err := New(Options{
		Backends:      []string{"http://a.test", "http://b.test"},
		Replication:   1,
		FailThreshold: 1,
		Probe:         func(context.Context, string) (string, error) { return "", nil },
		ClientOptions: []client.Option{
			client.WithMaxRetries(0),
			client.WithHTTPClient(&http.Client{Transport: tr}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	do := func(want int, method, path, body string, hdr map[string]string) string {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		got := rec.Body.String()
		fmt.Fprintf(&out, "=== %s %s\n%d\n%s\n", method, path, rec.Code, strings.TrimSuffix(got, "\n"))
		if rec.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, got)
		}
		return got
	}
	field := func(body, name string) string {
		t.Helper()
		m := regexp.MustCompile(`"` + name + `":"([^"]*)"`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("no %q in %s", name, body)
		}
		return m[1]
	}

	// Two hierarchies, one per ring owner as the fixed URLs place them,
	// a release of each (one cached repeat, one refused by the backend),
	// the merged listing and relayed queries.
	var hs, rs []string
	for _, groups := range []string{
		`[{"path":["CA"],"size":1},{"path":["CA"],"size":3},{"path":["WA"],"size":2}]`,
		`[{"path":["CA"],"size":2},{"path":["OR"],"size":5},{"path":["WA"],"size":4}]`,
	} {
		h := field(do(http.StatusOK, "POST", "/v1/hierarchy", `{"root":"US","groups":`+groups+`}`, nil), "id")
		rel := `{"hierarchy":"` + h + `","epsilon":1,"k":8,"seed":7}`
		rs = append(rs, field(do(http.StatusOK, "POST", "/v1/release", rel, nil), "release"))
		hs = append(hs, h)
	}
	do(http.StatusOK, "POST", "/v1/release", `{"hierarchy":"`+hs[0]+`","epsilon":1,"k":8,"seed":7}`, nil)
	do(http.StatusBadRequest, "POST", "/v1/release", `{"hierarchy":"`+hs[1]+`","epsilon":-1}`, nil)
	do(http.StatusOK, "GET", "/v1/hierarchy", "", nil)
	do(http.StatusOK, "GET", "/v1/query/US/CA?release="+rs[0]+"&q=0.5", "", nil)
	do(http.StatusOK, "POST", "/v1/query/batch", `{"release":"`+rs[1]+`","queries":[{"node":"US/OR"},{"node":"US/XX"}]}`, nil)
	do(http.StatusNotFound, "GET", "/v1/query/US?release=r-unknown", "", nil)

	// The gateway's own answers: refusals of its transport and admin
	// routes, the topology with a key's route, health and metrics.
	do(http.StatusUnsupportedMediaType, "POST", "/v1/release", `{}`, map[string]string{"Content-Encoding": "br"})
	do(http.StatusBadRequest, "POST", "/v1/cluster/nodes", `{"url":"c.test"}`, nil)
	do(http.StatusBadRequest, "POST", "/v1/cluster/nodes", `{"url":" "}`, nil)
	do(http.StatusUnsupportedMediaType, "POST", "/v1/cluster/nodes", `{}`, map[string]string{"Content-Type": "text/plain"})
	do(http.StatusNotFound, "DELETE", "/v1/cluster/nodes?url=http://c.test", "", nil)
	do(http.StatusBadRequest, "DELETE", "/v1/cluster/nodes", "", nil)
	do(http.StatusOK, "GET", "/v1/cluster?key="+hs[0], "", nil)
	do(http.StatusOK, "GET", "/healthz", "", nil)
	do(http.StatusOK, "GET", "/metrics", "", nil)

	got := out.String()
	for _, v := range gatewayVolatile {
		got = v.re.ReplaceAllString(got, v.with)
	}
	want, err := os.ReadFile(gatewayWireGolden)
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
	line := func(lines []string) string {
		if n < len(lines) {
			return lines[n]
		}
		return ""
	}
	t.Errorf("gateway wire bytes differ from %s at line %d:\ngot  %s\nwant %s", gatewayWireGolden, n+1, line(gl), line(wl))
	f, err := os.CreateTemp("", "gateway-wire-*.golden")
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
