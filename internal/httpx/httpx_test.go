package httpx

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMetrics pins the exposition bytes: a scalar with its HELP line,
// then a family's HELP line and its series, with zero, one and two
// labels, integers and floats.
func TestMetrics(t *testing.T) {
	rec := httptest.NewRecorder()
	m := NewMetrics(rec)
	m.Scalar("hcoc_jobs", "Async release jobs currently retained.", 3)
	m.Scalar("hcoc_cache_hit_rate", "Fraction of release requests answered from the cache.", 0.25)
	m.Family("hcoc_store_backend_info", "Configured blob backend.")
	m.Sample("hcoc_store_backend_info", 1, "backend", "s3", "shared", "true")
	m.Family("hcoc_tenant_weight", "Configured fair-share weight per tenant.")
	m.Sample("hcoc_tenant_weight", 1.5, "tenant", `h-"q"`)
	m.Sample("hcoc_tenant_weight", uint64(2), "tenant", "h-b")
	m.Sample("hcoc_unlabeled", 7)
	want := `# HELP hcoc_jobs Async release jobs currently retained.
hcoc_jobs 3
# HELP hcoc_cache_hit_rate Fraction of release requests answered from the cache.
hcoc_cache_hit_rate 0.25
# HELP hcoc_store_backend_info Configured blob backend.
hcoc_store_backend_info{backend="s3",shared="true"} 1
# HELP hcoc_tenant_weight Configured fair-share weight per tenant.
hcoc_tenant_weight{tenant="h-\"q\""} 1.5
hcoc_tenant_weight{tenant="h-b"} 2
hcoc_unlabeled 7
`
	if got := rec.Body.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("Content-Type %q", ct)
	}
}

// TestReadURLFile pins the URL-list format: tokens split on commas and
// whitespace, comments and blank lines skipped, trailing slashes
// dropped, repeats kept for MergeURLs to fold; a token without a scheme
// and a missing file are refused in the caller's words.
func TestReadURLFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "urls")
	if err := os.WriteFile(path, []byte("# fleet\nhttp://a:1, http://b:2/\r\n\n\thttp://c:3 http://a:1 # again\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadURLFile(path, "-list", "node")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[http://a:1 http://b:2 http://c:3 http://a:1]" {
		t.Fatalf("read %v", got)
	}
	if merged := MergeURLs([]string{"http://c:3"}, got); fmt.Sprint(merged) != "[http://c:3 http://a:1 http://b:2]" {
		t.Fatalf("merged %v", merged)
	}
	if err := os.WriteFile(path, []byte("http://a:1\nb:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadURLFile(path, "-list", "node"); err == nil || err.Error() != path+`: node "b:2" needs a scheme (http://host:port)` {
		t.Fatalf("schemeless token: %v", err)
	}
	if _, err := ReadURLFile(path+".absent", "-list", "node"); err == nil || !strings.HasPrefix(err.Error(), "reading -list: ") {
		t.Fatalf("missing file: %v", err)
	}
}
