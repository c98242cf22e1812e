package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hcoc/internal/engine"
	"hcoc/internal/serve"
	"hcoc/internal/store/s3stub"
)

func TestStoreConfigOpen(t *testing.T) {
	// No store at all: disk backend with no -data-dir.
	if st, err := (storeConfig{backend: "disk"}).open(); err != nil || st != nil {
		t.Fatalf("memory-only open = %v, %v", st, err)
	}

	st, err := (storeConfig{backend: "disk", dataDir: t.TempDir()}).open()
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend() != "disk" || st.Shared() {
		t.Fatalf("disk store = %q shared=%v", st.Backend(), st.Shared())
	}
	st.Close()

	// s3 requires both the endpoint and the bucket.
	for _, cfg := range []storeConfig{
		{backend: "s3"},
		{backend: "s3", endpoint: "http://x"},
		{backend: "s3", bucket: "b"},
	} {
		if _, err := cfg.open(); err == nil {
			t.Errorf("open(%+v) succeeded", cfg)
		}
	}

	srv := httptest.NewServer(s3stub.New("b"))
	defer srv.Close()
	st, err = (storeConfig{backend: "s3", endpoint: srv.URL, bucket: "b", prefix: "p"}).open()
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend() != "s3" || !st.Shared() {
		t.Fatalf("s3 store = %q shared=%v", st.Backend(), st.Shared())
	}
	st.Close()

	if _, err := (storeConfig{backend: "tape"}).open(); err == nil {
		t.Fatal("unknown backend succeeded")
	}
}

func TestRunRejectsBadStore(t *testing.T) {
	err := run(":0", 0, 1, 0, 0, 0, storeConfig{backend: "tape"}, qosConfig{})
	if err == nil {
		t.Fatal("run with an unknown backend succeeded")
	}
}

func TestRunRejectsBadWeightsFile(t *testing.T) {
	err := run(":0", 0, 1, 0, 0, 0, storeConfig{backend: "disk"},
		qosConfig{weightsFile: filepath.Join(t.TempDir(), "absent")})
	if err == nil {
		t.Fatal("run with a missing weights file succeeded")
	}
}

func TestLoadWeights(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	got, err := loadWeights(write("good", `
# heavy batch tenant
h-abc123 3
def456 = 0.5   # space around "=" is fine
h-ffff=2
`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"abc123": 3, "def456": 0.5, "ffff": 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loadWeights = %v, want %v", got, want)
	}

	// An empty file is a valid "everyone weight 1" config.
	if got, err := loadWeights(write("empty", "# nothing\n")); err != nil || len(got) != 0 {
		t.Fatalf("empty file = %v, %v", got, err)
	}

	for name, content := range map[string]string{
		"zero":     "h-abc 0\n",
		"negative": "h-abc -1\n",
		"nan":      "h-abc lots\n",
		"fields":   "h-abc 1 2\n",
		"bare":     "h-abc\n",
	} {
		if got, err := loadWeights(write(name, content)); err == nil {
			t.Errorf("loadWeights(%s) = %v, want error", name, got)
		}
	}
	if _, err := loadWeights(filepath.Join(dir, "absent")); err == nil {
		t.Error("missing file did not error")
	}
}

// TestHandleHUPIndependentSteps is the regression test for the SIGHUP
// split: each reload step runs and logs on its own, so a malformed
// weights file cannot mask the store refresh (or vice versa).
func TestHandleHUPIndependentSteps(t *testing.T) {
	srv := httptest.NewServer(s3stub.New("b"))
	defer srv.Close()
	st, err := (storeConfig{backend: "s3", endpoint: srv.URL, bucket: "b"}).open()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := engine.New(engine.Options{CacheSize: 1, Store: st})
	handler, err := serve.NewServer(eng, st)
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	logf := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}

	// A weights file that fails to parse must not stop the shared-store
	// refresh: both steps report, in order, independently.
	bad := filepath.Join(t.TempDir(), "weights")
	if err := os.WriteFile(bad, []byte("h-abc notanumber\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	handleHUP(st, handler, eng, bad, logf)
	if len(lines) != 2 {
		t.Fatalf("handleHUP logged %d lines, want 2: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], "refreshed shared store") {
		t.Errorf("store step = %q, want a refresh success", lines[0])
	}
	if !strings.Contains(lines[1], "weights reload failed") {
		t.Errorf("weights step = %q, want a reload failure", lines[1])
	}

	// And a good weights file reloads even though nothing else applies.
	good := filepath.Join(t.TempDir(), "weights")
	if err := os.WriteFile(good, []byte("h-abc 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lines = nil
	handleHUP(nil, handler, eng, good, logf)
	if len(lines) != 1 || !strings.Contains(lines[0], "reloaded tenant weights (1 tenants)") {
		t.Fatalf("weights-only handleHUP logged %q", lines)
	}

	// Nothing to do is said out loud, not silently swallowed.
	lines = nil
	handleHUP(nil, handler, eng, "", logf)
	if len(lines) != 1 || !strings.Contains(lines[0], "SIGHUP ignored") {
		t.Fatalf("no-op handleHUP logged %q", lines)
	}
}
