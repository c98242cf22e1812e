// The OpenAPI contract is checked from an external test package so it
// can see both serving tiers: the backend (this package) and the
// gateway, whose /v1/cluster route the spec documents too. An
// in-package test could not import the gateway (it imports serve).
package serve_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hcoc/internal/engine"
	"hcoc/internal/gateway"
	"hcoc/internal/serve"
)

// specOperation is one method+path pair extracted from the OpenAPI
// document, with whether it declares responses.
type specOperation struct {
	hasResponses bool
}

// parseSpec extracts the paths section of docs/openapi.yaml with a
// small indentation scanner — no YAML dependency. It understands
// exactly the structure the spec uses: path keys at indent 2, method
// keys at indent 4, operation keys at indent 6.
func parseSpec(t *testing.T, path string) (version string, ops map[string]*specOperation) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening spec: %v", err)
	}
	defer f.Close()

	ops = map[string]*specOperation{}
	inPaths := false
	var currentPath string
	var current *specOperation
	methods := map[string]bool{"get": true, "post": true, "put": true, "delete": true, "patch": true, "head": true, "options": true}

	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		switch {
		case indent == 0:
			inPaths = strings.HasPrefix(line, "paths:")
			if strings.HasPrefix(line, "openapi:") {
				version = strings.Trim(strings.TrimPrefix(line, "openapi:"), " \"")
			}
		case inPaths && indent == 2 && strings.HasSuffix(trimmed, ":") && strings.HasPrefix(trimmed, "/"):
			currentPath = strings.TrimSuffix(trimmed, ":")
			current = nil
		case inPaths && indent == 4 && strings.HasSuffix(trimmed, ":"):
			m := strings.TrimSuffix(trimmed, ":")
			if methods[m] {
				current = &specOperation{}
				ops[strings.ToUpper(m)+" "+currentPath] = current
			}
		case inPaths && indent == 6 && current != nil && strings.HasPrefix(trimmed, "responses:"):
			current.hasResponses = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return version, ops
}

// specPath converts a net/http mux pattern to its OpenAPI spelling:
// the {node...} rest-of-path parameter becomes {node}.
func specPath(pattern string) string {
	return strings.ReplaceAll(pattern, "...}", "}")
}

// TestOpenAPICoversRoutes fails when docs/openapi.yaml and the
// registered routes drift apart — in either direction — and applies
// the structural floor every operation must meet (a responses
// section). The spec covers the whole serving surface: the union of
// the backend routes and the gateway routes (the gateway re-exposes
// the /v1 surface and adds /v1/cluster).
func TestOpenAPICoversRoutes(t *testing.T) {
	version, ops := parseSpec(t, filepath.Join("..", "..", "docs", "openapi.yaml"))
	if !strings.HasPrefix(version, "3.") {
		t.Fatalf("spec openapi version = %q, want 3.x", version)
	}
	if len(ops) == 0 {
		t.Fatal("no operations parsed from the spec")
	}

	srv, err := serve.NewServer(engine.New(engine.Options{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(gateway.Options{Backends: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, rt := range append(srv.Routes(), gw.Routes()...) {
		key := rt.Method + " " + specPath(rt.Pattern)
		registered[key] = true
		if _, ok := ops[key]; !ok {
			t.Errorf("registered route %q is missing from docs/openapi.yaml", key)
		}
	}
	for key, op := range ops {
		if !registered[key] {
			t.Errorf("spec documents %q but the server does not register it", key)
		}
		if !op.hasResponses {
			t.Errorf("spec operation %q declares no responses", key)
		}
	}
}

// TestOpenAPIExampleDrift spot-checks that docs/openapi.yaml still
// names load-bearing response fields and statuses, catching their
// silent removal from the spec. It reads only the spec; TestWireGolden
// pins what the server sends.
func TestOpenAPIExampleDrift(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "openapi.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	spec := string(raw)
	for _, field := range []string{
		"remaining_epsilon", "max_epsilon_per_hierarchy", "spent_epsilon",
		"cache_hit", "store_hit", "deduped", "duration_ms",
		"kth_largest", "topcoded", "cost_bytes",
		"retry_after_seconds", "queue_wait_ms", "compute_slots",
		"head_version", "head_fingerprint", "continual_spent_epsilon",
		"max_epsilon_continual", "nodes_estimated",
	} {
		if !strings.Contains(spec, field) {
			t.Errorf("spec lost field %q", field)
		}
	}
	for _, status := range []string{`"202"`, `"409"`, `"413"`, `"415"`, `"429"`, `"503"`, `"507"`} {
		if !strings.Contains(spec, status+":") {
			t.Errorf("spec lost status %s", status)
		}
	}
}

// TestRoutesStable pins the route table: adding an endpoint must be a
// conscious act that also updates the spec (the coverage test) and
// this list.
func TestRoutesStable(t *testing.T) {
	srv, err := serve.NewServer(engine.New(engine.Options{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rt := range srv.Routes() {
		got = append(got, rt.Method+" "+rt.Pattern)
	}
	want := []string{
		"POST /v1/hierarchy",
		"GET /v1/hierarchy",
		"POST /v1/hierarchy/{id}/events",
		"GET /v1/hierarchy/{id}/versions",
		"POST /v1/release",
		"GET /v1/release",
		"GET /v1/release/{id}",
		"GET /v1/jobs/{id}",
		"POST /v1/query/batch",
		"GET /v1/query/{node...}",
		"GET /v1/budget/{id}",
		"GET /v1/tenants",
		"GET /healthz",
		"GET /metrics",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("routes changed:\ngot  %v\nwant %v", got, want)
	}
}
