package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"hcoc/internal/gateway"
	"hcoc/internal/httpx"
)

func TestParseBackends(t *testing.T) {
	got, err := parseBackends("http://a:8081, http://b:8082/,http://c:8083")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:8081", "http://b:8082", "http://c:8083"}
	if len(got) != len(want) {
		t.Fatalf("parsed %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsed %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "  ", ",,", "localhost:8081"} {
		if _, err := parseBackends(bad); err == nil {
			t.Fatalf("parseBackends(%q) accepted", bad)
		}
	}
}

// TestBackendsFileReload pins the membership file: -backends and
// -backends-file union into the starting fleet, and a reload applies
// the file's delta as runtime joins and leaves while the static
// -backends members stay.
func TestBackendsFileReload(t *testing.T) {
	file := filepath.Join(t.TempDir(), "backends")
	write := func(s string) {
		t.Helper()
		if err := os.WriteFile(file, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("http://b:2 # second\nhttp://a:1, http://c:3/\n\n# comment only\n")
	all, static, err := initialBackends("http://a:1", file)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(all) != "[http://a:1 http://b:2 http://c:3]" || fmt.Sprint(static) != "[http://a:1]" {
		t.Fatalf("initial = %v, static = %v", all, static)
	}
	if _, _, err := initialBackends("", ""); err == nil {
		t.Fatal("no backends at all accepted")
	}
	write("b:2\n")
	if _, err := httpx.ReadURLFile(file, "-backends-file", "backend"); err == nil {
		t.Fatal("schemeless backend in the file accepted")
	}

	gw, err := gateway.New(gateway.Options{Backends: all, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{static: static, backendsFile: file}
	write("http://c:3\nhttp://d:4\n")
	if err := reload(gw, cfg); err != nil {
		t.Fatal(err)
	}
	got := gw.Cluster().Backends()
	sort.Strings(got)
	if fmt.Sprint(got) != "[http://a:1 http://c:3 http://d:4]" {
		t.Fatalf("after reload: %v", got)
	}

	// A file listing nothing keeps the static members and drains the
	// rest.
	write("# empty\n")
	if err := reload(gw, cfg); err != nil {
		t.Fatal(err)
	}
	if got := gw.Cluster().Backends(); fmt.Sprint(got) != "[http://a:1]" {
		t.Fatalf("after emptying the file: %v", got)
	}
}
