//go:build unix

package httpx

import (
	"net"
	"net/http"
	"syscall"
	"testing"
	"time"
)

// TestDaemonLifecycle runs a Daemon on a free port: it serves, a SIGHUP
// runs OnHUP and leaves it serving, and a SIGTERM stops it cleanly.
// A listener that cannot start is Run's error.
func TestDaemonLifecycle(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	hups := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		done <- Daemon{
			Name:    "httpx-test",
			Addr:    addr,
			Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNoContent) }),
			Banner:  "httpx-test: listening on " + addr,
			OnHUP:   func() { hups <- struct{}{} },
		}.Run()
	}()
	get := func() error {
		resp, err := http.Get("http://" + addr + "/")
		if err == nil {
			resp.Body.Close()
		}
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for get() != nil {
		if time.Now().After(deadline) {
			t.Fatal("the daemon never served")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hups:
	case <-time.After(10 * time.Second):
		t.Fatal("SIGHUP did not run OnHUP")
	}
	if err := get(); err != nil {
		t.Fatalf("not serving after SIGHUP: %v", err)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after SIGTERM: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("SIGTERM did not stop the daemon")
	}

	if err := (Daemon{Name: "httpx-test", Addr: "127.0.0.1:-1"}).Run(); err == nil {
		t.Fatal("a listener on an invalid address started")
	}
}
