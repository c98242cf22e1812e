package httpx

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Daemon is the lifecycle both hcoc servers run under: Handler serves
// Addr, Banner is printed as the listener starts, and OnHUP (when set)
// runs on every SIGHUP, which never stops the daemon. Name prefixes the
// shutdown line.
type Daemon struct {
	Name, Addr, Banner string
	Handler            http.Handler
	OnHUP              func()
}

// Run serves until SIGINT or SIGTERM, then stops accepting and drains
// in-flight requests for up to 15 seconds. The whole request read is
// bounded, so a trickled body cannot pin a connection; writes are not,
// because releases and artifact downloads may legitimately run long.
// Run returns the listener's error, or nil after a clean shutdown.
func (d Daemon) Run() error {
	srv := &http.Server{
		Addr:              d.Addr,
		Handler:           d.Handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	defer OnHUP(func() {
		if d.OnHUP != nil {
			d.OnHUP()
		}
	})()

	errc := make(chan error, 1)
	go func() {
		fmt.Println(d.Banner)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Printf("%s: shutting down\n", d.Name)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// OnHUP runs f on every SIGHUP, one call at a time, until the returned
// stop func is called; stop returns once a running f has finished.
// While it runs, SIGHUP does not end the process.
func OnHUP(f func()) (stop func()) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			case <-hup:
				f()
			}
		}
	}()
	return func() {
		signal.Stop(hup)
		close(done)
		<-exited
	}
}
