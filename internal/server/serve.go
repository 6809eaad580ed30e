package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ServeConfig wraps a daemon Config with the process-level knobs the
// CLI (and the chaos-test subprocess) share.
type ServeConfig struct {
	Config
	// Addr is the HTTP listen address (e.g. "127.0.0.1:8080"; ":0"
	// picks a free port).
	Addr string
	// Ready, when set, is called with the bound address once the
	// listener is accepting — before any signal can stop the daemon.
	Ready func(addr string)
}

// newHTTPServer wraps the daemon API with the timeouts a shared
// listener needs. ReadHeaderTimeout bounds how long a connection may
// dribble its request headers (the slowloris hold-open) and
// IdleTimeout reaps parked keep-alive connections; without them every
// half-open socket pins a goroutine for the daemon's lifetime.
// ReadTimeout and WriteTimeout deliberately stay zero: the events and
// outcomes endpoints stream NDJSON for as long as a campaign runs, and
// a whole-request deadline would sever healthy tails.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// Serve runs the full daemon lifecycle: recover state, start the
// scheduler, serve HTTP on Addr, and block until SIGINT/SIGTERM. On
// signal it drains — admission closes, queued specs stay durable,
// running campaigns finish or stop resumably — then stops the listener and
// returns nil, so the process can exit 0. A second signal aborts the
// wait and returns an error.
func Serve(cfg ServeConfig) error {
	// The signal handler must be live before Ready announces the
	// daemon: a client that sees the ready line may SIGTERM us
	// immediately, and an uninstalled handler means death by default
	// disposition instead of a drain.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	d, err := New(cfg.Config)
	if err != nil {
		return err
	}
	d.Start()

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(d.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if cfg.Ready != nil {
		cfg.Ready(ln.Addr().String())
	}
	cfg.Logf("vpnscoped listening on %s (state %s, fleet %d, queue %d)",
		ln.Addr(), cfg.StateDir, d.cfg.FleetWorkers, d.cfg.QueueBound)

	select {
	case sig := <-sigc:
		cfg.Logf("received %v: draining (admission closed, in-flight campaigns finishing or stopping for resume)", sig)
		drained := make(chan struct{})
		go func() {
			d.Drain()
			close(drained)
		}()
		select {
		case <-drained:
		case sig2 := <-sigc:
			return errors.New("second signal (" + sig2.String() + ") before drain finished")
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
		cfg.Logf("drain complete, exiting")
		return nil
	case err := <-serveErr:
		return err
	}
}
