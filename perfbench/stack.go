package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/store"
)

// stack is one serving stack: server.New behind a loopback listener,
// and a client limited to maxConns connections.
type stack struct {
	srv   *server.Server
	hs    *http.Server
	tr    *http.Transport
	store *store.Store
	cl    *client.Client
	done  chan error
}

// startStack starts a server (over a store at storeDir, when not
// empty) with the engine pool at its default size.
func startStack(storeDir string, maxConns int) (*stack, error) {
	var opts server.Options
	var st *store.Store
	if storeDir != "" {
		var err error
		if st, err = store.Open(storeDir); err != nil {
			return nil, err
		}
		opts.Store = st
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &stack{srv: server.New(opts), store: st, done: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.tr = &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	s.cl, err = client.New("http://"+ln.Addr().String(), &http.Client{Transport: s.tr})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close shuts the listener down, waits for the serve loop and the
// in-flight handlers to end, then closes the server's engine session.
func (s *stack) close() {
	if s == nil {
		return
	}
	s.tr.CloseIdleConnections()
	if err := s.hs.Shutdown(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: shutdown: %v\n", err)
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
	}
	s.srv.Close()
}
