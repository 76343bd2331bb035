package server

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerSetsTimeouts: every listener built through the
// helper bounds header reads and idle keep-alives, and serves the
// handler it was given.
func TestNewHTTPServerSetsTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	srv := NewHTTPServer(h)
	if srv.Handler == nil {
		t.Fatal("handler not installed")
	}
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
}
