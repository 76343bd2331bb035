package server

import (
	"net/http"
	"time"
)

// Listener timeouts shared by every HTTP endpoint the repository
// serves. ReadHeaderTimeout stops a client that opens a connection and
// never finishes its request headers from pinning a goroutine forever;
// IdleTimeout closes keep-alive connections nobody reuses. The idle
// bound stays above the 90 s idle-connection timeout of the repo's own
// HTTP clients (internal/client, the flayfront shard transport), so a
// client never reuses a connection the server has just closed. Request
// bodies are not time-bounded: snapshot uploads may be large.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpIdleTimeout       = 120 * time.Second
)

// NewHTTPServer wraps h in an http.Server with the listener timeouts
// set. flayd, flayfront and the flaybench cluster section serve through
// it.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: httpReadHeaderTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}
