package main

import (
	"net/http"
	"testing"
)

// The server main listens with bounds every connection: its request
// headers must arrive within readHeaderTimeout and an idle keep-alive
// connection closes after idleTimeout. It has no write deadline, which
// would cut off the response of a long cold run.
func TestServerBoundsConnections(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadHeaderTimeout != readHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 || hs.IdleTimeout != idleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none", hs.WriteTimeout)
	}
}
