// Package web violates the httpserve rule every way the pass covers:
// raw listeners, the package-level http serving helpers, and the
// method form on *http.Server — all outside the sanctioned
// internal/obs and internal/server trees.
package web

import (
	"net"
	"net/http"
)

// Raw opens a listener directly.
func Raw() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0") // want httpserve
}

// Quick uses the package-level serving helpers.
func Quick(handler http.Handler) error {
	go http.ListenAndServe(":8080", handler) // want httpserve goroleak
	ln, err := Raw()
	if err != nil {
		return err
	}
	return http.Serve(ln, handler) // want httpserve
}

// Method serves through an http.Server value.
func Method(srv *http.Server) error {
	return srv.ListenAndServe() // want httpserve
}

// Client-side HTTP through the default client is fenced too: peer
// calls belong to the cluster's pooled fill client.
func Fetch(url string) (*http.Response, error) {
	return http.Get(url) // want peercall
}

// Indirect binds the listener constructor to a variable first; the
// reference is the violation, not the call syntax.
func Indirect() (net.Listener, error) {
	l := net.Listen // want httpserve
	return l("tcp", "127.0.0.1:0")
}
