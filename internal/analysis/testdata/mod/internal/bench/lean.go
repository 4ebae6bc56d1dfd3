// Package bench measures kernels in process and holds no client: an
// http.Client here would be a peer-call path outside the cluster's
// breaker and pool, like anywhere else.
package bench

import "net/http"

// Driver constructs a measurement client.
func Driver() http.Client {
	return http.Client{} // want peercall
}
