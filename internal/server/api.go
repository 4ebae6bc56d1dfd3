package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/wire"
)

// The exchange types live in internal/wire so the client tooling
// (cmd/paraconvload, the benchmark/ load generator) shares one schema and both
// codecs with the server; the aliases keep this package's call sites
// unchanged.
type (
	request            = wire.Request
	planResponse       = wire.PlanResponse
	simulateResponse   = wire.SimulateResponse
	archResult         = wire.ArchResult
	selectArchResponse = wire.SelectArchResponse
	errorResponse      = wire.ErrorResponse
)

// statusClientClosed is the nginx-convention status for "client went
// away before we could answer" — there is no registered HTTP code for
// it, but the access metrics need the case distinguished from 5xx.
const statusClientClosed = 499

// respBufPool recycles the buffers writeResponse stages bodies in;
// buffers that ballooned past maxPooledBodyBytes are dropped rather
// than pinned.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeResponse encodes v — as JSON, or as its binary wire frame — and
// sends it with the given status.  The body is staged in a pooled
// buffer and written in one call, so an encoding failure can still
// become a 500 (nothing has been sent yet) and the connection sees a
// single write with a Content-Length instead of the chunked drip of an
// encoder bound to the wire.  Only /v1/plan answers have a binary
// frame: every other body — the simulate and selectarch results, and
// errors (see writeError) — is JSON whatever the client accepts.
//
//paraconv:hotpath
func writeResponse(w http.ResponseWriter, status int, v any, binary bool) {
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	contentType := wire.ContentTypeBinary
	var err error
	if p, ok := v.(*planFrame); ok {
		buf.Write(p.frame.Append(buf.AvailableBuffer(), p.iterations, p.totalTime, p.throughput))
	} else if p, ok := v.(*planResponse); ok && binary {
		buf.Write(wire.AppendPlanResponse(buf.AvailableBuffer(), p))
	} else {
		contentType = "application/json; charset=utf-8"
		err = json.NewEncoder(buf).Encode(v)
	}
	if err != nil {
		obs.Log().Debug("server: encoding response", "err", err)
		http.Error(w, `{"error":"encoding response","kind":"internal"}`, http.StatusInternalServerError)
	} else {
		writeBody(w, status, contentType, buf.Bytes())
	}
	if buf.Cap() <= maxPooledBodyBytes {
		respBufPool.Put(buf)
	}
}

// writeBody sends one fully staged body.  Content-Length is explicit
// because the cluster's lean client refuses chunked responses.
func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		obs.Log().Debug("server: writing response", "err", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) { writeResponse(w, status, v, false) }

// writeError sends a structured JSON error.  When the writer is the
// request's statusRecorder and a trace was sampled, the body carries
// the trace id so the client can name the exact request when filing
// the failure.
func writeError(w http.ResponseWriter, status int, kind, format string, args ...any) {
	resp := errorResponse{Error: fmt.Sprintf(format, args...), Kind: kind}
	if sr, ok := w.(*statusRecorder); ok {
		resp.TraceID = sr.traceID
	}
	writeJSON(w, status, resp)
}

// requestCodec classifies the request body's media type: JSON (the
// default when no Content-Type is sent), the binary wire format, or
// unsupported.  Parameters after ';' (charset and friends) are
// ignored.
func requestCodec(r *http.Request) (binary, ok bool) {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.TrimSpace(ct)
	switch {
	case ct == "" || strings.EqualFold(ct, wire.ContentTypeJSON):
		return false, true
	case strings.EqualFold(ct, wire.ContentTypeBinary):
		return true, true
	default:
		return false, false
	}
}

// responseBinary decides the response codec from the Accept header:
// an explicit application/x-paraconv-bin selects binary; no Accept (or
// the wildcard */*) mirrors the request codec; any other preference
// falls back to JSON.
func responseBinary(r *http.Request, reqBinary bool) bool {
	accept := r.Header.Get("Accept")
	if accept == "" || accept == "*/*" {
		return reqBinary
	}
	return strings.Contains(accept, wire.ContentTypeBinary)
}

// writeSolveError maps a solve failure to a response: context errors
// become 504/499 (the deadline or the client gave out, not the
// server), a graph that failed its deferred decode is the decode error
// it would have been up front, a bad variant is a request error, and
// everything else is the planner rejecting the input — the graph
// validated, so the problem is still the client's data.
func writeSolveError(w http.ResponseWriter, err error) {
	var graphErr *wire.GraphError
	switch {
	case errors.As(err, &graphErr):
		// A binary request's graph is decoded only once the plan cache
		// has missed, so its decode failure arrives down the solve path.
		writeDecodeError(w, "request", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "timeout", "request deadline expired: %v", err)
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosed, "canceled", "request canceled: %v", err)
	case errors.Is(err, run.ErrUnknownVariant):
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "unplannable", "%v", err)
	}
}

// statusClass buckets a status code into the fixed label set of the
// request counter.
func statusClass(status int) string {
	switch {
	case status == http.StatusTooManyRequests:
		return "429"
	case status == statusClientClosed:
		return "499"
	case status == http.StatusGatewayTimeout:
		return "504"
	case status >= 200 && status < 300:
		return "2xx"
	case status >= 400 && status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// graphReaderPool recycles the strings.Reader parseGraph wraps the
// request's graph text in; readers are reset to the empty string
// before pooling so they do not pin request bodies.
var graphReaderPool = sync.Pool{New: func() any { return new(strings.Reader) }}

// parseGraph reads the request's graph text under the server's size
// caps; failures carry the wire taxonomy writeDecodeError maps.
func (s *Server) parseGraph(req *request) (*dag.Graph, error) {
	if strings.TrimSpace(req.Graph) == "" {
		return nil, wire.ErrNoGraph
	}
	rd := graphReaderPool.Get().(*strings.Reader)
	rd.Reset(req.Graph)
	g, err := dag.ReadTextLimits(rd, s.limits())
	rd.Reset("")
	graphReaderPool.Put(rd)
	if err != nil {
		return nil, &wire.GraphError{Err: err}
	}
	return g, nil
}
