package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"strconv"
	"time"

	"repro/internal/wire"
)

// The fill path talks raw HTTP/1.1 over pooled persistent TCP
// connections: net/http's client spends ~200µs per request on
// connection-pool and header machinery, which is more than the owner
// spends serving a cached fill.  Requests are pre-serialized byte
// slices written verbatim; responses are parsed just enough to recover the status code and a
// Content-Length-delimited body.  Anything irregular — no
// Content-Length, one past maxResponseBytes, a parse failure, a dead
// conn — closes the connection and surfaces as a fill failure, which
// feeds the peer's breaker and which the caller turns into a local
// solve.

// maxResponseBytes bounds the body roundTrip allocates for, checked
// before the allocation: a peer's Content-Length is as hostile as any
// other byte off the network.  An owner answers a fill with a plan's
// lean frame, which carries no graph: at one concurrent iteration it is
// about two thirds of the binary problem graph (8.4 KB for a 13.4 KB
// protein-shape graph), and that graph came in a request body of at
// most wire.MaxBodyBytes by default; four times that leaves headroom
// for replicated kernels.
const maxResponseBytes = 4 * wire.MaxBodyBytes

// peerConn is one pooled connection to a peer.
type peerConn struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialPeer(addr string, timeout time.Duration) (*peerConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &peerConn{conn: conn, br: bufio.NewReaderSize(conn, 32<<10)}, nil
}

func (pc *peerConn) close() { pc.conn.Close() }

// roundTrip writes one pre-serialized request and reads the full
// response.  The deadline bounds the whole exchange; an earlier ctx
// cancellation yanks the connection's deadline into the past so a
// cancelled leader unblocks immediately instead of waiting out the
// fill timeout.
func (pc *peerConn) roundTrip(ctx context.Context, deadline time.Time, raw []byte) (status int, body []byte, err error) {
	if err := pc.conn.SetDeadline(deadline); err != nil {
		return 0, nil, err
	}
	if ctx.Done() != nil {
		// AfterFunc instead of a watcher goroutine: the warm fill path
		// runs one roundTrip per cache miss fleet-wide, and a goroutine
		// spawn per exchange costs more than the exchange's syscalls.
		// If the callback has already fired when stop returns, the conn's
		// deadline is in the past — the read fails and the conn is
		// closed, never pooled, so a stale yank cannot leak into the
		// next exchange.
		stop := context.AfterFunc(ctx, func() { pc.conn.SetDeadline(time.Unix(1, 0)) })
		defer stop()
	}
	if _, err := pc.conn.Write(raw); err != nil {
		return 0, nil, fmt.Errorf("writing request: %w", err)
	}
	line, err := pc.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("reading status line: %w", err)
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", bytes.TrimSpace(line))
	}
	status, err = strconv.Atoi(string(bytes.TrimSpace(line[9:12])))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status in line %q", bytes.TrimSpace(line))
	}
	length := -1
	for {
		line, err := pc.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("reading header: %w", err)
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		if name, val, ok := bytes.Cut(line, []byte{':'}); ok &&
			bytes.EqualFold(bytes.TrimSpace(name), []byte("Content-Length")) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(val)))
			if err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", bytes.TrimSpace(val))
			}
		}
	}
	if length < 0 {
		// Chunked or close-delimited bodies never come from paraconvd's
		// buffered writers; refusing them keeps the conn state machine
		// trivial.
		return 0, nil, fmt.Errorf("response has no Content-Length")
	}
	if length > maxResponseBytes {
		return 0, nil, fmt.Errorf("response Content-Length %d exceeds the %d-byte bound", length, maxResponseBytes)
	}
	body = make([]byte, length)
	if _, err := readFull(pc.br, body); err != nil {
		return 0, nil, fmt.Errorf("reading %d-byte body: %w", length, err)
	}
	return status, body, nil
}

func readFull(br *bufio.Reader, dst []byte) (int, error) {
	n := 0
	for n < len(dst) {
		m, err := br.Read(dst[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// fillRequest pre-serializes the GET /v1/plans/{fp} exchange.  The
// fill body (a wire peer-fill frame) may be empty for a lookup-only
// probe of the owner's tiers.  The owner answers with the plan's
// lean frame, which the requester decodes against the problem graph it
// holds (wire.DecodeLeanPlan).
func fillRequest(addr, fp, contentType string, fill []byte) []byte {
	var b bytes.Buffer
	b.Grow(len(fill) + 256)
	fmt.Fprintf(&b, "GET /v1/plans/%s HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\nAccept: %s\r\nContent-Length: %d\r\n\r\n",
		fp, addr, contentType, contentType, len(fill))
	b.Write(fill)
	return b.Bytes()
}

// probeRequest pre-serializes the health probe exchange.
func probeRequest(addr string) []byte {
	return []byte(fmt.Sprintf("GET /healthz HTTP/1.1\r\nHost: %s\r\n\r\n", addr))
}
