package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
)

// peerResponses seeds FuzzPeerResponse: what an owner really sends,
// and each way a hostile or broken peer can answer instead.
var peerResponses = []string{
	"HTTP/1.1 200 OK\r\nContent-Length: 18\r\nContent-Type: application/x-paraconv-bin\r\nDate: Mon, 19 Oct 2026 11:00:00 GMT\r\n\r\nencoded-plan-frame",
	"HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nX-Content-Type-Options: nosniff\r\nContent-Length: 5\r\n\r\nmiss\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\n",
	fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", maxResponseBytes+1),
	"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
	"HTTP/1.1 200 OK\r\n",
}

// exchangeWith runs one roundTrip against a fake peer on the other end
// of a pipe that reads the request and answers with resp.
func exchangeWith(resp []byte) (int, []byte, error) {
	client, peer := net.Pipe()
	defer client.Close()
	req := probeRequest("peer:1")
	go func() {
		defer peer.Close()
		if _, err := io.ReadFull(peer, make([]byte, len(req))); err == nil {
			peer.Write(resp)
		}
	}()
	pc := &peerConn{conn: client, br: bufio.NewReaderSize(client, 32<<10)}
	return pc.roundTrip(context.Background(), time.Now().Add(2*time.Second), req)
}

// FuzzPeerResponse: whatever a peer answers, roundTrip returns a
// status and a body within maxResponseBytes, or an error; it never
// panics.
func FuzzPeerResponse(f *testing.F) {
	for _, r := range peerResponses {
		f.Add([]byte(r))
	}
	f.Fuzz(func(t *testing.T, resp []byte) {
		if _, body, err := exchangeWith(resp); err == nil && len(body) > maxResponseBytes {
			t.Fatalf("roundTrip returned a %d-byte body past the %d-byte bound", len(body), maxResponseBytes)
		}
	})
}

// TestPeerResponseBound: a real owner response is read, and each
// malformed or oversized one is an error.
func TestPeerResponseBound(t *testing.T) {
	if status, body, err := exchangeWith([]byte(peerResponses[0])); err != nil || status != 200 || string(body) != "encoded-plan-frame" {
		t.Fatalf("owner response: status %d body %q err %v", status, body, err)
	}
	for _, r := range peerResponses[2:] {
		if _, _, err := exchangeWith([]byte(r)); err == nil {
			t.Errorf("roundTrip accepted %q", r)
		}
	}
}

// TestClusterFillRejectsLyingLength: a peer that claims a body past
// the bound fails the fill before anything is allocated for it, counts
// as a fill failure, and opens its breaker like any failing peer.
func TestClusterFillRejectsLyingLength(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					if line == "\r\n" {
						conn.Write([]byte(peerResponses[4]))
						return
					}
				}
			}()
		}
	}()
	peer := ln.Addr().String()
	c := newTestCluster(t, "self:1", []string{"self:1", peer}, Config{ProbeInterval: time.Hour})
	fp := ownedBy(t, c, peer)
	before := obs.ClusterPeerFillFailures.Value()
	for i := 0; i < failureThreshold; i++ {
		if _, ok := c.Fill(context.Background(), fp, nil); ok {
			t.Fatal("Fill accepted a peer's lying Content-Length")
		}
	}
	if got := obs.ClusterPeerFillFailures.Value() - before; got != failureThreshold {
		t.Fatalf("%d fill failures counted, want %d", got, failureThreshold)
	}
	if live, total := c.Health(); live != 1 || total != 2 {
		t.Fatalf("Health() = %d/%d after %d rejected fills, want the peer's breaker open (1/2)", live, total, failureThreshold)
	}
}
