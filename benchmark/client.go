package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"
)

// client is one closed-loop caller: a persistent raw-TCP HTTP/1.1
// connection writing pre-serialised requests and parsing just enough
// of the response to recover the status and the Content-Length body.
// net/http's client would spend more per exchange than a cache hit
// costs the daemon.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{addr: addr, conn: conn, br: bufio.NewReaderSize(conn, 32<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// exchange writes raw and reads one response.  The returned body is
// valid until the next exchange.
func (c *client) exchange(raw []byte) (status int, body []byte, err error) {
	if err := c.conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(raw); err != nil {
		return 0, nil, fmt.Errorf("writing request: %w", err)
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("reading status line: %w", err)
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", bytes.TrimSpace(line))
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", bytes.TrimSpace(line))
	}
	length := -1
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("reading header: %w", err)
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		if name, val, ok := bytes.Cut(line, []byte{':'}); ok &&
			bytes.EqualFold(bytes.TrimSpace(name), []byte("Content-Length")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(val))); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", bytes.TrimSpace(val))
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("response has no Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	for n := 0; n < length; {
		m, err := c.br.Read(c.body[n:])
		n += m
		if err != nil && n < length {
			return 0, nil, fmt.Errorf("reading %d-byte body: %w", length, err)
		}
	}
	return status, c.body, nil
}

// loader drives one client over its share of the population, one
// request at a time, and keeps every latency.
type loader struct {
	c     *client
	pop   []*problem
	ans   *answers
	share []int // population indices this client cycles through
	next  int   // position in share, carried from warm-up into the window

	lat       []int64 // send -> last byte, ns, one per correct response
	attempted int64
	failed    int64
	firstErr  error
	end       time.Time // when the last response landed
}

// one sends the next request of the cycle.  A transport error, a
// non-200 or a wrong body counts as failed; after a transport error
// the connection is replaced so one fault does not fail the rest.
func (l *loader) one() {
	k := l.share[l.next%len(l.share)]
	l.next++
	l.attempted++
	start := time.Now()
	status, body, err := l.c.exchange(l.pop[k].raw)
	l.end = time.Now()
	switch {
	case err != nil:
		l.c.close()
		if c, derr := dial(l.c.addr); derr == nil {
			l.c = c
		}
	case status != 200:
		err = fmt.Errorf("graph %d: status %d: %s", k, status, bytes.TrimSpace(body))
	default:
		err = l.ans.check(k, body)
	}
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return
	}
	l.lat = append(l.lat, l.end.Sub(start).Nanoseconds())
}

// driveAll runs every loader on its own goroutine until stop(l)
// reports true, and returns when all have finished.
func driveAll(loaders []*loader, stop func(l *loader) bool) {
	var wg sync.WaitGroup
	for _, l := range loaders {
		wg.Add(1)
		go func(l *loader) {
			defer wg.Done()
			for !stop(l) {
				l.one()
			}
		}(l)
	}
	wg.Wait()
}

// halves splits population indices 0..n-1 into one contiguous share
// per client.
func halves(n, clients int) [][]int {
	shares := make([][]int, clients)
	for k := 0; k < n; k++ {
		c := k * clients / n
		shares[c] = append(shares[c], k)
	}
	return shares
}
