package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat's CPU
// fields: 100 on every Linux ABI Go supports.
const clockTicksPerSecond = 100

// buildDaemon compiles the real cmd/paraconvd into outDir and returns
// the binary's path.  The harness must run from the repository root.
func buildDaemon(ctx context.Context, outDir string) (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "paraconvd", "main.go")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "paraconvd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/paraconvd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building paraconvd: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddrs returns n loopback addresses on consecutive ports starting
// at base, moving up ten ports at a time while any is taken.  The
// ports are fixed rather than kernel-picked because peer_fill's
// population depends on the member names hashed onto the ring: the
// same seed must select the same graphs on every run.
func freeAddrs(base, n int) ([]string, error) {
	for ; base+n < 65536; base += 10 {
		addrs := make([]string, n)
		free := true
		for i := range addrs {
			addrs[i] = net.JoinHostPort("127.0.0.1", strconv.Itoa(base+i))
			if conn, err := net.DialTimeout("tcp", addrs[i], time.Second); err == nil {
				conn.Close()
				free = false
			}
		}
		if free {
			return addrs, nil
		}
	}
	return nil, fmt.Errorf("no %d consecutive free loopback ports at or above the base port", n)
}

// daemon is one running paraconvd subprocess.
type daemon struct {
	addr   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	bootS  float64 // exec -> first /readyz 200

	exited  chan struct{} // closed once the process has been reaped
	waitErr error         // cmd.Wait's result, valid after exited
}

// startDaemon execs the binary on addr with extra flags and waits for
// /readyz.
func startDaemon(ctx context.Context, bin, addr string, flags ...string) (*daemon, error) {
	d := &daemon{addr: addr, exited: make(chan struct{})}
	args := append([]string{"-addr", addr, "-loglevel", "warn"}, flags...)
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting paraconvd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := start.Add(15 * time.Second)
	for {
		if status, _, err := httpGet(d.addr, "/readyz"); err == nil && status == 200 {
			d.bootS = time.Since(start).Seconds()
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("paraconvd %v on %s exited before it was ready: %v\n%s", flags, addr, d.waitErr, d.stderr.String())
		default:
		}
		if err := ctx.Err(); err != nil || time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("paraconvd %v on %s never became ready (ctx: %v)\n%s", flags, addr, err, d.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain overruns.  A daemon that exits non-zero had
// its drain cut off, which a benchmark with idle clients never causes.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM) // fails only when already gone; exited says so
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("paraconvd on %s: %w\n%s", d.addr, d.waitErr, d.stderr.String())
		}
		return nil
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("paraconvd on %s did not drain in 20s; killed", d.addr)
	}
}

// kill ends the daemon at once and waits until it has been reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// cpuTicks returns the daemon's user+system CPU time in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatTicks(string(data))
}

// parseStatTicks extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line.  The command name in field 2 may itself hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatTicks(stat string) (int64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	fields := strings.Fields(stat[end+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14, 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command; want at least 13", len(fields))
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// peakRSSMB returns the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("proc status: VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// scrape fetches and parses the daemon's /metrics.
func (d *daemon) scrape() (counters, error) {
	status, body, err := httpGet(d.addr, "/metrics")
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("scraping %s: status %d", d.addr, status)
	}
	return parseExposition(bytes.NewReader(body))
}

// httpGet is the control-plane client (readiness, scrapes): one
// HTTP/1.0 exchange on its own connection, so the body is whatever
// arrives before the server closes.
func httpGet(addr, path string) (status int, body []byte, err error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.0\r\nHost: paraconvd\r\n\r\n", path); err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(conn)
	if err != nil {
		return 0, nil, err
	}
	head, body, ok := bytes.Cut(data, []byte("\r\n\r\n"))
	if !ok || len(head) < 12 || !bytes.HasPrefix(head, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("GET %s%s: malformed response", addr, path)
	}
	if status, err = strconv.Atoi(string(head[9:12])); err != nil {
		return 0, nil, fmt.Errorf("GET %s%s: bad status line", addr, path)
	}
	return status, body, nil
}
