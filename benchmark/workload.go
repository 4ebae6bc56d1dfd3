package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

const (
	// clients is the closed-loop caller count: callers of a planning
	// service wait for their plan, and the reference box has two CPUs.
	clients = 2
	// warmupRequests are sent (split over the clients) before the
	// window; set-up time ends at the last one's response.
	warmupRequests = 2000
	// setupRepeats is how many times a run sets the workload up from
	// nothing; setup_s is the median, the window runs on the last.  One
	// sub-second set-up is too noisy a sample to gate on.
	setupRepeats = 3
	// storeBudgetFrames sizes cold_solve's -store-max-bytes.
	storeBudgetFrames = 8
)

// workload is one way a plan can be served.
type workload struct {
	name string
	why  string
	// daemons is how many paraconvd addresses the workload needs; the
	// front daemon (the one the clients talk to) is always addrs[0].
	daemons int
	// pinned reports whether the population must be owned by addrs[1]
	// on the ring, so that every request is a peer fill whatever the
	// member names hash to.
	pinned bool
	// boot brings the workload's daemons up, ready to be warmed, and
	// returns them front first.  Every daemon it started is in the
	// returned slice even when it fails, so the caller can stop them.
	boot func(ctx context.Context, r *runner) ([]*daemon, error)
}

var workloads = []workload{
	{
		name:    "mem_hit",
		why:     "every request is a memory-LRU hit: the floor (HTTP, decode, fingerprint, lookup, encode) every other path pays",
		daemons: 1,
		boot: func(ctx context.Context, r *runner) ([]*daemon, error) {
			d, err := r.start(ctx, 0)
			return compact(d), err
		},
	},
	{
		name:    "cold_solve",
		why:     "every request misses memory and store, runs the full Para-CONV solve and writes through to a store at its byte budget",
		daemons: 1,
		boot: func(ctx context.Context, r *runner) ([]*daemon, error) {
			d, err := r.start(ctx, 0, "-cache-bound", strconv.Itoa(smallCacheBound),
				"-data-dir", r.dataDir, "-store-max-bytes", strconv.FormatInt(r.storeBudget(), 10))
			return compact(d), err
		},
	},
	{
		name:    "store_hit",
		why:     "a restarted daemon serves every request from the durable store (read, CRC, decode, validate, promote); the solver does nothing",
		daemons: 1,
		boot: func(ctx context.Context, r *runner) ([]*daemon, error) {
			// A first daemon solves the whole population into the data
			// dir and is drained; its restart re-opens that dir.
			first, err := r.start(ctx, 0, "-data-dir", r.dataDir)
			if err != nil {
				return compact(first), err
			}
			if err := r.sendAll(first.addr); err != nil {
				return compact(first), err
			}
			if err := first.stop(); err != nil {
				return nil, err
			}
			d, err := r.start(ctx, 0, "-cache-bound", strconv.Itoa(smallCacheBound), "-data-dir", r.dataDir)
			return compact(d), err
		},
	},
	{
		name:    "peer_fill",
		why:     "an edge node misses memory and fetches every plan from the ring owner's cache over the cluster fill protocol; store and solver do nothing",
		daemons: 2,
		pinned:  true,
		boot: func(ctx context.Context, r *runner) ([]*daemon, error) {
			peers := strings.Join(r.addrs, ",")
			owner, err := r.start(ctx, 1, "-peers", peers)
			if err != nil {
				return compact(owner), err
			}
			edge, err := r.start(ctx, 0, "-cache-bound", strconv.Itoa(smallCacheBound), "-peers", peers)
			if err != nil {
				return compact(edge, owner), err
			}
			return []*daemon{edge, owner}, r.sendAll(owner.addr)
		},
	},
}

// compact drops nil daemons (a failed start returns none).
func compact(ds ...*daemon) []*daemon {
	return slices.DeleteFunc(ds, func(d *daemon) bool { return d == nil })
}

// runner holds what one workload run shares between its set-ups, its
// window and its traced pass.
type runner struct {
	w       workload
	bin     string
	addrs   []string
	dataDir string
	pop     []*problem
	ans     *answers
}

func (r *runner) start(ctx context.Context, addr int, flags ...string) (*daemon, error) {
	return startDaemon(ctx, r.bin, r.addrs[addr], flags...)
}

// storeBudget is cold_solve's store byte bound: room for about
// storeBudgetFrames entries, so every write-through evicts.
func (r *runner) storeBudget() int64 {
	largest := 0
	for _, p := range r.pop {
		largest = max(largest, len(p.planFrame))
	}
	// 128 bytes cover the store's own frame header and key.
	return int64(storeBudgetFrames * (largest + 128))
}

// sendAll plans the whole population once on the daemon at addr over
// one connection, checking every answer.
func (r *runner) sendAll(addr string) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	l := &loader{c: c, pop: r.pop, ans: r.ans, share: halves(len(r.pop), 1)[0]}
	defer func() { l.c.close() }()
	for range r.pop {
		l.one()
	}
	if l.failed > 0 {
		return fmt.Errorf("warming %s: %d of %d requests failed: %w", addr, l.failed, l.attempted, l.firstErr)
	}
	return nil
}

// fleet is a set-up workload: its daemons (front first), one loader
// per client positioned after the warm-up, and what set-up cost.
type fleet struct {
	daemons []*daemon
	loaders []*loader
	setupS  float64
}

func (f *fleet) stop() error {
	var errs []error
	for _, l := range f.loaders {
		l.c.close()
	}
	for _, d := range f.daemons {
		errs = append(errs, d.stop())
	}
	return errors.Join(errs...)
}

// setUp brings the workload from nothing (an empty data dir, no
// processes) to the state the window measures, and times it from the
// first exec to the last warm-up response.
func (r *runner) setUp(ctx context.Context) (*fleet, error) {
	if err := os.RemoveAll(r.dataDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.dataDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	daemons, err := r.w.boot(ctx, r)
	f := &fleet{daemons: daemons}
	if err != nil {
		return nil, errors.Join(err, f.stop())
	}
	for _, share := range halves(len(r.pop), clients) {
		c, err := dial(daemons[0].addr)
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		f.loaders = append(f.loaders, &loader{c: c, pop: r.pop, ans: r.ans, share: share})
	}
	perClient := int64(warmupRequests / clients)
	driveAll(f.loaders, func(l *loader) bool { return l.attempted >= perClient })
	f.setupS = time.Since(start).Seconds()
	for _, l := range f.loaders {
		if l.failed > 0 {
			err := fmt.Errorf("warm-up: %d of %d requests failed: %w", l.failed, l.attempted, l.firstErr)
			return nil, errors.Join(err, f.stop())
		}
	}
	return f, nil
}

// window is what one measured window observed.
type window struct {
	seconds   float64
	lat       []int64 // sorted
	attempted int64
	failed    int64
	firstErr  error
	counts    pathCounts
	daemonCPU float64 // seconds, all daemons
	selfCPU   float64 // seconds, this process
	peakRSSMB float64 // summed over daemons
}

// measure runs the closed loop for d and reads the daemons' counters
// and CPU clocks on either side of it.  Nothing is traced here.
func (f *fleet) measure(ctx context.Context, d time.Duration) (*window, error) {
	before, ticks0, err := f.snapshot()
	if err != nil {
		return nil, err
	}
	for _, l := range f.loaders {
		// Room for every sample of the window, so the loop never grows it.
		l.lat, l.attempted, l.failed, l.firstErr = make([]int64, 0, 1<<20), 0, 0, nil
	}
	self0 := selfCPUSeconds()
	start := time.Now()
	deadline := start.Add(d)
	driveAll(f.loaders, func(*loader) bool { return !time.Now().Before(deadline) || ctx.Err() != nil })
	self1 := selfCPUSeconds()
	after, ticks1, err := f.snapshot()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	w := &window{
		counts:    windowCounts(before, after),
		daemonCPU: float64(ticks1-ticks0) / clockTicksPerSecond,
		selfCPU:   self1 - self0,
	}
	end := start
	for _, l := range f.loaders {
		w.lat = append(w.lat, l.lat...)
		w.attempted += l.attempted
		w.failed += l.failed
		if w.firstErr == nil {
			w.firstErr = l.firstErr
		}
		if l.end.After(end) {
			end = l.end
		}
	}
	slices.Sort(w.lat)
	w.seconds = end.Sub(start).Seconds()
	for _, dmn := range f.daemons {
		mb, err := dmn.peakRSSMB()
		if err != nil {
			return nil, err
		}
		w.peakRSSMB += mb
	}
	return w, nil
}

// snapshot scrapes every daemon and sums their CPU clocks.
func (f *fleet) snapshot() ([]counters, int64, error) {
	scrapes := make([]counters, len(f.daemons))
	var ticks int64
	for i, d := range f.daemons {
		var err error
		if scrapes[i], err = d.scrape(); err != nil {
			return nil, 0, err
		}
		t, err := d.cpuTicks()
		if err != nil {
			return nil, 0, err
		}
		ticks += t
	}
	return scrapes, ticks, nil
}

// selfCPUSeconds is this process's user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// ownedBy returns the population filter for a pinned workload: plan
// fingerprints the ring over members assigns to owner.
func ownedBy(members []string, owner string) func(fp string) bool {
	ring := cluster.NewRing(members, 0)
	return func(fp string) bool { return ring.Owner(fp) == owner }
}

// dataRootFS names the filesystem the data dirs live on: the store's
// fsyncs cost what that filesystem charges.
func dataRootFS(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-0x%x", uint32(st.Type))
}
