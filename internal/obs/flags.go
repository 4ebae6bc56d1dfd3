package obs

import (
	"context"
	"flag"
	"log"
	"os"
	"time"
)

// Flags carries the observability flag values shared by the module's
// batch commands (paraconv, benchtab).
type Flags struct {
	httpAddr   string
	httpHold   time.Duration
	metricsOut string
	logLevel   string
	metrics    bool
}

// RegisterFlags declares the observability flags on the default flag
// set and returns the struct their values land in.
func RegisterFlags() *Flags {
	o := &Flags{}
	flag.StringVar(&o.httpAddr, "http", "", "serve /metrics, /metrics.json and /debug/pprof on this address (empty host binds loopback; port 0 picks a free port)")
	flag.DurationVar(&o.httpHold, "http-hold", 0, "keep the -http debug server up this long after the run finishes")
	flag.StringVar(&o.metricsOut, "metrics-out", "", "write a JSON metrics snapshot to this file at exit")
	flag.StringVar(&o.logLevel, "loglevel", "warn", "structured-log level: debug, info, warn, error")
	flag.BoolVar(&o.metrics, "metrics", true, "record runtime metrics (disable to measure the uninstrumented path)")
	return o
}

// Setup applies the parsed flag values: log level, the metrics enable
// gate, and the debug server.  The returned cleanup writes the
// -metrics-out snapshot, holds the server for -http-hold
// (interruptible through ctx), then shuts it down.
func (o *Flags) Setup(ctx context.Context) (func(), error) {
	lvl, err := ParseLevel(o.logLevel)
	if err != nil {
		return nil, err
	}
	SetLogger(SetupLogging(os.Stderr, lvl, false))
	SetEnabled(o.metrics)
	var srv *DebugServer
	if o.httpAddr != "" {
		srv, err = StartDebugServer(o.httpAddr, Default())
		if err != nil {
			return nil, err
		}
		log.Printf("debug server listening on %s", srv.Addr())
	}
	return func() {
		if o.metricsOut != "" {
			if err := writeMetricsSnapshot(o.metricsOut); err != nil {
				log.Printf("writing metrics snapshot: %v", err)
			}
		}
		if srv != nil {
			if o.httpHold > 0 {
				log.Printf("holding debug server on %s for %s", srv.Addr(), o.httpHold)
				select {
				case <-time.After(o.httpHold):
				case <-ctx.Done():
				}
			}
			srv.Close()
		}
	}, nil
}

// writeMetricsSnapshot writes the default registry's JSON snapshot.
func writeMetricsSnapshot(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Default().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
