package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/jobs"
	"repro/internal/wire"
)

// maxJobWait caps the long-poll a client may ask for with
// GET /v1/jobs/{id}?wait=...; longer asks are truncated, not rejected,
// so a client can always pass its own patience and let the server
// bound connection hold time.
const maxJobWait = 30 * time.Second

// submitJob is POST /v1/jobs[/{op}]: decode exactly like the sync
// path, then queue the solve on the async engine and answer 202 with
// the job id immediately.  The solve itself — and its span tree, when
// tracing — runs later on an async worker.
func (s *Server) submitJob(sr *statusRecorder, r *http.Request, op string, fn solveFunc) {
	// Job traces are per-job, not per-submission-request: the trace is
	// created here so the 202 can carry its id, but every span in it is
	// opened and finished inside the job function on the async worker.
	tr := s.newTrace(sr)

	// The job outlives this handler, so nothing it holds may alias the
	// pooled body: a binary graph frame is fingerprinted and decoded
	// now — which also keeps a bad graph a 400 here, not a failed job.
	bs := bodyStatePool.Get().(*bodyState)
	in, ok := s.decodeRequest(sr, r, bs)
	if ok {
		if err := in.detach(); err != nil {
			writeDecodeError(sr, "request", err)
			ok = false
		}
	}
	putBodyState(bs)
	if !ok {
		return
	}
	in.respBinary = false // results are polled as JSON (wire.JobStatus)
	job := func(ctx context.Context) (any, error) {
		ctx, endTrace := tr.begin(ctx, "jobs", op)
		defer endTrace()
		return fn(s.session.WithContext(ctx), in)
	}

	snap, err := s.jobs.Submit(op, s.requestTimeout(in.req.TimeoutMS), job)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			shed(sr, "jobs/"+op, "async job", s.cfg.JobQueueDepth)
		case errors.Is(err, jobs.ErrClosed):
			writeError(sr, http.StatusServiceUnavailable, "draining", "server is draining")
		default:
			writeError(sr, http.StatusInternalServerError, "internal", "submitting job: %v", err)
		}
		return
	}
	writeJSON(sr, http.StatusAccepted, &wire.JobAccepted{
		JobID:      snap.ID,
		State:      string(snap.State),
		QueueDepth: s.jobs.QueueDepth(),
	})
}

// jobStatusBody maps an engine snapshot to the wire shape, reusing the
// sync path's error taxonomy for failed/cancelled jobs.
func jobStatusBody(snap jobs.Snapshot) *wire.JobStatus {
	js := &wire.JobStatus{
		JobID: snap.ID,
		Op:    snap.Op,
		State: string(snap.State),
	}
	end := time.Now()
	if snap.State.Terminal() {
		end = snap.Finished
	}
	js.ElapsedMS = float64(end.Sub(snap.Submitted)) / float64(time.Millisecond)
	if snap.Err != nil {
		js.Error = snap.Err.Error()
		js.Kind = solveErrorKind(snap.Err)
	}
	if snap.State == jobs.StateDone {
		js.Result = snap.Result
	}
	return js
}

// jobStatus is GET /v1/jobs/{id}: the job's current state, long-polled
// when ?wait=<duration> is present (bounded by maxJobWait; the
// response is the latest state either way).
func (s *Server) jobStatus(sr *statusRecorder, r *http.Request) {
	var wait time.Duration
	if q := r.URL.Query().Get("wait"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d < 0 {
			writeError(sr, http.StatusBadRequest, "bad_request", "wait %q is not a duration", q)
			return
		}
		if d > maxJobWait {
			d = maxJobWait
		}
		wait = d
	}
	id := r.PathValue("id")
	snap, ok := s.jobs.Wait(r.Context(), id, wait)
	if !ok {
		writeError(sr, http.StatusNotFound, "not_found", "no job %q (expired or never submitted)", id)
		return
	}
	writeJSON(sr, http.StatusOK, jobStatusBody(snap))
}

// jobCancel is DELETE /v1/jobs/{id}: queued jobs land in cancelled
// immediately, running jobs when their solve observes the dead
// context; terminal jobs are unchanged.  The response is the job's
// state after the cancel took effect at the engine.
func (s *Server) jobCancel(sr *statusRecorder, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.jobs.Cancel(id)
	if !ok {
		writeError(sr, http.StatusNotFound, "not_found", "no job %q (expired or never submitted)", id)
		return
	}
	writeJSON(sr, http.StatusOK, jobStatusBody(snap))
}
