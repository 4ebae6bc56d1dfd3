package server

import (
	"context"
	"net/http"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/wire"
)

// planByFingerprint implements GET /v1/plans/{fp}: the owner's side of
// the cluster fill protocol, and a plain content-addressed plan lookup
// for anyone else.  The fingerprint is looked up in the local tiers
// (in-memory cache, then durable store); on a full miss, a request
// body — a wire peer-fill frame carrying the complete planning problem
// — lets this node solve on the requester's behalf, through the same
// admission gate as every other solve (a 429 shed degrades the
// requester to its own local solve).  A bodiless miss is a 404.  The
// response body is always the plan's at-rest frame (wire.AppendAtRest):
// lean for para-conv, which skips both the owner's graph encode and the
// requester's graph decode on the cluster's warm path, self-contained
// for the baselines.
//
// Fills are served whatever this node's own ring view says about
// ownership: the requester routed here off its view, and answering is
// correct even when the views disagree (the solve itself never
// re-enters the cluster tier, so divergent views cannot loop).
func (s *Server) planByFingerprint(sr *statusRecorder, r *http.Request) {
	obs.ClusterForwards.Inc()

	fp := r.PathValue("fp")
	if !validFingerprint(fp) {
		// The fingerprint doubles as the durable store's file key, so
		// nothing but the canonical hex form may reach a lookup.
		writeError(sr, http.StatusBadRequest, "bad_fingerprint",
			"fingerprint must be 64 lowercase hex characters")
		return
	}

	if payload, ok := s.session.EncodedPlanByFingerprint(fp); ok {
		writeBody(sr, http.StatusOK, wire.ContentTypeBinary, payload)
		return
	}

	bs := bodyStatePool.Get().(*bodyState)
	defer putBodyState(bs)
	if !s.readBody(sr, r, bs, "fill") {
		return
	}
	if bs.buf.Len() == 0 {
		writeError(sr, http.StatusNotFound, "not_found", "no plan stored for %s", fp)
		return
	}
	// The fill frame ends in the problem graph's dag frame, like a
	// binary request: fingerprint it from its bytes, and decode it only
	// if the plan still is not in memory by the time the gate opens.
	pf, frame, err := wire.SplitPeerFill(bs.buf.Bytes())
	if err != nil {
		writeDecodeError(sr, "fill frame", err)
		return
	}
	graphFP := run.FrameFingerprint(frame)
	if run.PlanFingerprintHashed(pf.Variant, "", graphFP, pf.Config) != fp {
		// A mismatch means the requester and this node disagree on what
		// the problem hashes to — solving would poison the keyspace
		// under the requested fingerprint's name.
		writeError(sr, http.StatusBadRequest, "fingerprint_mismatch",
			"fill frame does not hash to %s", fp)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	var payload []byte
	if !s.admitted(ctx, sr, "plans", func() {
		var a run.Answer
		a, err = s.session.WithContext(ctx).WithoutPeerFill().PlanVariantHashed(pf.Variant, graphFP, pf.Config,
			func() (*dag.Graph, error) { return wire.DecodeGraph(frame, s.limits()) })
		if err != nil {
			return
		}
		payload = wire.AppendAtRest(nil, a.Plan)
	}) {
		return
	}
	if err != nil {
		writeSolveError(sr, err)
		return
	}
	writeBody(sr, http.StatusOK, wire.ContentTypeBinary, payload)
}

// validFingerprint reports whether fp is a canonical plan fingerprint:
// exactly the hex sha256 form run.PlanFingerprint produces.
func validFingerprint(fp string) bool {
	if len(fp) != 64 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
