package wire

import (
	"repro/internal/dag"
	"repro/internal/pim"
)

// The peer-fill frame is the request body of the cluster's
// GET /v1/plans/{fp} fill protocol (internal/cluster): a non-owner
// node that misses its local tiers ships the complete planning problem
// — variant, architecture configuration, and the kernel graph as the
// trailing dag frame — to the fingerprint's owner, which answers with
// a stored-plan frame (AppendPlan).  Carrying the full problem, not
// just the fingerprint, is what lets the owner solve on behalf of the
// whole fleet when it has never seen the graph either: that is how N
// identical bursts across the cluster collapse to one solve.
//
// Every pim.Config field is carried explicitly so the owner's
// reconstructed config fingerprint is byte-identical to the
// requester's; the dag binary codec round-trips exactly, so the graph
// fingerprint matches too, and the owner can verify the URL's
// fingerprint against the body before doing any work.

// kindPeerFill is the frame kind byte of a cluster peer-fill request.
const kindPeerFill = 'F'

// PeerFill is one decoded fill request: the planner variant and the
// target architecture.  The graph travels as the trailing dag frame
// and is returned separately, undecoded, by SplitPeerFill.
type PeerFill struct {
	Variant string
	Config  pim.Config
}

// AppendPeerFill appends the binary encoding of a fill request to dst.
func AppendPeerFill(dst []byte, variant string, cfg pim.Config, g *dag.Graph) []byte {
	dst = appendHeader(dst, kindPeerFill)
	dst = appendString(dst, variant)
	dst = appendString(dst, cfg.Name)
	dst = appendInt(dst, cfg.NumPEs)
	dst = appendInt(dst, cfg.CacheUnitsPerPE)
	dst = appendInt(dst, cfg.CacheBytesPerUnit)
	dst = appendInt(dst, cfg.NumVaults)
	dst = appendInt(dst, cfg.RegFileEntries)
	dst = appendInt(dst, cfg.PFIFODepth)
	dst = appendInt(dst, cfg.IFIFODepth)
	dst = appendInt(dst, cfg.OFIFODepth)
	dst = appendInt(dst, cfg.CacheAccessCycles)
	dst = appendInt(dst, cfg.EDRAMAccessCycles)
	dst = appendInt(dst, cfg.HopCycles)
	dst = appendFloat(dst, cfg.CacheEnergyPJPerByte)
	dst = appendFloat(dst, cfg.EDRAMEnergyPJPerByte)
	dst = appendInt(dst, cfg.CyclesPerTimeUnit)
	if g != nil {
		dst = dag.AppendBinary(dst, g)
	}
	return dst
}

// SplitPeerFill parses a fill frame's header and returns the trailing
// dag frame undecoded, as a sub-slice of data (see SplitRequest).  A
// missing graph is ErrNoGraph.
func SplitPeerFill(data []byte) (*PeerFill, []byte, error) {
	d, err := newDecoder(data, kindPeerFill)
	if err != nil {
		return nil, nil, err
	}
	pf := &PeerFill{}
	if pf.Variant, err = d.str("variant"); err != nil {
		return nil, nil, err
	}
	if pf.Config.Name, err = d.str("config name"); err != nil {
		return nil, nil, err
	}
	for _, f := range []struct {
		what string
		dst  *int
	}{
		{"num_pes", &pf.Config.NumPEs},
		{"cache_units_per_pe", &pf.Config.CacheUnitsPerPE},
		{"cache_bytes_per_unit", &pf.Config.CacheBytesPerUnit},
		{"num_vaults", &pf.Config.NumVaults},
		{"regfile_entries", &pf.Config.RegFileEntries},
		{"pfifo_depth", &pf.Config.PFIFODepth},
		{"ififo_depth", &pf.Config.IFIFODepth},
		{"ofifo_depth", &pf.Config.OFIFODepth},
		{"cache_access_cycles", &pf.Config.CacheAccessCycles},
		{"edram_access_cycles", &pf.Config.EDRAMAccessCycles},
		{"hop_cycles", &pf.Config.HopCycles},
	} {
		if *f.dst, err = d.integer(f.what); err != nil {
			return nil, nil, err
		}
	}
	if pf.Config.CacheEnergyPJPerByte, err = d.float("cache_energy_pj"); err != nil {
		return nil, nil, err
	}
	if pf.Config.EDRAMEnergyPJPerByte, err = d.float("edram_energy_pj"); err != nil {
		return nil, nil, err
	}
	if pf.Config.CyclesPerTimeUnit, err = d.integer("cycles_per_time_unit"); err != nil {
		return nil, nil, err
	}
	frame, err := d.graphFrame()
	if err != nil {
		return nil, nil, err
	}
	return pf, frame, nil
}
