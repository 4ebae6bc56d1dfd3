package wire

import (
	"repro/internal/dag"
	"repro/internal/frame"
	"repro/internal/pim"
)

// The peer-fill frame is the request body of the cluster's
// GET /v1/plans/{fp} fill protocol (internal/cluster): a non-owner
// node that misses its local tiers ships the complete planning problem
// — variant, architecture configuration, and the kernel graph as the
// trailing dag frame — to the fingerprint's owner, which answers with
// the plan's lean frame (AppendLeanPlan).  Carrying the full problem, not
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
	dst = frame.AppendHeader(dst, kindPeerFill, Version)
	dst = frame.AppendBytes(dst, variant)
	dst = frame.AppendBytes(dst, cfg.Name)
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
	d := open(data, kindPeerFill)
	pf := &PeerFill{Variant: d.String("variant"), Config: pim.Config{
		Name:                 d.String("config name"),
		NumPEs:               d.Int("num_pes"),
		CacheUnitsPerPE:      d.Int("cache_units_per_pe"),
		CacheBytesPerUnit:    d.Int("cache_bytes_per_unit"),
		NumVaults:            d.Int("num_vaults"),
		RegFileEntries:       d.Int("regfile_entries"),
		PFIFODepth:           d.Int("pfifo_depth"),
		IFIFODepth:           d.Int("ififo_depth"),
		OFIFODepth:           d.Int("ofifo_depth"),
		CacheAccessCycles:    d.Int("cache_access_cycles"),
		EDRAMAccessCycles:    d.Int("edram_access_cycles"),
		HopCycles:            d.Int("hop_cycles"),
		CacheEnergyPJPerByte: d.Float64("cache_energy_pj"),
		EDRAMEnergyPJPerByte: d.Float64("edram_energy_pj"),
		CyclesPerTimeUnit:    d.Int("cycles_per_time_unit"),
	}}
	graph, err := graphFrame(&d)
	if err != nil {
		return nil, nil, err
	}
	return pf, graph, nil
}
