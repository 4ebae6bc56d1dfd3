// Package pim models the 3D-stacked processing-in-memory architecture
// Para-CONV targets (paper §2.1, Figure 1): a Neurocube-style extension
// of Micron's Hybrid Memory Cube where a logic tier of processing
// engines (PEs) sits under multiple tiers of DRAM/eDRAM, connected by
// through-silicon vias (TSVs) and a crossbar.
//
// Each PE integrates a PE FIFO (pFIFO), an ALU datapath, a register
// file and a small data cache for intermediate CNN processing results;
// input/output FIFOs (iFIFO/oFIFO) carry inter-PE traffic.  Fetching
// an intermediate result from a DRAM vault costs 2x-10x more time and
// energy than hitting the on-chip cache (paper §2.2) — that asymmetry
// is the entire reason Para-CONV's allocation problem exists, and this
// package is where it is quantified.
package pim

import (
	"errors"
	"fmt"
)

// PEID identifies one processing engine, 0..NumPEs-1.
type PEID int

// Placement says where an intermediate processing result lives.
type Placement uint8

const (
	// InCache places the IPR in the on-chip data cache of the PE array
	// (the scarce, fast option; profit P_α).
	InCache Placement = iota
	// InEDRAM places the IPR in the stacked eDRAM/DRAM vault (the
	// abundant, slow option; profit P_β, with P_α >> P_β).
	InEDRAM
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case InCache:
		return "cache"
	case InEDRAM:
		return "edram"
	default:
		return fmt.Sprintf("placement(%d)", uint8(p))
	}
}

// Config describes one PIM instance.  All latencies are in the same
// abstract "cycles" unit; the schedule-level time unit used by the
// dag/sched packages corresponds to CyclesPerTimeUnit cycles.
type Config struct {
	// Name labels the configuration in reports ("neurocube-16" etc.).
	Name string

	// NumPEs is the number of processing engines on the logic tier.
	// The paper evaluates 16, 32 and 64.
	NumPEs int

	// CacheUnitsPerPE is the data-cache capacity of one PE, in the
	// abstract capacity units that dag.Edge.Size is expressed in.
	// The paper's motivational example uses 1 (each PE cache holds a
	// single intermediate processing result).
	CacheUnitsPerPE int

	// CacheBytesPerUnit converts capacity units to bytes; with the
	// Neurocube preset the whole PE array lands in the paper's
	// 100-300 KB range.
	CacheBytesPerUnit int

	// NumVaults is the number of DRAM vaults reachable through TSVs.
	NumVaults int

	// RegFileEntries, PFIFODepth, IFIFODepth and OFIFODepth size the
	// per-PE microarchitectural buffers; the simulator uses the FIFO
	// depths for back-pressure modelling.
	RegFileEntries int
	PFIFODepth     int
	IFIFODepth     int
	OFIFODepth     int

	// CacheAccessCycles is the latency to read one IPR from a PE data
	// cache; EDRAMAccessCycles is the latency to fetch it from a
	// stacked eDRAM vault over TSVs.  Validity requires
	// EDRAMAccessCycles in [2x, 10x] of CacheAccessCycles, the span
	// the paper cites from [7,14].
	CacheAccessCycles int
	EDRAMAccessCycles int

	// HopCycles is the per-hop latency of the PE crossbar for
	// inter-PE traffic through iFIFO/oFIFO.
	HopCycles int

	// CacheEnergyPJPerByte and EDRAMEnergyPJPerByte quantify the
	// energy asymmetry for data movement accounting.
	CacheEnergyPJPerByte float64
	EDRAMEnergyPJPerByte float64

	// CyclesPerTimeUnit maps one schedule time unit (the unit of
	// dag.Node.Exec) to cycles.
	CyclesPerTimeUnit int
}

// Neurocube returns the Neurocube-derived configuration used in the
// paper's evaluation (§4.1), parameterized by the PE count (the paper
// sweeps 16, 32, 64; any positive count is accepted).
//
// The per-PE cache is four capacity units of 1 KB, putting the whole
// array at 64-256 KB for 16-64 PEs — inside the 100-300 KB envelope
// the paper quotes for "current advanced PIM architecture" at the
// upper configurations.  eDRAM access is 4x cache access latency and
// ~6x energy, the middle of the published 2x-10x band.
func Neurocube(numPEs int) Config {
	return Config{
		Name:                 fmt.Sprintf("neurocube-%d", numPEs),
		NumPEs:               numPEs,
		CacheUnitsPerPE:      4,
		CacheBytesPerUnit:    1024,
		NumVaults:            16,
		RegFileEntries:       32,
		PFIFODepth:           8,
		IFIFODepth:           16,
		OFIFODepth:           16,
		CacheAccessCycles:    4,
		EDRAMAccessCycles:    16,
		HopCycles:            2,
		CacheEnergyPJPerByte: 1.0,
		EDRAMEnergyPJPerByte: 6.0,
		CyclesPerTimeUnit:    16,
	}
}

// Validate checks the configuration invariants.
func (c Config) Validate() error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	check(c.NumPEs >= 1, "NumPEs = %d; want >= 1", c.NumPEs)
	check(c.CacheUnitsPerPE >= 1, "CacheUnitsPerPE = %d; want >= 1", c.CacheUnitsPerPE)
	check(c.CacheBytesPerUnit >= 1, "CacheBytesPerUnit = %d; want >= 1", c.CacheBytesPerUnit)
	check(c.NumVaults >= 1, "NumVaults = %d; want >= 1", c.NumVaults)
	check(c.PFIFODepth >= 1, "PFIFODepth = %d; want >= 1", c.PFIFODepth)
	check(c.IFIFODepth >= 1, "IFIFODepth = %d; want >= 1", c.IFIFODepth)
	check(c.OFIFODepth >= 1, "OFIFODepth = %d; want >= 1", c.OFIFODepth)
	check(c.CacheAccessCycles >= 1, "CacheAccessCycles = %d; want >= 1", c.CacheAccessCycles)
	check(c.CyclesPerTimeUnit >= 1, "CyclesPerTimeUnit = %d; want >= 1", c.CyclesPerTimeUnit)
	if c.CacheAccessCycles >= 1 {
		ratio := float64(c.EDRAMAccessCycles) / float64(c.CacheAccessCycles)
		check(ratio >= 2 && ratio <= 10,
			"EDRAMAccessCycles/CacheAccessCycles = %.2f; want within the published 2x-10x band", ratio)
	}
	check(c.EDRAMEnergyPJPerByte >= c.CacheEnergyPJPerByte,
		"EDRAM energy %.2f pJ/B below cache energy %.2f pJ/B", c.EDRAMEnergyPJPerByte, c.CacheEnergyPJPerByte)
	check(c.HopCycles >= 0, "HopCycles = %d; want >= 0", c.HopCycles)
	return errors.Join(errs...)
}

// TotalCacheUnits returns the aggregate on-chip cache capacity of the
// PE array, the S that bounds the dynamic program in internal/core.
func (c Config) TotalCacheUnits() int { return c.NumPEs * c.CacheUnitsPerPE }

// TotalCacheBytes returns the aggregate PE-array cache size in bytes.
func (c Config) TotalCacheBytes() int { return c.TotalCacheUnits() * c.CacheBytesPerUnit }

// FetchRatio returns how many times slower an eDRAM fetch is than a
// cache access.
func (c Config) FetchRatio() float64 {
	return float64(c.EDRAMAccessCycles) / float64(c.CacheAccessCycles)
}

// AccessCycles returns the access latency for the given placement.
func (c Config) AccessCycles(p Placement) int {
	if p == InCache {
		return c.CacheAccessCycles
	}
	return c.EDRAMAccessCycles
}

// TransferTimeUnits converts the access latency for placement p into
// whole schedule time units (rounding up, minimum 0).  Schedulers use
// this to derive dag.Edge.{Cache,EDRAM}Time defaults when a graph
// generator has not set them explicitly.
func (c Config) TransferTimeUnits(p Placement) int {
	cyc := c.AccessCycles(p)
	return (cyc + c.CyclesPerTimeUnit - 1) / c.CyclesPerTimeUnit
}

// MoveEnergyPJ returns the energy in picojoules to move n bytes
// to/from the given placement.
func (c Config) MoveEnergyPJ(p Placement, bytes int64) float64 {
	if p == InCache {
		return c.CacheEnergyPJPerByte * float64(bytes)
	}
	return c.EDRAMEnergyPJPerByte * float64(bytes)
}
