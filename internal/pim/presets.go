package pim

import "fmt"

// The paper's future work (§5) plans "to investigate the use of our
// approach on other emerging PIM architectures and propose a general
// model that can be adaptively applied to different system
// architectures".  These presets provide that generality: alternative
// published PIM instances expressed in the same Config vocabulary, so
// the whole Para-CONV pipeline runs unchanged on each.

// PRIME returns a configuration modelled on the ReRAM-based PRIME
// architecture [4]: computation happens inside resistive crossbar
// arrays, so the "cache" tier (full-function subarray buffers) is
// modest but the penalty for going to the far memory bank is steeper
// than an HMC vault, and data movement energy is lower overall (no
// TSV crossings).
func PRIME(numPEs int) Config {
	return Config{
		Name:                 fmt.Sprintf("prime-%d", numPEs),
		NumPEs:               numPEs,
		CacheUnitsPerPE:      2,
		CacheBytesPerUnit:    1024,
		NumVaults:            8,
		RegFileEntries:       16,
		PFIFODepth:           4,
		IFIFODepth:           8,
		OFIFODepth:           8,
		CacheAccessCycles:    3,
		EDRAMAccessCycles:    24, // 8x: bank activation dominates
		HopCycles:            1,
		CacheEnergyPJPerByte: 0.5,
		EDRAMEnergyPJPerByte: 4.0,
		CyclesPerTimeUnit:    12,
	}
}

// HMCGen2 returns a Hybrid-Memory-Cube generation-2 style instance:
// more vaults and faster TSV signalling than the Neurocube baseline,
// so the fetch penalty is milder (3x) but the per-PE cache is smaller
// — a bandwidth-rich, capacity-poor design point.
func HMCGen2(numPEs int) Config {
	return Config{
		Name:                 fmt.Sprintf("hmc2-%d", numPEs),
		NumPEs:               numPEs,
		CacheUnitsPerPE:      2,
		CacheBytesPerUnit:    2048,
		NumVaults:            32,
		RegFileEntries:       32,
		PFIFODepth:           8,
		IFIFODepth:           16,
		OFIFODepth:           16,
		CacheAccessCycles:    4,
		EDRAMAccessCycles:    12,
		HopCycles:            1,
		CacheEnergyPJPerByte: 1.0,
		EDRAMEnergyPJPerByte: 4.5,
		CyclesPerTimeUnit:    16,
	}
}

// EdgeDevice returns a small embedded PIM instance: few PEs, generous
// per-PE cache (capacity is cheap at small scale), slow and expensive
// DRAM — the regime where Para-CONV's allocation matters most per
// byte.
func EdgeDevice(numPEs int) Config {
	return Config{
		Name:                 fmt.Sprintf("edge-%d", numPEs),
		NumPEs:               numPEs,
		CacheUnitsPerPE:      8,
		CacheBytesPerUnit:    2048,
		NumVaults:            4,
		RegFileEntries:       16,
		PFIFODepth:           4,
		IFIFODepth:           8,
		OFIFODepth:           8,
		CacheAccessCycles:    2,
		EDRAMAccessCycles:    20, // 10x: LPDDR-class penalty
		HopCycles:            2,
		CacheEnergyPJPerByte: 0.8,
		EDRAMEnergyPJPerByte: 8.0,
		CyclesPerTimeUnit:    8,
	}
}

// Presets returns every built-in architecture at the given PE count,
// Neurocube first.
func Presets(numPEs int) []Config {
	return []Config{Neurocube(numPEs), PRIME(numPEs), HMCGen2(numPEs), EdgeDevice(numPEs)}
}

// Preset resolves a built-in architecture by its request name (the
// empty name is Neurocube, the paper's platform).
func Preset(name string, numPEs int) (Config, error) {
	switch name {
	case "", "neurocube":
		return Neurocube(numPEs), nil
	case "prime":
		return PRIME(numPEs), nil
	case "hmc2":
		return HMCGen2(numPEs), nil
	case "edge":
		return EdgeDevice(numPEs), nil
	default:
		return Config{}, fmt.Errorf("unknown architecture %q (want neurocube, prime, hmc2 or edge)", name)
	}
}
