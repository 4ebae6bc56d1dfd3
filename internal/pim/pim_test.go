package pim

import (
	"strings"
	"testing"
)

func TestNeurocubePresetsValid(t *testing.T) {
	for _, n := range []int{1, 4, 16, 32, 64, 100} {
		cfg := Neurocube(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("Neurocube(%d).Validate: %v", n, err)
		}
		if cfg.NumPEs != n {
			t.Errorf("Neurocube(%d).NumPEs = %d", n, cfg.NumPEs)
		}
	}
}

func TestNeurocubeCacheEnvelope(t *testing.T) {
	// The paper says current PIM provides 100-300KB cache for the
	// entire PE array; our 32- and 64-PE presets must land inside it.
	for _, n := range []int{32, 64} {
		b := Neurocube(n).TotalCacheBytes()
		if b < 100*1024 || b > 300*1024 {
			t.Errorf("Neurocube(%d) total cache = %d B; want within [100KB,300KB]", n, b)
		}
	}
}

func TestFetchRatioWithinBand(t *testing.T) {
	cfg := Neurocube(16)
	r := cfg.FetchRatio()
	if r < 2 || r > 10 {
		t.Errorf("FetchRatio = %.2f; want within [2,10]", r)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := Neurocube(16)
	mutations := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero PEs", func(c *Config) { c.NumPEs = 0 }, "NumPEs"},
		{"zero cache", func(c *Config) { c.CacheUnitsPerPE = 0 }, "CacheUnitsPerPE"},
		{"zero vaults", func(c *Config) { c.NumVaults = 0 }, "NumVaults"},
		{"fetch too cheap", func(c *Config) { c.EDRAMAccessCycles = c.CacheAccessCycles }, "2x-10x"},
		{"fetch too dear", func(c *Config) { c.EDRAMAccessCycles = 100 * c.CacheAccessCycles }, "2x-10x"},
		{"energy inverted", func(c *Config) { c.EDRAMEnergyPJPerByte = 0.1 }, "energy"},
		{"zero pfifo", func(c *Config) { c.PFIFODepth = 0 }, "PFIFODepth"},
		{"negative hops", func(c *Config) { c.HopCycles = -1 }, "HopCycles"},
		{"zero cycles per unit", func(c *Config) { c.CyclesPerTimeUnit = 0 }, "CyclesPerTimeUnit"},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := base
			m.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate returned nil, want error")
			}
			if !strings.Contains(err.Error(), m.want) {
				t.Errorf("error %q does not mention %q", err, m.want)
			}
		})
	}
}

func TestPlacementString(t *testing.T) {
	if InCache.String() != "cache" || InEDRAM.String() != "edram" {
		t.Errorf("Placement strings: %q, %q", InCache, InEDRAM)
	}
	if got := Placement(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown placement string = %q", got)
	}
}

func TestAccessAndTransfer(t *testing.T) {
	cfg := Neurocube(16)
	if cfg.AccessCycles(InCache) != cfg.CacheAccessCycles {
		t.Error("AccessCycles(InCache) mismatch")
	}
	if cfg.AccessCycles(InEDRAM) != cfg.EDRAMAccessCycles {
		t.Error("AccessCycles(InEDRAM) mismatch")
	}
	if got := cfg.TransferTimeUnits(InCache); got != 1 {
		t.Errorf("cache transfer units = %d, want 1 (4 cycles / 16 per unit, rounded up)", got)
	}
	if got := cfg.TransferTimeUnits(InEDRAM); got != 1 {
		t.Errorf("edram transfer units = %d, want 1 (16 cycles / 16 per unit)", got)
	}
}

func TestMoveEnergyAsymmetry(t *testing.T) {
	cfg := Neurocube(16)
	c := cfg.MoveEnergyPJ(InCache, 1024)
	e := cfg.MoveEnergyPJ(InEDRAM, 1024)
	if e <= c {
		t.Errorf("eDRAM move energy %.1f <= cache %.1f; paper requires 2x-10x more", e, c)
	}
	if ratio := e / c; ratio < 2 || ratio > 10 {
		t.Errorf("energy ratio %.2f outside [2,10]", ratio)
	}
}
