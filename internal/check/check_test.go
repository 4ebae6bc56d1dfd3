package check

import (
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/pim"
)

func diamond() *dag.Graph {
	g := dag.New("diamond")
	for i := 0; i < 4; i++ {
		g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 1})
	}
	g.AddEdge(dag.Edge{From: 0, To: 1, Size: 1, EDRAMTime: 1})
	g.AddEdge(dag.Edge{From: 0, To: 2, Size: 1, EDRAMTime: 1})
	g.AddEdge(dag.Edge{From: 1, To: 3, Size: 1, EDRAMTime: 1})
	g.AddEdge(dag.Edge{From: 2, To: 3, Size: 1, EDRAMTime: 1})
	return g
}

func TestCheckRetiming(t *testing.T) {
	g := diamond()
	tests := []struct {
		name  string
		r     []int
		rEdge []int
		want  string // "" = legal; otherwise substring of the error
	}{
		{"all-zero", []int{0, 0, 0, 0}, []int{0, 0, 0, 0}, ""},
		{"legal-gaps", []int{2, 1, 1, 0}, []int{1, 1, 1, 1}, ""},
		{"slack-ok", []int{2, 0, 0, 0}, []int{1, 2, 0, 0}, ""},
		{"negative-r", []int{-1, 0, 0, 0}, []int{0, 0, 0, 0}, "negative retiming"},
		{"gap-too-small", []int{0, 0, 0, 0}, []int{1, 0, 0, 0}, "no legal edge retiming"},
		{"rrv-over-bound", []int{3, 0, 0, 0}, []int{3, 0, 0, 0}, "outside Theorem 3.1"},
		{"rrv-negative", []int{1, 0, 0, 0}, []int{-1, 0, 0, 0}, "outside Theorem 3.1"},
		{"wrong-lengths", []int{0, 0}, []int{0, 0, 0, 0}, "covers"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckRetiming(g, tc.r, tc.rEdge)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("CheckRetiming: %v, want legal", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckRetiming = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestCheckSchedule(t *testing.T) {
	exec := []int{2, 1, 1}
	tests := []struct {
		name               string
		numPEs, period     int
		slots              []Slot
		cacheLoad, makeCap int
		want               string
	}{
		{"valid", 2, 3,
			[]Slot{{PE: 0, Start: 0, Finish: 2}, {PE: 0, Start: 2, Finish: 3}, {PE: 1, Start: 0, Finish: 1}},
			2, 4, ""},
		{"overlap", 2, 3,
			[]Slot{{PE: 0, Start: 0, Finish: 2}, {PE: 0, Start: 1, Finish: 2}, {PE: 1, Start: 0, Finish: 1}},
			0, 4, "oversubscribed"},
		{"pe-out-of-range", 2, 3,
			[]Slot{{PE: 2, Start: 0, Finish: 2}, {PE: 0, Start: 0, Finish: 1}, {PE: 1, Start: 0, Finish: 1}},
			0, 4, "want in [0,2)"},
		{"window-outside", 2, 3,
			[]Slot{{PE: 0, Start: 2, Finish: 4}, {PE: 0, Start: 0, Finish: 1}, {PE: 1, Start: 0, Finish: 1}},
			0, 4, "outside [0,3]"},
		{"wrong-duration", 2, 3,
			[]Slot{{PE: 0, Start: 0, Finish: 1}, {PE: 0, Start: 2, Finish: 3}, {PE: 1, Start: 0, Finish: 1}},
			0, 4, "execution time"},
		{"cache-overflow", 2, 3,
			[]Slot{{PE: 0, Start: 0, Finish: 2}, {PE: 0, Start: 2, Finish: 3}, {PE: 1, Start: 0, Finish: 1}},
			5, 4, "capacity units"},
		{"bad-pes", 0, 3, []Slot{{}, {}, {}}, 0, 4, "PEs"},
		{"bad-period", 2, 0, []Slot{{}, {}, {}}, 0, 4, "period"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckSchedule(tc.numPEs, tc.period, exec, tc.slots, tc.cacheLoad, tc.makeCap)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("CheckSchedule: %v, want valid", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckSchedule = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestCheckAllocation(t *testing.T) {
	g := diamond() // 4 edges, Size 1 each
	cache2 := []pim.Placement{pim.InCache, pim.InCache, pim.InEDRAM, pim.InEDRAM}
	tests := []struct {
		name      string
		placement []pim.Placement
		capacity  int
		claim     Claim
		r         []int
		want      string
	}{
		{"consistent", cache2, 4, Claim{CacheUsed: 2, CachedCount: 2, RMax: 1}, []int{1, 0, 0, 0}, ""},
		{"alloc-only", cache2, 4, Claim{CacheUsed: 2, CachedCount: 2, RMax: -1}, nil, ""},
		{"over-capacity", cache2, 1, Claim{CacheUsed: 2, CachedCount: 2, RMax: -1}, nil, "capacity is 1"},
		{"wrong-used", cache2, 4, Claim{CacheUsed: 3, CachedCount: 2, RMax: -1}, nil, "claimed 3"},
		{"wrong-count", cache2, 4, Claim{CacheUsed: 2, CachedCount: 1, RMax: -1}, nil, "claimed 1"},
		{"wrong-rmax", cache2, 4, Claim{CacheUsed: 2, CachedCount: 2, RMax: 2}, []int{1, 0, 0, 0}, "R_max 1"},
		{"bad-placement", []pim.Placement{9, pim.InEDRAM, pim.InEDRAM, pim.InEDRAM}, 4,
			Claim{RMax: -1}, nil, "invalid placement"},
		{"short-placement", cache2[:2], 4, Claim{RMax: -1}, nil, "covers 2/4"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckAllocation(g, tc.placement, tc.capacity, tc.claim, tc.r)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("CheckAllocation: %v, want consistent", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckAllocation = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}
