package sched

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/dag"
	"repro/internal/pim"
)

// WriteScheduleCSV exports one iteration schedule as CSV: one row per
// vertex with its PE and time window, plus the IPR placement of every
// edge — the hand-off format for external visualization or for
// loading a Para-CONV decision into another simulator.
func WriteScheduleCSV(w io.Writer, s *IterationSchedule) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "id", "name", "pe", "start", "finish", "placement"}); err != nil {
		return err
	}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		name := s.Graph.Node(t.Node).Name
		rec := []string{
			"task", strconv.Itoa(int(t.Node)), name,
			strconv.Itoa(int(t.PE)), strconv.Itoa(t.Start), strconv.Itoa(t.Finish), "",
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	for i := range s.Graph.Edges() {
		e := s.Graph.Edge(dag.EdgeID(i))
		place := ""
		if len(s.Assignment) == s.Graph.NumEdges() {
			place = s.Assignment[i].String()
		}
		rec := []string{
			"ipr", strconv.Itoa(i), "I(" + strconv.Itoa(int(e.From)) + "," + strconv.Itoa(int(e.To)) + ")",
			"", "", "", place,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// planJSON is the serialized form of a Plan summary.
type planJSON struct {
	Scheme               string `json:"scheme"`
	PEs                  int    `json:"pes"`
	Period               int    `json:"period"`
	ConcurrentIterations int    `json:"concurrent_iterations"`
	RMax                 int    `json:"r_max"`
	PrologueTime         int    `json:"prologue_time"`
	CachedIPRs           int    `json:"cached_iprs"`
	CacheLoadUnits       int    `json:"cache_load_units"`
	Vertices             int    `json:"vertices"`
	Edges                int    `json:"edges"`
	VertexRetiming       []int  `json:"vertex_retiming,omitempty"`
	CachedEdges          []int  `json:"cached_edges,omitempty"`
}

// WritePlanJSON exports a plan summary (configuration, period,
// retiming, cached edge list) as a single JSON object.
func WritePlanJSON(w io.Writer, p *Plan) error {
	doc := planJSON{
		Scheme:               p.Scheme,
		PEs:                  p.Iter.PEs,
		Period:               p.Iter.Period,
		ConcurrentIterations: p.ConcurrentIterations,
		RMax:                 p.RMax,
		PrologueTime:         p.PrologueTime(),
		CachedIPRs:           p.CachedIPRs,
		CacheLoadUnits:       p.CacheLoadUnits,
		Vertices:             p.Iter.Graph.NumNodes(),
		Edges:                p.Iter.Graph.NumEdges(),
	}
	if len(p.LogicalRetiming.R) > 0 {
		doc.VertexRetiming = append([]int(nil), p.LogicalRetiming.R...)
	}
	for i, place := range p.Iter.Assignment {
		if place == pim.InCache {
			doc.CachedEdges = append(doc.CachedEdges, i)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
