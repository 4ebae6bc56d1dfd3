// Package trace exports simulation event logs in interchange formats:
// JSON Lines for ad-hoc tooling, CSV for spreadsheets, and the Chrome
// trace-event format (the JSON consumed by chrome://tracing and
// Perfetto) for visual timeline inspection of kernel schedules,
// prologue fill and transfer windows.
package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/dag"
	"repro/internal/obs/span"
	"repro/internal/pim"
	"repro/internal/sim"
)

// WriteJSONL writes one JSON object per event.
func WriteJSONL(w io.Writer, tr *sim.Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range tr.Events {
		ev := &tr.Events[i]
		rec := map[string]any{
			"time": ev.Time,
			"kind": ev.Kind.String(),
			"iter": ev.Iter,
		}
		switch ev.Kind {
		case sim.EvTaskStart, sim.EvTaskEnd:
			rec["pe"] = int(ev.PE)
			rec["node"] = int(ev.Node)
		case sim.EvTransferStart, sim.EvTransferEnd:
			rec["edge"] = int(ev.Edge)
			rec["place"] = ev.Place.String()
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("trace: encoding event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// WriteCSV writes the event log as CSV with a fixed column set.
func WriteCSV(w io.Writer, tr *sim.Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "kind", "iter", "pe", "node", "edge", "place"}); err != nil {
		return err
	}
	for i := range tr.Events {
		ev := &tr.Events[i]
		pe, node, edge, place := "", "", "", ""
		switch ev.Kind {
		case sim.EvTaskStart, sim.EvTaskEnd:
			pe = strconv.Itoa(int(ev.PE))
			node = strconv.Itoa(int(ev.Node))
		case sim.EvTransferStart, sim.EvTransferEnd:
			edge = strconv.Itoa(int(ev.Edge))
			place = ev.Place.String()
		}
		rec := []string{
			strconv.Itoa(ev.Time), ev.Kind.String(), strconv.Itoa(ev.Iter),
			pe, node, edge, place,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteChrome writes the trace in Chrome trace-event JSON.  PEs appear
// as threads of process 1 ("PE array"); transfers as threads of
// process 2 ("memory"), one lane per placement.  g names the vertices;
// pass the plan's kernel graph.
func WriteChrome(w io.Writer, tr *sim.Trace, g *dag.Graph) error {
	const unit = 1000 // 1 schedule time unit -> 1 ms in the viewer
	var events []span.ChromeEvent
	err := tr.Instances(func(s, ev *sim.Event) error {
		switch ev.Kind {
		case sim.EvTaskEnd:
			name := fmt.Sprintf("T%d", ev.Node+1)
			if g != nil && int(ev.Node) < g.NumNodes() && g.Node(ev.Node).Name != "" {
				name = g.Node(ev.Node).Name
			}
			events = append(events, span.ChromeEvent{
				Name: name, Cat: "task", Ph: "X",
				Ts: s.Time * unit, Dur: (ev.Time - s.Time) * unit,
				PID: 1, TID: int(ev.PE) + 1,
				Args: map[string]any{"iteration": ev.Iter},
			})
		case sim.EvTransferEnd:
			tid := 1
			if ev.Place == pim.InEDRAM {
				tid = 2
			}
			name := fmt.Sprintf("I%d", ev.Edge)
			if g != nil && int(ev.Edge) < g.NumEdges() {
				e := g.Edge(ev.Edge)
				name = fmt.Sprintf("I(%d,%d)", e.From+1, e.To+1)
			}
			dur := ev.Time - s.Time
			if dur == 0 {
				dur = 1 // zero-width events vanish in the viewer
			}
			events = append(events, span.ChromeEvent{
				Name: name, Cat: "transfer:" + ev.Place.String(), Ph: "X",
				Ts: s.Time * unit, Dur: dur * unit,
				PID: 2, TID: tid,
				Args: map[string]any{"iteration": ev.Iter, "place": ev.Place.String()},
			})
		case sim.EvIterationDone:
			events = append(events, span.ChromeEvent{
				Name: fmt.Sprintf("iteration %d done", ev.Iter), Cat: "milestone", Ph: "X",
				Ts: ev.Time * unit, Dur: 1,
				PID: 3, TID: 1,
			})
		}
		return nil
	})
	if err != nil {
		return err
	}
	return span.WriteChromeDoc(w, events)
}
