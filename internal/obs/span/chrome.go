package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// ChromeEvent is one Chrome trace-event "complete" (X) duration event
// on a (pid, tid) track.  Request spans and internal/trace's simulated
// PE timelines are both written as these, so a served request and a
// schedule open in the same viewer.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   int            `json:"ts"`  // microseconds since the trace began
	Dur  int            `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeDoc writes events as one Chrome trace-event JSON document
// (the format chrome://tracing and Perfetto load).
func WriteChromeDoc(w io.Writer, events []ChromeEvent) error {
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(doc); err != nil {
		return fmt.Errorf("span: encoding chrome trace: %w", err)
	}
	return bw.Flush()
}

// WriteChrome writes the trace as a Chrome trace-event JSON document.
// Every span lands on one (pid 1, tid 1) track; the viewer nests the
// complete events by time containment, which matches the parent
// indices by construction (a child starts after and ends before its
// parent).  Spans still open at export time get a 1µs sliver so they
// stay visible.
func (t *Trace) WriteChrome(w io.Writer) error {
	spans := t.Export()
	events := make([]ChromeEvent, 0, len(spans))
	for i, sp := range spans {
		ts := int(sp.Start.Microseconds())
		dur := int((sp.End - sp.Start).Microseconds())
		if sp.End == 0 || dur < 1 {
			dur = 1 // zero-width and still-open spans vanish in the viewer
		}
		events = append(events, ChromeEvent{
			Name: sp.Name, Cat: "span", Ph: "X",
			Ts: ts, Dur: dur,
			PID: 1, TID: 1,
			Args: map[string]any{"trace": t.id.String(), "index": i, "parent": sp.Parent},
		})
	}
	return WriteChromeDoc(w, events)
}
