package trace

import (
	"encoding/json"
	"io"
	"time"
)

// WriteJSONL writes the trace as JSON Lines: one SpanData document per
// line, in start order. The format is grep- and jq-friendly and append-
// safe, so a long-running server can stream many traces into one file.
func (t *Trace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range t.Spans() {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one Chrome trace_event entry. The "X" (complete) phase
// carries ts+dur in microseconds; pid/tid place events on tracks.
// Reference: the Trace Event Format spec (Chromium), consumed by
// chrome://tracing and Perfetto.
type chromeEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   float64           `json:"dur"`
	PID   int               `json:"pid"`
	TID   uint64            `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeTracks assigns each span a track (tid) so siblings that overlap
// in time — batch replicas running concurrently — render on separate
// rows instead of producing malformed nesting: a span shares its
// parent's track unless an earlier sibling on that track is still
// running, in which case it gets a fresh one.
func chromeTracks(spans []SpanData) map[uint64]uint64 {
	track := map[uint64]uint64{}
	next := uint64(1)
	// trackEnd tracks, per tid, when the latest event on it ends.
	trackEnd := map[uint64]float64{}
	for _, sp := range spans {
		tid, ok := track[sp.Parent]
		if !ok {
			tid = next
			next++
		}
		if end, busy := trackEnd[tid]; busy && sp.Parent != 0 && sp.StartUS < end {
			// An overlapping sibling already occupies the parent's track
			// beyond our start; open a new one.
			for {
				tid = next
				next++
				if e, b := trackEnd[tid]; !b || sp.StartUS >= e {
					break
				}
			}
		}
		track[sp.Span] = tid
		if e := sp.StartUS + sp.DurUS; e > trackEnd[tid] {
			trackEnd[tid] = e
		}
	}
	return track
}

// WriteChromeTraces writes traces as one Chrome trace_event JSON
// document (an array of "X" complete events), loadable in
// chrome://tracing and Perfetto. Each trace gets its own pid, so a ring
// of slow requests loads as side-by-side process tracks. Start offsets
// are rebased onto a shared origin (the earliest trace's start) to
// preserve relative arrival times. Span attributes become event args;
// the trace ID and parent span ride along as args too, so the span tree
// stays reconstructible.
func WriteChromeTraces(w io.Writer, traces []*Trace) error {
	var origin time.Time
	for i, tr := range traces {
		if i == 0 || tr.Start().Before(origin) {
			origin = tr.Start()
		}
	}
	events := []chromeEvent{}
	for i, tr := range traces {
		spans := tr.Spans()
		tracks := chromeTracks(spans)
		base := float64(tr.Start().Sub(origin)) / float64(time.Microsecond)
		for _, sp := range spans {
			args := map[string]string{"trace_id": sp.TraceID}
			if sp.Parent != 0 {
				args["parent_span"] = jsonUint(sp.Parent)
			}
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value
			}
			events = append(events, chromeEvent{
				Name:  sp.Name,
				Phase: "X",
				TS:    base + sp.StartUS,
				Dur:   sp.DurUS,
				PID:   i + 1,
				TID:   tracks[sp.Span],
				Args:  args,
			})
		}
	}
	return json.NewEncoder(w).Encode(events)
}

// jsonUint renders a span ID for an args map without fmt.
func jsonUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
