package decision

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"softsku/internal/telemetry"
)

// Ledger volume telemetry: one counter, so operators can see how many
// decisions a tuning run generates without reading the ledger.
var mEvents = telemetry.Default.Counter("softsku_decision_events_total",
	"Decision events appended to ledgers.")

// Sink receives decision events. Ledger appends directly; Buffer
// collects events produced inside a parallel trial for a serial,
// spec-ordered drain — the split that keeps ledgers byte-identical at
// any worker count.
type Sink interface {
	// Record appends e with the given causal parent (-1: root, or, for
	// a Buffer, "the trial this buffer belongs to") and returns the
	// event's sequence number within the sink.
	Record(parent int, e Event) int
}

// Ledger is the append-only decision log of one run. It is safe for
// concurrent use, but deterministic ledgers require that appends
// happen on the serial phases of the run (spec build and merge) —
// the recording call sites in core/fleet obey that, and abtest's
// parallel-phase events route through a per-trial Buffer.
type Ledger struct {
	mu     sync.Mutex
	events []Event
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Record appends e, assigning its sequence number and parent link.
func (l *Ledger) Record(parent int, e Event) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = len(l.events)
	e.Parent = parent
	l.events = append(l.events, e)
	mEvents.Inc()
	return e.Seq
}

// Len returns the number of recorded events.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Events returns a copy of the ledger's events in append order.
func (l *Ledger) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Tail returns a copy of the last n events (all events when n <= 0).
func (l *Ledger) Tail(n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > len(l.events) {
		n = len(l.events)
	}
	out := make([]Event, n)
	copy(out, l.events[len(l.events)-n:])
	return out
}

// WriteJSONL writes the ledger as JSON Lines: one compact object per
// event, in append order. encoding/json marshals struct fields in
// declaration order, so the byte stream is a pure function of the
// event sequence — the property TestLedgerBitIdentical pins.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range l.Events() {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("decision: marshal event %d: %w", e.Seq, err)
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL ledger back into events. Sequence numbers
// and parent links are validated so replay and rendering can index
// into the slice without bounds anxiety.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("decision: line %d: %w", line, err)
		}
		if e.Seq != len(events) {
			return nil, fmt.Errorf("decision: line %d: sequence %d out of order (want %d)", line, e.Seq, len(events))
		}
		if e.Parent < -1 || e.Parent >= e.Seq {
			return nil, fmt.Errorf("decision: line %d: parent %d is not an earlier event", line, e.Parent)
		}
		if len(e.Evidence) == 0 {
			e.Evidence = nil // "evidence":[] reads as WriteJSONL's omitted field
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// Handler serves the ledger tail as JSON — the /debug/decisions
// endpoint. Query parameter n bounds the tail (default 64, 0 = all).
func (l *Ledger) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 64
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, `{"error":"n must be an integer"}`, http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Total  int     `json:"total"`
			Events []Event `json:"events"`
		}{l.Len(), l.Tail(n)})
	})
}

// Buffer collects the events one trial produces while it runs on a
// worker goroutine (abtest's trial_started and guardrail_trip).
// Buffered parents are buffer-local: -1 means "the trial's own ledger
// event", i >= 0 the buffer's i-th event. DrainTo rebases both onto
// real ledger sequence numbers during the serial merge, so event
// order in the ledger never depends on worker scheduling.
//
// A Buffer is used by one trial goroutine at a time and is not
// otherwise synchronized.
type Buffer struct {
	events []Event
}

// Record implements Sink with buffer-local sequence numbers.
func (b *Buffer) Record(parent int, e Event) int {
	e.Seq = len(b.events)
	e.Parent = parent
	b.events = append(b.events, e)
	return e.Seq
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int { return len(b.events) }

// DrainTo appends the buffered events to l as descendants of parent
// and empties the buffer.
func (b *Buffer) DrainTo(l *Ledger, parent int) {
	base := make([]int, len(b.events))
	for i, e := range b.events {
		p := parent
		if e.Parent >= 0 && e.Parent < i {
			p = base[e.Parent]
		}
		base[i] = l.Record(p, e)
	}
	b.events = b.events[:0]
}
