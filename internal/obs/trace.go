package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// F is an event's payload: numeric and string fields keyed by name.
type F = map[string]any

// Event is one trace record. T is seconds since the tracer was created, so
// events from every layer of a solve share one clock.
type Event struct {
	T      float64 `json:"t"`
	Layer  string  `json:"layer"`
	Ev     string  `json:"ev"`
	Fields F       `json:"fields,omitempty"`
}

// Tracer receives structured events from the solve layers. Implementations
// must be safe for concurrent use: branch-and-bound workers, sweep
// goroutines, and sampler goroutines all emit into the same tracer.
//
// A nil Tracer disables tracing. Emit sites guard with a nil check BEFORE
// building the fields map, so the disabled path allocates nothing.
type Tracer interface {
	Emit(layer, ev string, fields F)
}

// JSONLTracer writes events as JSON Lines: one object per event, stamped,
// marshalled and written as a single Write call under one lock — concurrent
// emitters never interleave partial lines, and timestamps never go
// backwards down the file (a stamp taken before the lock could be overtaken
// by a later emitter's write).
type JSONLTracer struct {
	start time.Time

	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLTracer returns a tracer writing to w. The caller owns w (close
// the file after the last Emit); the tracer's clock starts now.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{start: time.Now(), w: w}
}

// Emit marshals and writes one event. Write errors are sticky: the first
// one is kept (see Err) and later events are dropped.
func (t *JSONLTracer) Emit(layer, ev string, fields F) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Event{T: time.Since(t.start).Seconds(), Layer: layer, Ev: ev, Fields: fields}
	b, err := json.Marshal(&e)
	if err != nil {
		// Unmarshallable payloads are a programming error; record and drop.
		if t.err == nil {
			t.err = err
		}
		return
	}
	if t.err == nil {
		_, t.err = t.w.Write(append(b, '\n'))
	}
}

// Err returns the first write or marshal error, if any.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
