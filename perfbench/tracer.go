package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval. Spans of one simulation share Run; an
// experiment.tick span's Parent is its experiment.run span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Run      int    `json:"run,omitempty"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Trace    string `json:"trace,omitempty"`
	Protocol string `json:"protocol,omitempty"`
	Scenario string `json:"scenario,omitempty"`
}

// tracer keeps spans in memory, timed from its creation, until write.
type tracer struct {
	t0    time.Time
	spans []span
	// State of the simulation in flight.
	runs     int
	runSpan  int
	lastTick int64
	ticks    []float64 // experiment.tick durations, ms
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its ID.
func (t *tracer) begin(s span) int {
	s.ID = len(t.spans) + 1
	s.StartNS = t.now()
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) { t.spans[id-1].EndNS = t.now() }

// timed wraps fn in a span named name and returns fn's duration.
func (t *tracer) timed(name string, fn func()) time.Duration {
	id := t.begin(span{Name: name})
	fn()
	t.end(id)
	s := t.spans[id-1]
	return time.Duration(s.EndNS - s.StartNS)
}

// hooks returns the run hooks that wrap each simulation in an
// experiment.run span and each monitor tick in an experiment.tick span.
func (t *tracer) hooks() *runHooks {
	return &runHooks{
		begin: func(sp runSpec) {
			t.runs++
			s := span{Run: t.runs, Name: "experiment.run", Trace: sp.cfg.Trace.Name, Protocol: sp.cfg.Protocol.String()}
			if sp.cfg.Chaos != nil {
				s.Scenario = sp.cfg.Chaos.Name
			}
			t.runSpan = t.begin(s)
			t.lastTick = t.spans[t.runSpan-1].StartNS
		},
		tick: func() {
			now := t.now()
			t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.runSpan, Run: t.runs, Name: "experiment.tick", StartNS: t.lastTick, EndNS: now})
			t.ticks = append(t.ticks, float64(now-t.lastTick)/1e6)
			t.lastTick = now
		},
		end: func() { t.end(t.runSpan) },
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
