package main

import (
	"time"

	"psbox"
)

// span is one timed call from the benchmark into a layer of psbox.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span in the same repetition; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rep instruments one repetition of a workload. Its spans are recorded
// only when tracing is on; the per-layer counts are kept in both modes
// because they cost a few additions.
type rep struct {
	tracing bool
	t0      time.Time
	spans   []span
	open    []int

	counts map[string]float64
}

func newRep(tracing bool) *rep {
	return &rep{tracing: tracing, t0: time.Now(), counts: make(map[string]float64)}
}

// span runs fn inside a span named after the layer it calls into.
func (r *rep) span(name string, fn func()) {
	if !r.tracing {
		fn()
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, id)
	fn()
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// build constructs a System inside a "build" span.
func (r *rep) build(fn func() *psbox.System) *psbox.System {
	var sys *psbox.System
	r.span("build", func() { sys = fn() })
	r.counts["build.systems"]++
	return sys
}

// run advances sys by d inside a "run" span.
func (r *rep) run(sys *psbox.System, d psbox.Duration) {
	r.span("run", func() { sys.Run(d) })
	r.counts["run.sim_s"] += d.Seconds()
}

// finish adds a System's end-of-life counts: engine events and the rail
// history its meter holds.
func (r *rep) finish(sys *psbox.System) {
	r.counts["run.events"] += float64(sys.Eng.Fired())
	for _, name := range sys.Meter.Rails() {
		r.counts["hw.segments"] += float64(sys.Meter.Rail(name).Segments())
	}
}

// traceCounts adds the health of a System's trace ring.
func (r *rep) traceCounts(sys *psbox.System) {
	r.counts["obs.trace.events"] += float64(sys.Trace.Total())
	r.counts["obs.trace.retained"] += float64(sys.Trace.Len())
	r.counts["obs.trace.dropped"] += float64(sys.Trace.Dropped())
}

// selfTimes returns each span name's total self time: a span's duration
// minus the time its direct children cover. Children of one span never
// overlap, because the benchmark calls layers one at a time.
func (r *rep) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range r.spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[r.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// rootTime is the summed duration of the repetition's root spans.
func (r *rep) rootTime() time.Duration {
	var total time.Duration
	for _, s := range r.spans {
		if s.Parent < 0 {
			total += time.Duration(s.End - s.Start)
		}
	}
	return total
}
