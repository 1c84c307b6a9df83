package sim

import (
	"container/heap"
	"fmt"
)

// Event is a callback scheduled to fire at a simulated instant.
type Event func(now Time)

// Handle identifies a scheduled event so it can be cancelled. It carries
// the queued item itself, so Cancel needs no lookup table. The zero
// Handle is invalid.
type Handle struct {
	it  *item
	seq uint64
}

type item struct {
	at    Time
	seq   uint64 // tie-break: FIFO among events at the same instant
	fn    Event  // nil once the item leaves the queue
	index int    // heap index; -1 once popped or cancelled
}

type eventQueue []*item

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	it := x.(*item)
	it.index = len(*q)
	*q = append(*q, it)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*q = old[:n-1]
	return it
}

// Engine is a discrete-event simulation executor. It is not safe for
// concurrent use; all simulated subsystems run inside its event loop.
type Engine struct {
	now     Time
	nextSeq uint64
	queue   eventQueue
	//psbox:allow-snapshotstate transient re-entrancy guard; true whenever a checkpoint event could observe it
	running bool
	fired   uint64

	// probe, when set, observes every probeStride-th fired event. The
	// fired counter is a pure function of the scenario, so probe firings
	// replay identically across checkpoint/restore — unlike Run-call
	// boundaries, which differ between a straight run and a resumed one.
	probe func(now Time, fired uint64)
	//psbox:allow-snapshotstate probe configuration, rewired by the rebuilt scenario, not replayed state
	probeStride uint64
}

// SetFiredProbe installs a hook invoked after every stride-th event
// fires, with the current time and cumulative fired count. A nil fn
// clears the probe. The observability layer uses this to mark engine
// progress without the engine importing it.
func (e *Engine) SetFiredProbe(stride uint64, fn func(now Time, fired uint64)) {
	if stride == 0 {
		stride = 1
	}
	e.probe = fn
	e.probeStride = stride
}

// NewEngine returns an engine positioned at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far; useful for budgeting
// and for detecting runaway models in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn to run at instant t. Scheduling in the past panics: models
// that do so are buggy and would silently corrupt causality.
func (e *Engine) At(t Time, fn Event) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.nextSeq++
	it := &item{at: t, seq: e.nextSeq, fn: fn}
	heap.Push(&e.queue, it)
	return Handle{it: it, seq: it.seq}
}

// After schedules fn to run d from now.
func (e *Engine) After(d Duration, fn Event) Handle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel revokes a scheduled event. It reports whether the event was still
// pending in this engine's queue (false if it already fired, was
// cancelled, belongs to another engine, or the handle is zero).
func (e *Engine) Cancel(h Handle) bool {
	it := h.it
	if it == nil || it.index < 0 || it.index >= len(e.queue) || e.queue[it.index] != it {
		return false
	}
	heap.Remove(&e.queue, it.index)
	it.fn = nil
	return true
}

// Pending reports the number of events still queued.
func (e *Engine) Pending() int { return len(e.queue) }

// Run executes events in timestamp order until the queue drains or the
// clock passes until (whichever is first), then advances the clock to
// until. Events scheduled exactly at until do fire.
func (e *Engine) Run(until Time) {
	if e.running {
		panic("sim: Engine.Run re-entered from inside an event")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 && e.queue[0].at <= until {
		e.fire()
	}
	if until > e.now {
		e.now = until
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Duration) { e.Run(e.now.Add(d)) }

// Drain runs until the event queue is empty or maxEvents have fired.
// It reports whether the queue fully drained. Models with self-rearming
// timers never drain; callers should prefer Run with a horizon.
func (e *Engine) Drain(maxEvents uint64) bool {
	if e.running {
		panic("sim: Engine.Drain re-entered from inside an event")
	}
	e.running = true
	defer func() { e.running = false }()
	start := e.fired
	for len(e.queue) > 0 {
		if e.fired-start >= maxEvents {
			return false
		}
		e.fire()
	}
	return true
}

// fire pops the earliest event, advances the clock to it, and runs it.
func (e *Engine) fire() {
	next := heap.Pop(&e.queue).(*item)
	if next.at < e.now {
		panic("sim: event queue time went backwards")
	}
	fn := next.fn
	next.fn = nil // a stale Handle held by a driver must not pin the closure
	e.now = next.at
	e.fired++
	if e.probe != nil && e.fired%e.probeStride == 0 {
		e.probe(e.now, e.fired)
	}
	fn(e.now)
}

// Every schedules fn at a fixed period, starting one period from now. The
// returned stop function cancels future firings; it is safe to call from
// inside fn or multiple times. Periodic polling loops throughout the
// code base build on this.
func (e *Engine) Every(period Duration, fn Event) (stop func()) {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	stopped := false
	var h Handle
	var tick Event
	tick = func(now Time) {
		if stopped {
			return
		}
		fn(now)
		if !stopped {
			h = e.After(period, tick)
		}
	}
	h = e.After(period, tick)
	return func() {
		stopped = true
		e.Cancel(h)
	}
}
