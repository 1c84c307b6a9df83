// Package meter models the platforms' in-situ power metering (§5): a DAQ
// sampling each hardware power rail at a configurable rate (100 kHz on the
// paper's prototypes, i.e. one timestamped sample every 10 µs), with
// timestamps drawn from the same clock the apps see.
package meter

import (
	"fmt"
	"sort"

	"psbox/internal/hw/power"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// DefaultPeriod is the paper's 100 kHz sampling interval.
const DefaultPeriod = 10 * sim.Microsecond

// Window is one half-open span [From, To) of simulated time.
type Window struct {
	From, To sim.Time
}

// Meter is the DAQ: a set of rails sampled at one rate.
type Meter struct {
	eng    *sim.Engine
	period sim.Duration
	rails  map[string]*power.Rail
	names  []string

	// drops holds per-rail sample-dropout windows (fault injection: a DAQ
	// buffer overrun, a flaky sense line). Sorted, non-overlapping.
	drops map[string][]Window

	// Observability (nil-safe; the bus snapshots itself).
	bus *obs.Bus
}

// SetBus routes DAQ sample-window events (dropouts) to a bus.
func (m *Meter) SetBus(b *obs.Bus) { m.bus = b }

// New builds a meter. A non-positive period falls back to DefaultPeriod.
func New(eng *sim.Engine, period sim.Duration) *Meter {
	if period <= 0 {
		period = DefaultPeriod
	}
	return &Meter{eng: eng, period: period, rails: make(map[string]*power.Rail),
		drops: make(map[string][]Window)}
}

// Period reports the sampling interval.
func (m *Meter) Period() sim.Duration { return m.period }

// AddRail attaches a metering scope.
func (m *Meter) AddRail(r *power.Rail) {
	if _, dup := m.rails[r.Name()]; dup {
		panic(fmt.Sprintf("meter: rail %q already attached", r.Name()))
	}
	m.rails[r.Name()] = r
	m.names = append(m.names, r.Name())
	sort.Strings(m.names)
}

// Rail returns an attached rail by name.
func (m *Meter) Rail(name string) *power.Rail {
	r, ok := m.rails[name]
	if !ok {
		panic(fmt.Sprintf("meter: no rail %q", name))
	}
	return r
}

// HasRail reports whether a scope is attached.
func (m *Meter) HasRail(name string) bool {
	_, ok := m.rails[name]
	return ok
}

// Rails lists attached scopes in stable order.
func (m *Meter) Rails() []string { return m.names }

// Runs appends the DAQ samples of one rail over [from, to) to dst as
// runs of equal readings (power.Rail.Runs). Samples inside injected
// dropout windows are missing, exactly as a DAQ overrun loses them: a
// dropout ends the run before it, and the samples after it start anew.
func (m *Meter) Runs(rail string, from, to sim.Time, dst []power.Run) []power.Run {
	r := m.Rail(rail)
	for _, w := range m.drops[rail] {
		if w.From >= to {
			break
		}
		if w.From > from {
			dst = r.Runs(from, w.From, m.period, dst)
		}
		from = max(from, w.To)
	}
	if from < to {
		dst = r.Runs(from, to, m.period, dst)
	}
	return dst
}

// Energy integrates one rail exactly over [from, to).
func (m *Meter) Energy(rail string, from, to sim.Time) power.Joules {
	return m.Rail(rail).EnergyBetween(from, to)
}

// InjectDropout marks [from, to) of one rail's sample stream as lost.
// Overlapping or adjacent windows merge. The window must not start in the
// past: samples already delivered cannot be un-delivered, and consumers
// (the virtual meters) rely on closed history staying immutable.
func (m *Meter) InjectDropout(rail string, from, to sim.Time) {
	m.Rail(rail) // validate
	if to <= from {
		panic(fmt.Sprintf("meter: dropout window [%v, %v) is empty", from, to))
	}
	if from < m.eng.Now() {
		panic(fmt.Sprintf("meter: dropout window [%v, %v) starts in the past (now %v)",
			from, to, m.eng.Now()))
	}
	m.bus.Instant(obs.CatMeter, "dropout", 0, int64(to.Sub(from)), rail, rail)
	m.bus.Count("meter.dropouts", 0, rail, 1)
	ws := append(m.drops[rail], Window{From: from, To: to})
	sort.Slice(ws, func(i, j int) bool { return ws[i].From < ws[j].From })
	merged := ws[:1]
	for _, w := range ws[1:] {
		last := &merged[len(merged)-1]
		if w.From <= last.To {
			if w.To > last.To {
				last.To = w.To
			}
			continue
		}
		merged = append(merged, w)
	}
	m.drops[rail] = merged
}

// Dropouts returns the dropout windows of one rail overlapping [from, to),
// clipped to that span.
func (m *Meter) Dropouts(rail string, from, to sim.Time) []Window {
	var out []Window
	for _, w := range m.drops[rail] {
		if w.To <= from || w.From >= to {
			continue
		}
		if w.From < from {
			w.From = from
		}
		if w.To > to {
			w.To = to
		}
		out = append(out, w)
	}
	return out
}
