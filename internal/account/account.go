// Package account implements the evaluation's baseline comparator: the
// classic two-step approach to app power awareness (§2, §6.1), in which the
// OS meters system power and divides each sample among concurrent apps by
// a heuristic. Per the paper's favorable setup, hardware usage is tracked
// at the lowest software level at 10 µs granularity.
//
// The point of this package is to be *inadequate* in exactly the way the
// paper demonstrates: no division heuristic can undo power entanglement
// that already happened on the shared rail.
package account

import (
	"fmt"
	"slices"
	"sort"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

// Policy selects the division heuristic.
type Policy int

const (
	// PolicyUsageShare divides each sample in proportion to each app's
	// hardware occupancy within the sampling interval (AppScope-style,
	// ref [96]); intervals with no usage are unattributed.
	PolicyUsageShare Policy = iota
	// PolicyUsageShareTail is PolicyUsageShare, but idle intervals are
	// attributed to the app that used the hardware most recently — the
	// Eprof-style tail heuristic (ref [70]) needed for WiFi tail energy.
	PolicyUsageShareTail
	// PolicyEvenSplit divides each busy sample evenly among the apps
	// active in the interval, regardless of how much each used.
	PolicyEvenSplit
)

// Span is one occupancy interval of one app on the metered hardware (a
// core occupancy, a command execution, a frame airtime). Spans of
// different owners may overlap — that overlap is the entanglement.
type Span struct {
	Owner      int
	Start, End sim.Time
}

// Recorder accumulates occupancy spans for one rail. Drivers feed it via
// their usage callbacks, recording each span as it closes, so span End
// times never decrease. The accountant relies on that order to skip the
// history that closed before the range it attributes; Record enforces it.
type Recorder struct {
	spans []Span
}

// Record appends a span; zero- or negative-length spans are dropped. It
// panics if end is earlier than the previous span's End.
func (r *Recorder) Record(owner int, start, end sim.Time) {
	if end <= start {
		return
	}
	if n := len(r.spans); n > 0 && end < r.spans[n-1].End {
		panic(fmt.Sprintf("account: span of owner %d ends at %v, before the previous span's end %v; spans must be recorded as they close",
			owner, end, r.spans[n-1].End))
	}
	r.spans = append(r.spans, Span{Owner: owner, Start: start, End: end})
}

// Len reports the number of recorded spans.
func (r *Recorder) Len() int { return len(r.spans) }

// Spans returns the recorded spans (shared slice; callers must not
// mutate). Trace rendering uses this to draw multiplexing timelines.
func (r *Recorder) Spans() []Span { return r.spans }

// Accountant divides one rail's metered power among apps.
type Accountant struct {
	Rail   *power.Rail
	Rec    *Recorder
	Window sim.Duration // sampling interval; 10 µs in the paper's setup
	Policy Policy
}

type edge struct {
	at    sim.Time
	owner int
	delta int
}

// Shares returns each app's attributed energy over [from, to).
func (a *Accountant) Shares(from, to sim.Time) map[int]power.Joules {
	out := make(map[int]power.Joules)
	a.walkWindows(from, to, func(_ sim.Time, owners []int, shares []power.Joules) {
		for i, o := range owners {
			out[o] += shares[i]
		}
	})
	return out
}

// AppEnergy returns one app's attributed energy over [from, to).
func (a *Accountant) AppEnergy(owner int, from, to sim.Time) power.Joules {
	var total power.Joules
	a.walkWindows(from, to, func(_ sim.Time, owners []int, shares []power.Joules) {
		if i, ok := slices.BinarySearch(owners, owner); ok {
			total += shares[i]
		}
	})
	return total
}

// Series returns one app's attributed power, averaged over step-sized
// buckets, for trace plotting.
func (a *Accountant) Series(owner int, from, to sim.Time, step sim.Duration) []power.Sample {
	if step <= 0 {
		step = a.Window
	}
	nBuckets := int((to.Sub(from) + step - 1) / step)
	if nBuckets <= 0 {
		return nil
	}
	energy := make([]power.Joules, nBuckets)
	a.walkWindows(from, to, func(wStart sim.Time, owners []int, shares []power.Joules) {
		i, ok := slices.BinarySearch(owners, owner)
		if !ok {
			return
		}
		b := int(wStart.Sub(from) / step)
		if b >= 0 && b < nBuckets {
			//psbox:allow-energyaccum summing already-integrated window shares in deterministic replay order, not raw power×dt
			energy[b] += shares[i]
		}
	})
	out := make([]power.Sample, nBuckets)
	for i := range energy {
		out[i] = power.Sample{
			T: from.Add(sim.Duration(i) * step),
			W: energy[i] / step.Seconds(),
		}
	}
	return out
}

// walkWindows replays the recorded spans window by window, dividing each
// window's rail energy by the active policy. It emits every window that
// attributes energy, with the owners in ascending ID order and their
// shares; both slices are reused from window to window.
func (a *Accountant) walkWindows(from, to sim.Time, emit func(wStart sim.Time, owners []int, shares []power.Joules)) {
	if to <= from {
		return
	}
	w := a.Window
	if w <= 0 {
		w = 10 * sim.Microsecond
	}
	// Spans arrive in End order, so each span before the first one with
	// End > from adds a +1/-1 edge pair at or before from: it changes
	// neither the active set at from nor any window's usage. Only the tail
	// policy needs that history, for the last user before from.
	spans := a.Rec.spans
	if a.Policy != PolicyUsageShareTail {
		spans = spans[sort.Search(len(spans), func(i int) bool { return spans[i].End > from }):]
	}
	// Dense owner indices in ascending ID order: per-window state is
	// slice-indexed, and scanning it visits owners in sorted order, which
	// keeps the float sums below deterministic.
	ids := make([]int, len(spans))
	for i, s := range spans {
		ids[i] = s.Owner
	}
	sort.Ints(ids)
	ids = slices.Compact(ids)
	// Build the span edge list once, sorted by time.
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		o, _ := slices.BinarySearch(ids, s.Owner)
		edges = append(edges, edge{at: s.Start, owner: o, delta: +1}, edge{at: s.End, owner: o, delta: -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })

	active := make([]int, len(ids))    // owner → overlapping span count
	usage := make([]float64, len(ids)) // per-window usage seconds
	inWindow := make([]bool, len(ids)) // owner had usage in this window
	owners := make([]int, 0, len(ids))
	shares := make([]power.Joules, 0, len(ids))
	accrue := func(dt float64) {
		for o, n := range active {
			if n > 0 {
				usage[o] += dt * float64(n)
				inWindow[o] = true
			}
		}
	}
	ei := 0
	lastUser := -1
	// Fast-forward edges up to `from`, maintaining active set and last
	// user.
	for ; ei < len(edges) && edges[ei].at <= from; ei++ {
		e := edges[ei]
		if active[e.owner] += e.delta; active[e.owner] == 0 {
			lastUser = e.owner
		}
	}
	for wStart := from; wStart < to; wStart = wStart.Add(w) {
		wEnd := min(wStart.Add(w), to)
		clear(usage)
		clear(inWindow)
		cursor := wStart
		for ; ei < len(edges) && edges[ei].at < wEnd; ei++ {
			e := edges[ei]
			if e.at > cursor {
				accrue(e.at.Sub(cursor).Seconds())
				cursor = e.at
			}
			if active[e.owner] += e.delta; active[e.owner] == 0 {
				lastUser = e.owner
			}
		}
		if wEnd > cursor {
			accrue(wEnd.Sub(cursor).Seconds())
		}
		energy := a.Rail.EnergyBetween(wStart, wEnd)
		if energy <= 0 {
			continue
		}
		owners, shares = owners[:0], shares[:0]
		var total float64
		for o, in := range inWindow {
			if in {
				owners = append(owners, ids[o])
				total += usage[o]
			}
		}
		switch {
		case len(owners) > 0 && a.Policy == PolicyEvenSplit:
			per := energy / float64(len(owners))
			for range owners {
				shares = append(shares, per)
			}
		case len(owners) > 0:
			for o, in := range inWindow {
				if in {
					shares = append(shares, energy*usage[o]/total)
				}
			}
		case a.Policy == PolicyUsageShareTail && lastUser >= 0:
			owners = append(owners, ids[lastUser])
			shares = append(shares, energy)
		default:
			continue
		}
		emit(wStart, owners, shares)
	}
}
