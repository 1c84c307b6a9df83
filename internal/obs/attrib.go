package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

// Interval is one stretch of attributable activity on a rail: an owner's
// task on a core, its command on an accelerator, its frame in the air.
// Comp names the component that was active (the trace category).
type Interval struct {
	Start, End sim.Time
	Owner      int
	Comp       string
}

// Gap is a stretch with no trustworthy DAQ samples (a meter dropout);
// blame computed inside one is flagged Degraded.
type Gap struct {
	From, To sim.Time
}

// Share is one owner's fraction of a sample's power.
type Share struct {
	Owner int
	Frac  float64
}

// Blame is one attributed power sample: the measured watts split into
// per-owner shares that always sum to 1.0. Owner 0 collects both kernel
// activity and idle floor power.
type Blame struct {
	T        sim.Time
	W        power.Watts
	Shares   []Share // sorted by Owner
	Degraded bool    // window overlaps a meter dropout
}

// Occupant is one (owner, component) pair's occupancy of a sample window:
// the summed length of its intervals clipped to the window.
type Occupant struct {
	Owner int
	Comp  string
	D     sim.Duration
}

// Window is one run of identical sample windows as Join emits it: the
// Run.N windows [Run.T+k·period, Run.T+(k+1)·period) all read Run.W and
// each holds these occupants, total, coverage and dropout flag. All
// durations are integers, so they equal clip-and-sum exactly.
type Window struct {
	Run       power.Run
	Occupants []Occupant   // D > 0 only, ascending (Owner, Comp)
	Total     sim.Duration // sum of the occupants' D
	Covered   sim.Duration // union of the intervals clipped to the window
	Degraded  bool         // window overlaps a dropout gap
}

// Join is the attribution joiner behind both blame and the energy
// profile. It takes a rail's samples as runs of equal readings
// (power.Rail.Runs, meter.Meter.Runs) and emits each sample window once,
// in sample order, with the (owner, component) occupants active in it.
// Windows come grouped into runs: a run breaks at every interval edge,
// gap edge and sample-run edge, and a window with an interval or gap
// edge strictly inside it is a run of its own. Between two edges nothing
// changes, so every window of a run is equal, and a rail costs
// O(S log S) for S intervals plus its runs times their occupants,
// whatever its number of samples.
//
// Runs must come in ascending time order with non-overlapping windows,
// as Meter.Runs delivers them; holes between runs are fine, and each run
// holds at least one sample. Join panics otherwise. An interval with
// End <= Start contributes nothing. Window.Occupants is reused across
// calls, so emit must copy what it keeps.
func Join(runs []power.Run, period sim.Duration, intervals []Interval, gaps []Gap, emit func(Window)) {
	if period <= 0 {
		panic("obs: attribution needs a positive sample period")
	}
	type key struct {
		owner int
		comp  string
	}
	type edge struct {
		t     sim.Time
		occ   int // index into keys
		delta int // +1 opens an interval, -1 closes it
	}
	// Occupant indices follow ascending (owner, comp) order, so walking
	// the occupied indices in order emits the occupants in order.
	var keys []key
	index := make(map[key]int)
	for _, iv := range intervals {
		k := key{iv.Owner, iv.Comp}
		if _, ok := index[k]; !ok && iv.End > iv.Start {
			index[k] = 0
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.owner, b.owner); c != 0 {
			return c
		}
		return cmp.Compare(a.comp, b.comp)
	})
	for i, k := range keys {
		index[k] = i
	}
	edges := make([]edge, 0, 2*len(intervals))
	for _, iv := range intervals {
		if iv.End > iv.Start {
			k := index[key{iv.Owner, iv.Comp}]
			edges = append(edges, edge{iv.Start, k, 1}, edge{iv.End, k, -1})
		}
	}
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Compare(a.t, b.t) })
	gapEdges := make([]sim.Time, 0, 2*len(gaps))
	for _, g := range gaps {
		gapEdges = append(gapEdges, g.From, g.To)
	}
	slices.Sort(gapEdges)

	type occupancy struct {
		open   int          // intervals of this occupant open now
		since  sim.Time     // last time open changed or the window began
		d      sim.Duration // occupancy within the current window
		listed bool         // in touched
	}
	occ := make([]occupancy, len(keys))
	var touched []int // occupants open now or earlier in this window, ascending
	touch := func(k int) {
		if !occ[k].listed {
			occ[k].listed = true
			i, _ := slices.BinarySearch(touched, k)
			touched = slices.Insert(touched, i, k)
		}
	}
	var live int // open intervals of every occupant
	var liveSince sim.Time
	var w Window
	next, nextGap := 0, 0
	for i, u := range runs {
		if u.N < 1 {
			panic(fmt.Sprintf("obs: Join needs runs of at least one sample; the run at %dns holds %d", int64(u.T), u.N))
		}
		if i > 0 && u.T < runs[i-1].End(period) {
			panic(fmt.Sprintf("obs: Join needs runs in ascending time order with non-overlapping windows; "+
				"the run at %dns starts before the previous one ends at %dns",
				int64(u.T), int64(runs[i-1].End(period))))
		}
		for lo := u.T; lo < u.End(period); lo = w.Run.End(period) {
			hi := lo.Add(period)
			// Edges up to the window's start only open and close intervals.
			for ; next < len(edges) && edges[next].t <= lo; next++ {
				e := edges[next]
				occ[e.occ].open += e.delta
				live += e.delta
				touch(e.occ)
			}
			kept := touched[:0]
			for _, k := range touched {
				o := &occ[k]
				o.since, o.d = lo, 0
				if o.listed = o.open > 0; o.listed {
					kept = append(kept, k)
				}
			}
			touched = kept
			liveSince, w.Covered = lo, 0

			// Nothing changes before the next interval or gap edge, so
			// every whole window up to it equals this one. When that edge
			// falls inside this window, the window is a run of one.
			for ; nextGap < len(gapEdges) && gapEdges[nextGap] <= lo; nextGap++ {
			}
			until := u.End(period)
			if next < len(edges) {
				until = min(until, edges[next].t)
			}
			if nextGap < len(gapEdges) {
				until = min(until, gapEdges[nextGap])
			}
			w.Run = power.Run{T: lo, N: max(int(until.Sub(lo)/period), 1), W: u.W}

			// Edges inside the window close the stretch since the last one.
			for ; next < len(edges) && edges[next].t < hi; next++ {
				e := edges[next]
				o := &occ[e.occ]
				o.d += sim.Duration(o.open) * e.t.Sub(o.since)
				o.open += e.delta
				o.since = e.t
				touch(e.occ)
				if live > 0 {
					w.Covered += e.t.Sub(liveSince)
				}
				live += e.delta
				liveSince = e.t
			}
			if live > 0 {
				w.Covered += hi.Sub(liveSince)
			}
			w.Occupants, w.Total = w.Occupants[:0], 0
			for _, k := range touched {
				o := &occ[k]
				o.d += sim.Duration(o.open) * hi.Sub(o.since)
				if o.d > 0 {
					w.Occupants = append(w.Occupants, Occupant{Owner: keys[k].owner, Comp: keys[k].comp, D: o.d})
					w.Total += o.d
				}
			}
			w.Degraded = overlapsGap(lo, hi, gaps)
			emit(w)
		}
	}
}

// BlameRun is one run of identical blame windows: the Run.N samples from
// Run.T on each split their watts among these shares.
type BlameRun struct {
	Run      power.Run
	Shares   []Share // sorted by Owner, summing to 1.0; reused across calls
	Degraded bool    // the windows overlap a meter dropout
}

// AttributeRuns joins sample runs with activity intervals (Join) and
// splits each window among the owners active in it. An owner's share is
// its fraction of total occupancy, summed over its components and scaled
// by how much of the window was covered at all; the uncovered remainder —
// idle floor power — goes to owner 0. Shares therefore sum to exactly 1.0
// per window, which the edge-case tests assert across context switches,
// DVFS overlap, and dropout gaps. Runs follow Join's order contract, and
// emit must copy the Shares it keeps.
func AttributeRuns(runs []power.Run, period sim.Duration, intervals []Interval, gaps []Gap, emit func(BlameRun)) {
	var b BlameRun
	Join(runs, period, intervals, gaps, func(w Window) {
		b.Run, b.Degraded, b.Shares = w.Run, w.Degraded, append(b.Shares[:0], Share{})
		idle := float64(period-w.Covered) / float64(period)
		activeFrac := float64(w.Covered) / float64(period)
		for i := 0; i < len(w.Occupants); {
			owner, d := w.Occupants[i].Owner, sim.Duration(0)
			for ; i < len(w.Occupants) && w.Occupants[i].Owner == owner; i++ {
				d += w.Occupants[i].D
			}
			frac := float64(d) / float64(w.Total) * activeFrac
			if owner == 0 {
				idle += frac
				continue
			}
			b.Shares = append(b.Shares, Share{Owner: owner, Frac: frac})
		}
		b.Shares[0].Frac = idle
		emit(b)
	})
}

// Attribute is AttributeRuns expanded into the per-sample timeline: one
// Blame per sample, each with its own Shares.
func Attribute(runs []power.Run, period sim.Duration, intervals []Interval, gaps []Gap) []Blame {
	n := 0
	for _, u := range runs {
		n += u.N
	}
	out := make([]Blame, 0, n)
	AttributeRuns(runs, period, intervals, gaps, func(b BlameRun) {
		for k, t := 0, b.Run.T; k < b.Run.N; k, t = k+1, t.Add(period) {
			out = append(out, Blame{T: t, W: b.Run.W, Degraded: b.Degraded, Shares: slices.Clone(b.Shares)})
		}
	})
	return out
}

// Add is one addition a window makes to a consumer's accumulator slot:
// a blame share's or a profile stack's joules.
type Add struct {
	Slot int
	J    float64
}

// Replay books one window's adds into acc n times over, as n equal
// windows booked one after another would: every add in order, window
// after window. It never multiplies by n, which would round differently,
// so acc ends bit for bit where a walk over every sample leaves it, also
// when two adds share a slot (two owners with one name).
func Replay(acc []float64, adds []Add, n int) {
	for ; n > 0; n-- {
		for _, a := range adds {
			acc[a.Slot] += a.J
		}
	}
}

func overlapsGap(lo, hi sim.Time, gaps []Gap) bool {
	for _, g := range gaps {
		if g.From < hi && g.To > lo {
			return true
		}
	}
	return false
}

// IntervalsFromEvents extracts the activity intervals for one rail from a
// trace: every span event whose Rail matches, with its category as the
// component. Events arrive oldest-first from Bus.Events, so the result is
// deterministic.
func IntervalsFromEvents(events []Event, rail string) []Interval {
	var out []Interval
	for i := range events {
		if ev := &events[i]; ev.Type == TypeSpan && ev.Rail == rail {
			out = append(out, Interval{Start: ev.T, End: ev.End, Owner: ev.Owner, Comp: ev.Cat})
		}
	}
	return out
}

// WriteBlame renders an attribution timeline as stable text: one line per
// sample with the measured watts and each owner's share.
func WriteBlame(w io.Writer, rail string, blames []Blame, owners map[int]string) error {
	if _, err := fmt.Fprintf(w, "# blame timeline rail=%s samples=%d\n", rail, len(blames)); err != nil {
		return err
	}
	for _, bl := range blames {
		flag := ""
		if bl.Degraded {
			flag = " DEGRADED"
		}
		if _, err := fmt.Fprintf(w, "%12d %8.4fW%s", int64(bl.T), bl.W, flag); err != nil {
			return err
		}
		for _, sh := range bl.Shares {
			name := owners[sh.Owner]
			if sh.Owner == 0 {
				name = "idle"
			} else if name == "" {
				name = fmt.Sprintf("app%d", sh.Owner)
			}
			if _, err := fmt.Fprintf(w, " %s=%.4f", name, sh.Frac); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
