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

// Window is one sample window [Sample.T, Sample.T+period) as Join emits
// it. All durations are integers, so they equal clip-and-sum exactly.
type Window struct {
	Sample    power.Sample
	Occupants []Occupant   // D > 0 only, ascending (Owner, Comp)
	Total     sim.Duration // sum of the occupants' D
	Covered   sim.Duration // union of the intervals clipped to the window
	Degraded  bool         // window overlaps a dropout gap
}

// Join is the attribution joiner behind both blame and the energy
// profile. It emits each sample window once, in sample order, with the
// (owner, component) occupants active in it. One sweep over the
// intervals' time-sorted edges serves every window, so a rail costs
// O(S log S) for S intervals plus the windows times their occupants.
//
// Samples must come in ascending time order with non-overlapping windows,
// as Meter.Samples delivers them; holes between windows are fine. Join
// panics otherwise. An interval with End <= Start contributes nothing.
// Window.Occupants is reused across calls, so emit must copy what it
// keeps.
func Join(samples []power.Sample, period sim.Duration, intervals []Interval, gaps []Gap, emit func(Window)) {
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
	next := 0
	for i, s := range samples {
		lo, hi := s.T, s.T.Add(period)
		if i > 0 && lo < samples[i-1].T.Add(period) {
			panic(fmt.Sprintf("obs: Join needs samples in ascending time order with non-overlapping windows; "+
				"the window at %dns starts before the previous one ends at %dns",
				int64(lo), int64(samples[i-1].T.Add(period))))
		}
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
		w.Sample, w.Occupants, w.Total = s, w.Occupants[:0], 0
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

// Attribute joins meter samples with activity intervals: each sample's
// window [T, T+period) is split among the owners active in it. An owner's
// share is its fraction of total occupancy, summed over its components
// and scaled by how much of the window was covered at all; the uncovered
// remainder — idle floor power — goes to owner 0. Shares therefore sum to
// exactly 1.0 per sample, which the edge-case tests assert across context
// switches, DVFS overlap, and dropout gaps. Samples follow Join's order
// contract.
func Attribute(samples []power.Sample, period sim.Duration, intervals []Interval, gaps []Gap) []Blame {
	out := make([]Blame, 0, len(samples))
	Join(samples, period, intervals, gaps, func(w Window) {
		bl := Blame{T: w.Sample.T, W: w.Sample.W, Degraded: w.Degraded, Shares: make([]Share, 1, 1+len(w.Occupants))}
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
			bl.Shares = append(bl.Shares, Share{Owner: owner, Frac: frac})
		}
		bl.Shares[0].Frac = idle
		out = append(out, bl)
	})
	return out
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
	for _, ev := range events {
		if ev.Type != TypeSpan || ev.Rail != rail {
			continue
		}
		out = append(out, Interval{Start: ev.T, End: ev.End, Owner: ev.Owner, Comp: ev.Cat})
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
