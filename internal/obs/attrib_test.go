package obs

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

const period = 10 * sim.Microsecond

func sumShares(t *testing.T, bl Blame) float64 {
	t.Helper()
	var sum float64
	for i := 1; i < len(bl.Shares); i++ {
		if bl.Shares[i-1].Owner >= bl.Shares[i].Owner {
			t.Fatalf("shares not sorted by owner: %+v", bl.Shares)
		}
	}
	for _, sh := range bl.Shares {
		if sh.Frac < 0 {
			t.Fatalf("negative share %+v", sh)
		}
		sum += sh.Frac
	}
	return sum
}

func checkUnity(t *testing.T, blames []Blame) {
	t.Helper()
	for _, bl := range blames {
		if sum := sumShares(t, bl); math.Abs(sum-1.0) > 1e-12 {
			t.Fatalf("sample at %d: shares sum to %.15f, want 1.0 (%+v)", int64(bl.T), sum, bl.Shares)
		}
	}
}

func share(bl Blame, owner int) float64 {
	for _, sh := range bl.Shares {
		if sh.Owner == owner {
			return sh.Frac
		}
	}
	return 0
}

// A sample window straddling a context switch: owner 1 runs the first
// 4 µs of the window, owner 2 the remaining 6 µs. Blame splits 0.4/0.6
// with no idle share, and still sums to 1.0.
func TestAttributeWindowStraddlesContextSwitch(t *testing.T) {
	lo := sim.Time(100 * sim.Microsecond)
	sw := lo.Add(4 * sim.Microsecond)
	samples := []power.Sample{{T: lo, W: 2.0}}
	intervals := []Interval{
		{Start: lo.Add(-50 * sim.Microsecond), End: sw, Owner: 1},
		{Start: sw, End: lo.Add(300 * sim.Microsecond), Owner: 2},
	}
	blames := Attribute(runsOf(samples, period), period, intervals, nil)
	if len(blames) != 1 {
		t.Fatalf("got %d blames, want 1", len(blames))
	}
	checkUnity(t, blames)
	bl := blames[0]
	if got := share(bl, 1); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("owner 1 share = %f, want 0.4", got)
	}
	if got := share(bl, 2); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("owner 2 share = %f, want 0.6", got)
	}
	if got := share(bl, 0); math.Abs(got) > 1e-12 {
		t.Errorf("idle share = %f, want 0", got)
	}
	if bl.Degraded {
		t.Error("no gap, should not be degraded")
	}
}

// An accelerator command overlapping a DVFS transition: the command span
// covers the whole window while a second (kernel, owner 0) activity span
// overlaps part of it — e.g. the driver busy during the transition. The
// overlap inflates owner 0's occupancy, which folds into the idle share;
// totals still sum to 1.0 and the command owner keeps the majority.
func TestAttributeAccelCommandOverlapsDVFSTransition(t *testing.T) {
	lo := sim.Time(500 * sim.Microsecond)
	samples := []power.Sample{{T: lo, W: 1.5}}
	intervals := []Interval{
		// The accel command occupies the full window.
		{Start: lo, End: lo.Add(period), Owner: 3},
		// The DVFS transition work (kernel) covers the middle 2 µs.
		{Start: lo.Add(4 * sim.Microsecond), End: lo.Add(6 * sim.Microsecond), Owner: 0},
	}
	blames := Attribute(runsOf(samples, period), period, intervals, nil)
	checkUnity(t, blames)
	bl := blames[0]
	// Occupancy: owner3 = 10µs, owner0 = 2µs, total 12µs, covered 10µs.
	// owner3 = 10/12, owner0 share (2/12) folds into idle (coverage is
	// full, so no uncovered remainder).
	if got, want := share(bl, 3), 10.0/12.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("owner 3 share = %f, want %f", got, want)
	}
	if got, want := share(bl, 0), 2.0/12.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("kernel/idle share = %f, want %f", got, want)
	}
}

// A fault-injected meter dropout: samples inside the gap are missing
// (degraded metering); the samples whose windows touch the gap edges are
// flagged Degraded, and shares still sum to 1.0 on every surviving
// sample.
func TestAttributeDropoutGapMarksDegraded(t *testing.T) {
	base := sim.Time(0)
	var samples []power.Sample
	for i := 0; i < 10; i++ {
		tt := base.Add(sim.Duration(i) * period)
		// Samples 4..6 lost to the dropout, as Meter.Runs would leave them out.
		if i >= 4 && i <= 6 {
			continue
		}
		samples = append(samples, power.Sample{T: tt, W: 1.0})
	}
	gap := Gap{From: base.Add(4 * period), To: base.Add(7 * period)}
	intervals := []Interval{{Start: base, End: base.Add(10 * period), Owner: 1}}
	blames := Attribute(runsOf(samples, period), period, intervals, []Gap{gap})
	if len(blames) != 7 {
		t.Fatalf("got %d blames, want 7", len(blames))
	}
	checkUnity(t, blames)
	for _, bl := range blames {
		// Window [30µs, 40µs) touches the gap start? No: gap starts at
		// 40µs, the window is half-open so sample 3 is clean. Only
		// windows overlapping [40µs, 70µs) are degraded — all were
		// dropped, so every surviving sample must be clean.
		if bl.Degraded {
			t.Errorf("sample at %d unexpectedly degraded", int64(bl.T))
		}
		if got := share(bl, 1); math.Abs(got-1.0) > 1e-12 {
			t.Errorf("sample at %d: owner 1 share = %f, want 1.0", int64(bl.T), got)
		}
	}

	// A straddling gap — not aligned to sample windows — marks the edge
	// samples degraded while their shares still sum to 1.0.
	gap2 := Gap{From: base.Add(4*period + 5*sim.Microsecond), To: base.Add(5 * period)}
	blames = Attribute(runsOf(samples, period), period, intervals, []Gap{gap2})
	checkUnity(t, blames)
	degraded := 0
	for _, bl := range blames {
		if bl.Degraded {
			degraded++
			if bl.T != base.Add(4*period) {
				t.Errorf("unexpected degraded sample at %d", int64(bl.T))
			}
		}
	}
	// Sample 4 survived dropout filtering in this variant? It is in the
	// input list only if i<4 || i>6 — sample 4 was filtered above, so no
	// retained window overlaps [45µs, 50µs).
	if degraded != 0 {
		t.Errorf("degraded = %d, want 0 (overlapping samples were dropped)", degraded)
	}

	// With the full sample set (no filtering) the straddled window IS
	// flagged.
	var full []power.Sample
	for i := 0; i < 10; i++ {
		full = append(full, power.Sample{T: base.Add(sim.Duration(i) * period), W: 1.0})
	}
	blames = Attribute(runsOf(full, period), period, intervals, []Gap{gap2})
	checkUnity(t, blames)
	degraded = 0
	for _, bl := range blames {
		if bl.Degraded {
			degraded++
		}
	}
	if degraded != 1 {
		t.Errorf("degraded = %d, want exactly the straddled window", degraded)
	}
}

// Idle-only windows blame everything on owner 0.
func TestAttributeIdleWindow(t *testing.T) {
	samples := []power.Sample{{T: 0, W: 0.4}}
	blames := Attribute(runsOf(samples, period), period, nil, nil)
	checkUnity(t, blames)
	if got := share(blames[0], 0); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("idle share = %f, want 1.0", got)
	}
}

func TestAttributePanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on non-positive period")
		}
	}()
	Attribute(nil, 0, nil, nil)
}

func TestIntervalsFromEventsFiltersRailAndType(t *testing.T) {
	events := []Event{
		{Type: TypeSpan, T: 0, End: 10, Cat: CatSched, Kind: "run", Owner: 1, Rail: "cpu"},
		{Type: TypeInstant, T: 5, End: 5, Cat: CatSched, Kind: "switch", Owner: 1, Rail: "cpu"},
		{Type: TypeSpan, T: 3, End: 8, Cat: CatAccel, Kind: "exec", Owner: 2, Rail: "gpu"},
	}
	ivs := IntervalsFromEvents(events, "cpu")
	if len(ivs) != 1 || ivs[0].Owner != 1 || ivs[0].End != 10 {
		t.Fatalf("got %+v, want the single cpu span", ivs)
	}
}

// Zero-duration intervals — a task that was switched in and immediately
// out at the same instant, or a span whose clipped extent collapses onto
// the window edge — contribute no occupancy, never produce NaN shares,
// and leave the window to whoever actually ran.
func TestAttributeZeroDurationIntervals(t *testing.T) {
	lo := sim.Time(100 * sim.Microsecond)
	samples := []power.Sample{{T: lo, W: 1.0}}
	intervals := []Interval{
		{Start: lo.Add(2 * sim.Microsecond), End: lo.Add(2 * sim.Microsecond), Owner: 1}, // zero width
		{Start: lo.Add(-5 * sim.Microsecond), End: lo, Owner: 2},                         // clips to zero at the window edge
		{Start: lo, End: lo.Add(period), Owner: 3},                                       // real occupant
	}
	blames := Attribute(runsOf(samples, period), period, intervals, nil)
	checkUnity(t, blames)
	bl := blames[0]
	if got := share(bl, 1); got != 0 {
		t.Errorf("zero-duration interval got share %f", got)
	}
	if got := share(bl, 2); got != 0 {
		t.Errorf("edge-clipped interval got share %f", got)
	}
	if got := share(bl, 3); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("occupant share = %f, want 1.0", got)
	}

	// Only zero-duration intervals: the whole window is idle, and the
	// fraction arithmetic must not divide by the zero total occupancy.
	blames = Attribute(runsOf(samples, period), period, intervals[:2], nil)
	checkUnity(t, blames)
	if got := share(blames[0], 0); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("idle share = %f, want 1.0 with only zero-width intervals", got)
	}
}

// Dropout-gap boundaries are half-open on both sides: a window that ends
// exactly where the gap starts, or starts exactly where the gap ends, is
// clean; one nanosecond of true overlap flags it.
func TestAttributeSampleOnGapBoundary(t *testing.T) {
	lo := sim.Time(200 * sim.Microsecond)
	hi := lo.Add(period)
	samples := []power.Sample{{T: lo, W: 1.0}}
	intervals := []Interval{{Start: lo, End: hi, Owner: 1}}

	for _, tc := range []struct {
		name     string
		gap      Gap
		degraded bool
	}{
		{"gap starts exactly at window end", Gap{From: hi, To: hi.Add(period)}, false},
		{"gap ends exactly at window start", Gap{From: lo.Add(-period), To: lo}, false},
		{"gap overlaps the last nanosecond", Gap{From: hi.Add(-1), To: hi.Add(period)}, true},
		{"gap overlaps the first nanosecond", Gap{From: lo.Add(-period), To: lo.Add(1)}, true},
		{"gap swallows the window", Gap{From: lo.Add(-period), To: hi.Add(period)}, true},
	} {
		blames := Attribute(runsOf(samples, period), period, intervals, []Gap{tc.gap})
		checkUnity(t, blames)
		if blames[0].Degraded != tc.degraded {
			t.Errorf("%s: degraded = %v, want %v", tc.name, blames[0].Degraded, tc.degraded)
		}
	}
}

// A rail with no activity spans at all — a device that never powered a
// task during the run — attributes every sample wholly to idle, across
// the whole timeline, degraded flags intact.
func TestAttributeEmptyIntervalsRail(t *testing.T) {
	var samples []power.Sample
	for i := 0; i < 5; i++ {
		samples = append(samples, power.Sample{T: sim.Time(i) * sim.Time(period), W: 0.25})
	}
	gap := Gap{From: sim.Time(2 * period), To: sim.Time(3 * period)}
	// IntervalsFromEvents on a rail with no matching spans yields nil.
	ivs := IntervalsFromEvents([]Event{
		{Type: TypeSpan, T: 0, End: 10, Cat: CatSched, Kind: "run", Owner: 1, Rail: "cpu"},
	}, "gps")
	if ivs != nil {
		t.Fatalf("expected no gps intervals, got %+v", ivs)
	}
	blames := Attribute(runsOf(samples, period), period, ivs, []Gap{gap})
	if len(blames) != 5 {
		t.Fatalf("got %d blames, want 5", len(blames))
	}
	checkUnity(t, blames)
	for i, bl := range blames {
		if got := share(bl, 0); math.Abs(got-1.0) > 1e-12 {
			t.Errorf("sample %d: idle share = %f, want 1.0", i, got)
		}
		if want := i == 2; bl.Degraded != want {
			t.Errorf("sample %d: degraded = %v, want %v", i, bl.Degraded, want)
		}
	}
}

func TestWriteBlameStableText(t *testing.T) {
	blames := []Blame{
		{T: 1000, W: 2.5, Shares: []Share{{Owner: 0, Frac: 0.25}, {Owner: 1, Frac: 0.75}}},
		{T: 2000, W: 2.5, Degraded: true, Shares: []Share{{Owner: 0, Frac: 1.0}}},
	}
	var b strings.Builder
	if err := WriteBlame(&b, "cpu", blames, map[int]string{1: "vision#1"}); err != nil {
		t.Fatal(err)
	}
	want := "# blame timeline rail=cpu samples=2\n" +
		"        1000   2.5000W idle=0.2500 vision#1=0.7500\n" +
		"        2000   2.5000W DEGRADED idle=1.0000\n"
	if b.String() != want {
		t.Fatalf("blame text:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestJoinRejectsOverlappingSamples pins Join's order contract: runs that
// go backwards, whose windows overlap, or that hold no sample are a caller
// bug and panic with a message naming the contract; runs separated by
// holes, as a meter dropout leaves them, and runs that merely touch are
// accepted.
func TestJoinRejectsOverlappingSamples(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs []power.Run
		want string
	}{
		{"descending", []power.Run{{T: sim.Time(5 * period), N: 1}, {T: sim.Time(2 * period), N: 1}}, "ascending time order with non-overlapping windows"},
		{"overlapping by one nanosecond", []power.Run{{T: 0, N: 1}, {T: sim.Time(period - 1), N: 1}}, "ascending time order with non-overlapping windows"},
		{"repeated", []power.Run{{T: sim.Time(period), N: 1}, {T: sim.Time(period), N: 1}}, "ascending time order with non-overlapping windows"},
		{"inside a longer run", []power.Run{{T: 0, N: 5}, {T: sim.Time(3 * period), N: 1}}, "ascending time order with non-overlapping windows"},
		{"empty", []power.Run{{T: 0, N: 0}}, "runs of at least one sample"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("%s: recovered %q, want the order-contract panic", tc.name, msg)
				}
			}()
			Join(tc.runs, period, nil, nil, func(Window) {})
		}()
	}

	holes := []power.Run{{T: 0, N: 2}, {T: sim.Time(4 * period), N: 1}, {T: sim.Time(7*period + 3), N: 1}}
	var emitted []power.Run
	Join(holes, period, []Interval{{Start: 0, End: sim.Time(9 * period), Owner: 1}}, nil, func(w Window) {
		emitted = append(emitted, w.Run)
		if w.Covered != period || w.Total != period || len(w.Occupants) != 1 {
			t.Errorf("run at %d: covered %v total %v occupants %+v, want one full occupant",
				int64(w.Run.T), w.Covered, w.Total, w.Occupants)
		}
	})
	if !slices.Equal(emitted, holes) {
		t.Fatalf("emitted runs %v, want the input runs %v", emitted, holes)
	}
}

// runsOf coalesces samples into runs: adjacent samples one period apart
// with bit-identical watts share a run, as Rail.Runs builds them.
func runsOf(samples []power.Sample, period sim.Duration) []power.Run {
	var runs []power.Run
	for _, s := range samples {
		if n := len(runs); n > 0 && runs[n-1].End(period) == s.T &&
			math.Float64bits(runs[n-1].W) == math.Float64bits(s.W) {
			runs[n-1].N++
			continue
		}
		runs = append(runs, power.Run{T: s.T, N: 1, W: s.W})
	}
	return runs
}

// sampleWindow is one window as the per-sample joiner emits it.
type sampleWindow struct {
	Sample    power.Sample
	Occupants []Occupant
	Total     sim.Duration
	Covered   sim.Duration
	Degraded  bool
}

// joinPerSample is the sweep joiner as it was before it learned runs: the
// same edge sweep, but one emitted window per sample. The differential
// tests hold the run joiner, expanded, to it bit for bit.
func joinPerSample(samples []power.Sample, period sim.Duration, intervals []Interval, gaps []Gap, emit func(sampleWindow)) {
	type key struct {
		owner int
		comp  string
	}
	type edge struct {
		t     sim.Time
		occ   int
		delta int
	}
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
		open   int
		since  sim.Time
		d      sim.Duration
		listed bool
	}
	occ := make([]occupancy, len(keys))
	var touched []int
	touch := func(k int) {
		if !occ[k].listed {
			occ[k].listed = true
			i, _ := slices.BinarySearch(touched, k)
			touched = slices.Insert(touched, i, k)
		}
	}
	var live int
	var liveSince sim.Time
	var w sampleWindow
	next := 0
	for _, s := range samples {
		lo, hi := s.T, s.T.Add(period)
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

// referenceAttribute is the per-sample scan the sweep replaced: every
// window clips every interval, sums occupancy per owner in a map, and
// measures coverage as the union of the clipped pieces. The differential
// tests hold Attribute to it bit for bit.
func referenceAttribute(samples []power.Sample, period sim.Duration, intervals []Interval, gaps []Gap) []Blame {
	out := make([]Blame, 0, len(samples))
	for _, s := range samples {
		lo, hi := s.T, s.T.Add(period)
		occ := make(map[int]sim.Duration)
		var clipped []Interval
		var total sim.Duration
		for _, iv := range intervals {
			a, b := max(iv.Start, lo), min(iv.End, hi)
			if b <= a {
				continue
			}
			occ[iv.Owner] += b.Sub(a)
			total += b.Sub(a)
			clipped = append(clipped, Interval{Start: a, End: b})
		}
		covered := referenceUnion(clipped)
		window := hi.Sub(lo)
		bl := Blame{T: s.T, W: s.W, Degraded: overlapsGap(lo, hi, gaps)}
		idle := float64(window-covered) / float64(window)
		owners := make([]int, 0, len(occ))
		for o := range occ {
			owners = append(owners, o)
		}
		sort.Ints(owners)
		activeFrac := float64(covered) / float64(window)
		for _, o := range owners {
			frac := float64(occ[o]) / float64(total) * activeFrac
			if o == 0 {
				idle += frac
				continue
			}
			bl.Shares = append(bl.Shares, Share{Owner: o, Frac: frac})
		}
		bl.Shares = append([]Share{{Owner: 0, Frac: idle}}, bl.Shares...)
		out = append(out, bl)
	}
	return out
}

// referenceUnion measures the merged extent of intervals already clipped
// to one window.
func referenceUnion(ivs []Interval) sim.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var d sim.Duration
	curA, curB := ivs[0].Start, ivs[0].End
	for _, iv := range ivs[1:] {
		if iv.Start > curB {
			d += curB.Sub(curA)
			curA, curB = iv.Start, iv.End
			continue
		}
		curB = max(curB, iv.End)
	}
	return d + curB.Sub(curA)
}

// draw is the source of a scenario's choices: sim.Rand for the seeded
// differential test, fuzz bytes for the fuzz target.
type draw interface{ Intn(n int) int }

// joinScenario is one generated attribution input.
type joinScenario struct {
	period    sim.Duration
	samples   []power.Sample
	runs      []power.Run // samples coalesced
	intervals []Interval
	gaps      []Gap
}

var (
	joinOwners = []int{0, 1, 2, 7}
	joinComps  = []string{CatSched, CatAccel, CatNet}
)

func genJoinScenario(d draw) joinScenario {
	sc := joinScenario{period: []sim.Duration{10 * sim.Microsecond, 7 * sim.Microsecond, 1}[d.Intn(3)]}
	// Samples start on or off the interval grid and skip windows now and
	// then, as dropouts leave them. Three in four repeat the watts before
	// them, so they coalesce into runs of several samples. The repeat is
	// decided from the watts draw itself, taking no draw of its own, so
	// each committed fuzz seed still decodes to the sample times,
	// intervals and gaps it was recorded for.
	t := sim.Time(d.Intn(2) * d.Intn(1000))
	for n := d.Intn(120); n > 0; n-- {
		if d.Intn(6) == 0 {
			t = t.Add(sim.Duration(d.Intn(4))*sc.period + sim.Duration(d.Intn(2)*d.Intn(1000)))
		}
		v := d.Intn(4000)
		w := power.Watts(v) / 3
		if k := len(sc.samples); k > 0 && v%4 != 0 {
			w = sc.samples[k-1].W
		}
		sc.samples = append(sc.samples, power.Sample{T: t, W: w})
		t = t.Add(sc.period)
	}
	sc.runs = runsOf(sc.samples, sc.period)
	// Interval edges sit on a grid of q, so they often coincide with each
	// other and with window boundaries.
	q := sim.Duration(1+d.Intn(5)) * sim.Microsecond
	slots := 1 + int(sim.Duration(t)/q)
	at := func(slot int) sim.Time { return sim.Time(sim.Duration(slot) * q) }
	for n := d.Intn(60); n > 0; n-- {
		iv := Interval{
			Owner: joinOwners[d.Intn(len(joinOwners))],
			Comp:  joinComps[d.Intn(len(joinComps))],
			Start: at(d.Intn(slots)),
		}
		switch length := sim.Duration(1+d.Intn(30)) * q; d.Intn(8) {
		case 0: // zero-length
			iv.End = iv.Start
		case 1: // inverted
			iv.End = iv.Start.Add(-length)
		default:
			iv.End = iv.Start.Add(length)
		}
		sc.intervals = append(sc.intervals, iv)
		if d.Intn(4) == 0 { // a stacked twin: same occupant, equal edges
			sc.intervals = append(sc.intervals, iv)
		}
	}
	for n := d.Intn(3); n > 0; n-- {
		from := at(d.Intn(slots)).Add(sim.Duration(d.Intn(1000)))
		sc.gaps = append(sc.gaps, Gap{From: from, To: from.Add(sim.Duration(1 + d.Intn(50000)))})
	}
	return sc
}

// checkJoinMatchesOracle compares Attribute with referenceAttribute bit for
// bit: every Blame's time, watts, degraded flag and shares.
func checkJoinMatchesOracle(t *testing.T, sc joinScenario) {
	t.Helper()
	got := Attribute(sc.runs, sc.period, sc.intervals, sc.gaps)
	want := referenceAttribute(sc.samples, sc.period, sc.intervals, sc.gaps)
	if len(got) != len(want) {
		t.Fatalf("got %d blames, oracle %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.T != w.T || math.Float64bits(float64(g.W)) != math.Float64bits(float64(w.W)) ||
			g.Degraded != w.Degraded || len(g.Shares) != len(w.Shares) {
			t.Fatalf("blame %d = %+v, oracle %+v", i, g, w)
		}
		for j, ws := range w.Shares {
			if gs := g.Shares[j]; gs.Owner != ws.Owner || math.Float64bits(gs.Frac) != math.Float64bits(ws.Frac) {
				t.Fatalf("blame %d at %d: shares %+v, oracle %+v", i, int64(w.T), g.Shares, w.Shares)
			}
		}
	}
}

// The seeded scenarios cover stacked same-occupant intervals with
// equal-time edges, zero-length and inverted intervals, sample holes and
// unaligned starts, dropout gaps, and several components per owner.
func TestJoinMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3000; seed++ {
		sc := genJoinScenario(sim.NewRand(seed))
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkJoinMatchesOracle(t, sc) })
	}
}

// byteDraw draws a scenario's choices from fuzz input, two bytes at a
// time; an exhausted input draws zeros.
type byteDraw []byte

func (b *byteDraw) Intn(n int) int {
	var v int
	for i := 0; i < 2 && len(*b) > 0; i++ {
		v = v<<8 | int((*b)[0])
		*b = (*b)[1:]
	}
	return v % n
}

func FuzzJoinMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := byteDraw(data)
		checkJoinMatchesOracle(t, genJoinScenario(&d))
	})
}

// checkRunJoinMatchesPerSample holds Join to the per-sample joiner: the
// emitted runs, expanded, must equal joinPerSample's windows bit for bit,
// and the runs must break exactly where the contract says. A run stays
// inside one input run, a window with an interval or gap edge strictly
// inside it is a run of its own, no run spans an edge, and two runs
// touching inside one input run are split by an edge.
func checkRunJoinMatchesPerSample(t *testing.T, sc joinScenario) {
	t.Helper()
	var want []sampleWindow
	joinPerSample(sc.samples, sc.period, sc.intervals, sc.gaps, func(w sampleWindow) {
		w.Occupants = slices.Clone(w.Occupants)
		want = append(want, w)
	})
	var edges []sim.Time
	for _, iv := range sc.intervals {
		if iv.End > iv.Start {
			edges = append(edges, iv.Start, iv.End)
		}
	}
	for _, g := range sc.gaps {
		edges = append(edges, g.From, g.To)
	}
	edgeIn := func(lo, hi sim.Time) bool { // an edge in the open interval (lo, hi)
		return slices.ContainsFunc(edges, func(e sim.Time) bool { return lo < e && e < hi })
	}
	edgeAt := func(t sim.Time) bool { return slices.Contains(edges, t) }

	i, in := 0, 0 // next expected window; input run holding it
	var prev Window
	Join(sc.runs, sc.period, sc.intervals, sc.gaps, func(w Window) {
		for in < len(sc.runs) && sc.runs[in].End(sc.period) <= w.Run.T {
			in++
		}
		if in == len(sc.runs) || w.Run.T < sc.runs[in].T || w.Run.End(sc.period) > sc.runs[in].End(sc.period) ||
			math.Float64bits(w.Run.W) != math.Float64bits(sc.runs[in].W) {
			t.Fatalf("run %+v is not inside one input run", w.Run)
		}
		if w.Run.N > 1 && edgeIn(w.Run.T, w.Run.End(sc.period)) {
			t.Fatalf("run %+v spans an edge", w.Run)
		}
		if i > 0 && prev.Run.End(sc.period) == w.Run.T && w.Run.T > sc.runs[in].T &&
			!edgeAt(w.Run.T) && !edgeIn(w.Run.T, w.Run.T.Add(sc.period)) &&
			(prev.Run.N > 1 || !edgeIn(prev.Run.T, w.Run.T)) {
			t.Fatalf("runs %+v and %+v touch with no edge between them", prev.Run, w.Run)
		}
		for k := 0; k < w.Run.N; k, i = k+1, i+1 {
			if i >= len(want) {
				t.Fatalf("run %+v expands past the oracle's %d windows", w.Run, len(want))
			}
			o, at := want[i], w.Run.T.Add(sim.Duration(k)*sc.period)
			if o.Sample.T != at || math.Float64bits(o.Sample.W) != math.Float64bits(w.Run.W) ||
				o.Total != w.Total || o.Covered != w.Covered || o.Degraded != w.Degraded ||
				!slices.Equal(o.Occupants, w.Occupants) {
				t.Fatalf("window %d (run %+v, sample %d): %+v, oracle %+v", i, w.Run, k, w, o)
			}
		}
		prev = w
	})
	if i != len(want) {
		t.Fatalf("runs expand to %d windows, oracle %d", i, len(want))
	}
}

// TestRunJoinMatchesPerSample runs the seeded scenarios of
// TestJoinMatchesOracle through checkRunJoinMatchesPerSample.
func TestRunJoinMatchesPerSample(t *testing.T) {
	long := 0
	for seed := uint64(1); seed <= 3000; seed++ {
		sc := genJoinScenario(sim.NewRand(seed))
		for _, u := range sc.runs {
			if u.N > 1 {
				long++
			}
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkRunJoinMatchesPerSample(t, sc) })
	}
	if long == 0 {
		t.Fatal("no scenario coalesced samples into a run of more than one")
	}
}

func FuzzRunJoinMatchesPerSample(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 200, 3, 7, 0, 9, 0, 1, 0, 1, 0, 1, 1, 44, 0, 5, 0, 2, 0, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := byteDraw(data)
		checkRunJoinMatchesPerSample(t, genJoinScenario(&d))
	})
}

// Replay leaves every slot bit for bit where booking the window n times,
// add by add, leaves it, with repeated slots and from non-zero starting
// sums of mixed magnitude, where each add rounds: a multiply by n, or
// any reordering of the adds, fails it.
func TestReplayMatchesWindowByWindow(t *testing.T) {
	rnd := sim.NewRand(7)
	for trial := 0; trial < 2000; trial++ {
		slots := 1 + rnd.Intn(7)
		acc := make([]float64, slots)
		for i := range acc {
			acc[i] = rnd.Float64() * math.Pow(10, float64(rnd.Intn(12)-6))
		}
		var adds []Add
		for n := rnd.Intn(9); n > 0; n-- {
			adds = append(adds, Add{Slot: rnd.Intn(slots), J: rnd.Float64() * math.Pow(10, float64(rnd.Intn(12)-9))})
		}
		n := 1 + rnd.Intn(300)
		want := slices.Clone(acc)
		for k := 0; k < n; k++ {
			for _, a := range adds {
				want[a.Slot] += a.J
			}
		}
		Replay(acc, adds, n)
		for i := range acc {
			if math.Float64bits(acc[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: slot %d = %v after %d replays of %v, window by window %v", trial, i, acc[i], n, adds, want[i])
			}
		}
	}
}
