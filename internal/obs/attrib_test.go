package obs

import (
	"fmt"
	"math"
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
	blames := Attribute(samples, period, intervals, nil)
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
	blames := Attribute(samples, period, intervals, nil)
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
		// Samples 4..6 lost to the dropout, as Meter.Samples would filter.
		if i >= 4 && i <= 6 {
			continue
		}
		samples = append(samples, power.Sample{T: tt, W: 1.0})
	}
	gap := Gap{From: base.Add(4 * period), To: base.Add(7 * period)}
	intervals := []Interval{{Start: base, End: base.Add(10 * period), Owner: 1}}
	blames := Attribute(samples, period, intervals, []Gap{gap})
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
	blames = Attribute(samples, period, intervals, []Gap{gap2})
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
	blames = Attribute(full, period, intervals, []Gap{gap2})
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
	blames := Attribute(samples, period, nil, nil)
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
	blames := Attribute(samples, period, intervals, nil)
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
	blames = Attribute(samples, period, intervals[:2], nil)
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
		blames := Attribute(samples, period, intervals, []Gap{tc.gap})
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
	blames := Attribute(samples, period, ivs, []Gap{gap})
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

// TestJoinRejectsOverlappingSamples pins Join's order contract: samples
// that run backwards or whose windows overlap are a caller bug and panic
// with a message naming the contract; windows separated by holes, as a
// meter dropout leaves them, and windows that merely touch are accepted.
func TestJoinRejectsOverlappingSamples(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []power.Sample
	}{
		{"descending", []power.Sample{{T: sim.Time(5 * period)}, {T: sim.Time(2 * period)}}},
		{"overlapping by one nanosecond", []power.Sample{{T: 0}, {T: sim.Time(period - 1)}}},
		{"repeated", []power.Sample{{T: sim.Time(period)}, {T: sim.Time(period)}}},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "ascending time order with non-overlapping windows") {
					t.Errorf("%s: recovered %q, want the order-contract panic", tc.name, msg)
				}
			}()
			Join(tc.samples, period, nil, nil, func(Window) {})
		}()
	}

	holes := []power.Sample{{T: 0}, {T: sim.Time(period)}, {T: sim.Time(4 * period)}, {T: sim.Time(7*period + 3)}}
	var emitted []sim.Time
	Join(holes, period, []Interval{{Start: 0, End: sim.Time(9 * period), Owner: 1}}, nil, func(w Window) {
		emitted = append(emitted, w.Sample.T)
		if w.Covered != period || w.Total != period || len(w.Occupants) != 1 {
			t.Errorf("window at %d: covered %v total %v occupants %+v, want one full occupant",
				int64(w.Sample.T), w.Covered, w.Total, w.Occupants)
		}
	})
	if len(emitted) != len(holes) {
		t.Fatalf("emitted %d windows, want %d", len(emitted), len(holes))
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
	// then, as dropouts leave them.
	t := sim.Time(d.Intn(2) * d.Intn(1000))
	for n := d.Intn(120); n > 0; n-- {
		if d.Intn(6) == 0 {
			t = t.Add(sim.Duration(d.Intn(4))*sc.period + sim.Duration(d.Intn(2)*d.Intn(1000)))
		}
		sc.samples = append(sc.samples, power.Sample{T: t, W: power.Watts(d.Intn(4000)) / 3})
		t = t.Add(sc.period)
	}
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
	got := Attribute(sc.samples, sc.period, sc.intervals, sc.gaps)
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
