package account

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"psbox/internal/hw/power"
	"psbox/internal/sim"
)

const ms = sim.Millisecond

func setup(t *testing.T, initial power.Watts) (*sim.Engine, *power.Rail, *Recorder) {
	e := sim.NewEngine()
	r := power.NewRail(e, "rail", initial)
	return e, r, &Recorder{}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestExclusiveUsageFullyAttributed(t *testing.T) {
	e, rail, rec := setup(t, 2.0)
	e.Run(sim.Time(100 * ms))
	rec.Record(1, 0, sim.Time(40*ms))
	rec.Record(2, sim.Time(40*ms), sim.Time(100*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	shares := acc.Shares(0, sim.Time(100*ms))
	if !almost(shares[1], 2.0*0.040) || !almost(shares[2], 2.0*0.060) {
		t.Fatalf("shares = %v", shares)
	}
}

func TestOverlappingUsageSplitsByOccupancy(t *testing.T) {
	e, rail, rec := setup(t, 3.0)
	e.Run(sim.Time(100 * ms))
	// App 1 occupies one core the whole time; app 2 a second core the
	// whole time: even split of the entangled rail.
	rec.Record(1, 0, sim.Time(100*ms))
	rec.Record(2, 0, sim.Time(100*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	shares := acc.Shares(0, sim.Time(100*ms))
	if !almost(shares[1], 0.15) || !almost(shares[2], 0.15) {
		t.Fatalf("shares = %v", shares)
	}
}

func TestProportionalSplit(t *testing.T) {
	e, rail, rec := setup(t, 1.0)
	e.Run(sim.Time(10 * ms))
	// Within every window, app 1 uses 2 "cores" and app 2 uses 1.
	rec.Record(1, 0, sim.Time(10*ms))
	rec.Record(1, 0, sim.Time(10*ms))
	rec.Record(2, 0, sim.Time(10*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	shares := acc.Shares(0, sim.Time(10*ms))
	if !almost(shares[1], 2.0/3*0.010) || !almost(shares[2], 1.0/3*0.010) {
		t.Fatalf("shares = %v", shares)
	}
}

func TestIdleWindowsUnattributedByDefault(t *testing.T) {
	e, rail, rec := setup(t, 1.0)
	e.Run(sim.Time(100 * ms))
	rec.Record(1, 0, sim.Time(10*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	shares := acc.Shares(0, sim.Time(100*ms))
	if !almost(shares[1], 0.010) {
		t.Fatalf("shares = %v", shares)
	}
	var total float64
	for _, s := range shares {
		total += s
	}
	if !almost(total, 0.010) {
		t.Fatalf("idle energy leaked into shares: %v", shares)
	}
}

func TestTailPolicyChargesLastUser(t *testing.T) {
	e, rail, rec := setup(t, 1.0)
	e.Run(sim.Time(100 * ms))
	rec.Record(1, 0, sim.Time(10*ms))
	rec.Record(2, sim.Time(20*ms), sim.Time(30*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShareTail}
	shares := acc.Shares(0, sim.Time(100*ms))
	// App 1: its 10ms + the 10ms idle gap it "caused". App 2: its 10ms +
	// the 70ms trailing idle.
	if !almost(shares[1], 0.020) || !almost(shares[2], 0.080) {
		t.Fatalf("shares = %v", shares)
	}
}

func TestEvenSplitPolicy(t *testing.T) {
	e, rail, rec := setup(t, 2.0)
	e.Run(sim.Time(10 * ms))
	rec.Record(1, 0, sim.Time(10*ms))
	rec.Record(1, 0, sim.Time(10*ms)) // heavy user
	rec.Record(2, 0, sim.Time(10*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyEvenSplit}
	shares := acc.Shares(0, sim.Time(10*ms))
	if !almost(shares[1], 0.010) || !almost(shares[2], 0.010) {
		t.Fatalf("even split wrong: %v", shares)
	}
}

// The paper's core claim about the baseline: the attributed share of one
// app changes with co-runner behaviour even though the app itself did not
// change — entanglement survives any division heuristic.
func TestEntanglementSurvivesDivision(t *testing.T) {
	run := func(coRunner bool) power.Joules {
		e, rail, rec := setup(t, 1.0)
		// App 1 busy the whole 100ms: alone the rail draws 2 W; with a
		// co-runner on the second core it draws 3 W (not 2×2 W — shared
		// base).
		if coRunner {
			rail.Set(3.0)
		} else {
			rail.Set(2.0)
		}
		e.Run(sim.Time(100 * ms))
		rec.Record(1, 0, sim.Time(100*ms))
		if coRunner {
			rec.Record(2, 0, sim.Time(100*ms))
		}
		acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
		return acc.AppEnergy(1, 0, sim.Time(100*ms))
	}
	alone, entangled := run(false), run(true)
	diff := math.Abs(entangled-alone) / alone
	if diff < 0.2 {
		t.Fatalf("expected a large attribution shift, got %.1f%%", diff*100)
	}
}

func TestSeriesBuckets(t *testing.T) {
	e, rail, rec := setup(t, 1.0)
	e.Run(sim.Time(20 * ms))
	rec.Record(1, 0, sim.Time(10*ms))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	s := acc.Series(1, 0, sim.Time(20*ms), 5*ms)
	if len(s) != 4 {
		t.Fatalf("buckets = %d", len(s))
	}
	if !almost(s[0].W, 1.0) || !almost(s[1].W, 1.0) || !almost(s[2].W, 0) || !almost(s[3].W, 0) {
		t.Fatalf("series = %v", s)
	}
}

func TestRecorderDropsEmptySpans(t *testing.T) {
	rec := &Recorder{}
	rec.Record(1, 10, 10)
	rec.Record(1, 10, 5)
	if rec.Len() != 0 {
		t.Fatal("empty spans should be dropped")
	}
	rec.Record(1, 5, 10)
	if rec.Len() != 1 {
		t.Fatal("valid span dropped")
	}
}

func TestWindowClippingAtRangeEnd(t *testing.T) {
	// A range that is not a multiple of the window must not over-count.
	e, rail, rec := setup(t, 1.0)
	e.Run(sim.Time(105 * sim.Microsecond))
	rec.Record(1, 0, sim.Time(105*sim.Microsecond))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	if got := acc.AppEnergy(1, 0, sim.Time(105*sim.Microsecond)); !almost(got, 105e-6) {
		t.Fatalf("energy = %v", got)
	}
}

func TestRecordRejectsOutOfOrderEnd(t *testing.T) {
	rec := &Recorder{}
	rec.Record(1, 0, 20)
	rec.Record(2, 5, 20)  // equal End is in order
	rec.Record(2, 15, 10) // empty spans are dropped before the order check
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "before the previous span's end") {
			t.Fatalf("recovered %v, want an out-of-order panic", r)
		}
		if rec.Len() != 2 {
			t.Fatalf("Len = %d after the rejected span, want 2", rec.Len())
		}
	}()
	rec.Record(3, 5, 19)
}

// AppEnergy's cost per window must not include allocation: over the same
// recording, 100× more windows allocate nothing more.
func TestAppEnergyAllocsIndependentOfWindows(t *testing.T) {
	e, rail, rec := setup(t, 1.0)
	for i := 0; i < 1000; i++ {
		e.Run(sim.Time(i) * sim.Time(ms))
		rail.Set(1 + float64(i%3))
		start := sim.Time(i) * sim.Time(ms)
		rec.Record(1+i%2, start, start.Add(ms))
		rec.Record(3, start.Add(ms/4), start.Add(ms))
	}
	e.Run(sim.Time(sim.Second))
	acc := &Accountant{Rail: rail, Rec: rec, Window: 10 * sim.Microsecond, Policy: PolicyUsageShare}
	short := testing.AllocsPerRun(5, func() { acc.AppEnergy(1, 0, sim.Time(10*ms)) })
	long := testing.AllocsPerRun(5, func() { acc.AppEnergy(1, 0, sim.Time(sim.Second)) })
	if long > short {
		t.Fatalf("AppEnergy allocates %.0f times over 1 s but %.0f over 10 ms", long, short)
	}
}

// referenceWalk is the accountant's original map-based window walk, kept as
// the oracle the production walk must match bit for bit. It rebuilds the
// edge list from the first span and divides each window through per-window
// maps.
func referenceWalk(a *Accountant, from, to sim.Time, emit func(wStart sim.Time, shares map[int]power.Joules)) {
	if to <= from {
		return
	}
	w := a.Window
	if w <= 0 {
		w = 10 * sim.Microsecond
	}
	edges := make([]edge, 0, 2*len(a.Rec.spans))
	for _, s := range a.Rec.spans {
		edges = append(edges, edge{at: s.Start, owner: s.Owner, delta: +1})
		edges = append(edges, edge{at: s.End, owner: s.Owner, delta: -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })

	active := make(map[int]int)
	usage := make(map[int]float64)
	ei := 0
	lastUser := -1
	for ei < len(edges) && edges[ei].at <= from {
		e := edges[ei]
		active[e.owner] += e.delta
		if active[e.owner] <= 0 {
			delete(active, e.owner)
			lastUser = e.owner
		}
		ei++
	}
	for wStart := from; wStart < to; wStart = wStart.Add(w) {
		wEnd := wStart.Add(w)
		if wEnd > to {
			wEnd = to
		}
		for o := range usage {
			delete(usage, o)
		}
		cursor := wStart
		for ei < len(edges) && edges[ei].at < wEnd {
			e := edges[ei]
			dt := e.at.Sub(cursor).Seconds()
			if dt > 0 {
				for o, n := range active {
					if n > 0 {
						usage[o] += dt * float64(n)
					}
				}
				cursor = e.at
			}
			active[e.owner] += e.delta
			if active[e.owner] <= 0 {
				delete(active, e.owner)
				lastUser = e.owner
			}
			ei++
		}
		if dt := wEnd.Sub(cursor).Seconds(); dt > 0 {
			for o, n := range active {
				if n > 0 {
					usage[o] += dt * float64(n)
				}
			}
		}
		energy := a.Rail.EnergyBetween(wStart, wEnd)
		if energy <= 0 {
			continue
		}
		if shares := referenceDivide(a.Policy, energy, usage, lastUser); len(shares) > 0 {
			emit(wStart, shares)
		}
	}
}

func referenceDivide(p Policy, energy power.Joules, usage map[int]float64, lastUser int) map[int]power.Joules {
	switch p {
	case PolicyEvenSplit:
		if len(usage) == 0 {
			return nil
		}
		per := energy / float64(len(usage))
		out := make(map[int]power.Joules, len(usage))
		for o := range usage {
			out[o] = per
		}
		return out
	case PolicyUsageShareTail:
		if len(usage) == 0 {
			if lastUser < 0 {
				return nil
			}
			return map[int]power.Joules{lastUser: energy}
		}
	default:
		if len(usage) == 0 {
			return nil
		}
	}
	owners := make([]int, 0, len(usage))
	for o := range usage {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	var total float64
	for _, o := range owners {
		total += usage[o]
	}
	out := make(map[int]power.Joules, len(usage))
	for _, o := range owners {
		out[o] = energy * usage[o] / total
	}
	return out
}

// referenceShares, referenceAppEnergy and referenceSeries are the public
// queries as they were built on referenceWalk.
func referenceShares(a *Accountant, from, to sim.Time) map[int]power.Joules {
	out := make(map[int]power.Joules)
	referenceWalk(a, from, to, func(_ sim.Time, shares map[int]power.Joules) {
		owners := make([]int, 0, len(shares))
		for o := range shares {
			owners = append(owners, o)
		}
		sort.Ints(owners)
		for _, o := range owners {
			out[o] += shares[o]
		}
	})
	return out
}

func referenceAppEnergy(a *Accountant, owner int, from, to sim.Time) power.Joules {
	var total power.Joules
	referenceWalk(a, from, to, func(_ sim.Time, shares map[int]power.Joules) {
		total += shares[owner]
	})
	return total
}

func referenceSeries(a *Accountant, owner int, from, to sim.Time, step sim.Duration) []power.Sample {
	if step <= 0 {
		step = a.Window
	}
	nBuckets := int((to.Sub(from) + step - 1) / step)
	if nBuckets <= 0 {
		return nil
	}
	energy := make([]power.Joules, nBuckets)
	referenceWalk(a, from, to, func(wStart sim.Time, shares map[int]power.Joules) {
		e, ok := shares[owner]
		if !ok {
			return
		}
		if b := int(wStart.Sub(from) / step); b >= 0 && b < nBuckets {
			energy[b] += e
		}
	})
	out := make([]power.Sample, nBuckets)
	for i := range energy {
		out[i] = power.Sample{T: from.Add(sim.Duration(i) * step), W: energy[i] / step.Seconds()}
	}
	return out
}

// scenario is one generated accountant input: a rail's power transitions,
// a recording in End order, the monitor ticks at which the recording is
// queried while it grows, and one query range over the whole recording.
type scenario struct {
	policy   Policy
	window   sim.Duration
	horizon  sim.Time
	sets     []railSet
	spans    []Span
	ticks    []sim.Time
	from, to sim.Time
	step     sim.Duration
}

type railSet struct {
	at sim.Time
	w  power.Watts
}

// draw is the source of a scenario's choices: sim.Rand for the seeded
// differential test, fuzz bytes for the fuzz target.
type draw interface{ Intn(n int) int }

const us = sim.Microsecond

var scenarioOwners = []int{0, 3, 7, 12, 40}

func genScenario(d draw) scenario {
	sc := scenario{policy: Policy(d.Intn(3)), horizon: sim.Time(2 * ms)}
	sc.window = []sim.Duration{10 * us, 10 * us, 7 * us, 0}[d.Intn(4)]
	// Span times sit on a grid of q, so their edges often coincide with
	// each other and with window boundaries; rail transitions and the
	// query range add a sub-µs offset.
	q := sim.Duration(1+d.Intn(5)) * us
	slots := int(sim.Duration(sc.horizon) / q)
	at := func(slot int) sim.Time { return sim.Time(sim.Duration(slot) * q) }
	for n := d.Intn(300); n > 0; n-- {
		t := at(d.Intn(slots)).Add(sim.Duration(d.Intn(1000)))
		sc.sets = append(sc.sets, railSet{at: t, w: float64(d.Intn(8)) / 2})
	}
	sort.SliceStable(sc.sets, func(i, j int) bool { return sc.sets[i].at < sc.sets[j].at })
	owners := scenarioOwners[:1+d.Intn(len(scenarioOwners))]
	for n := d.Intn(80); n > 0; n-- {
		s := Span{Owner: owners[d.Intn(len(owners))], Start: at(d.Intn(slots))}
		s.End = min(s.Start.Add(sim.Duration(1+d.Intn(60))*q), sc.horizon)
		if s.End <= s.Start {
			continue
		}
		sc.spans = append(sc.spans, s)
		if d.Intn(4) == 0 { // a stacked twin: same owner, equal edges
			sc.spans = append(sc.spans, s)
		}
	}
	sort.SliceStable(sc.spans, func(i, j int) bool { return sc.spans[i].End < sc.spans[j].End })
	for t, p := sim.Time(0), sim.Duration(20+d.Intn(200))*us; t < sc.horizon; {
		t = min(t.Add(p), sc.horizon)
		sc.ticks = append(sc.ticks, t)
	}
	sc.from = at(d.Intn(slots / 2)).Add(sim.Duration(d.Intn(1000)))
	sc.to = min(sc.from.Add(sim.Duration(d.Intn(slots/2))*q+sim.Duration(d.Intn(1000))), sc.horizon)
	sc.step = sim.Duration(1+d.Intn(300)) * us
	return sc
}

// checkMatchesOracle replays sc and compares the accountant with the
// reference walk bit for bit: Shares at every tick over the growing
// recording, as the sandbox monitor queries it, then Shares, AppEnergy
// and Series over [from, to) of the full recording.
func checkMatchesOracle(t *testing.T, sc scenario) {
	t.Helper()
	e, rail, rec := setup(t, 1.0)
	for _, s := range sc.sets {
		e.Run(s.at)
		rail.Set(s.w)
	}
	e.Run(sc.horizon)
	acc := &Accountant{Rail: rail, Rec: rec, Window: sc.window, Policy: sc.policy}
	compareShares := func(from, to sim.Time) {
		t.Helper()
		got, want := acc.Shares(from, to), referenceShares(acc, from, to)
		if len(got) != len(want) {
			t.Fatalf("Shares(%v, %v) = %v, oracle %v", from, to, got, want)
		}
		for o, w := range want {
			if g, ok := got[o]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("Shares(%v, %v)[%d] = %v, oracle %v", from, to, o, g, w)
			}
		}
	}
	next, prev := 0, sim.Time(0)
	for _, tick := range sc.ticks {
		for ; next < len(sc.spans) && sc.spans[next].End <= tick; next++ {
			s := sc.spans[next]
			rec.Record(s.Owner, s.Start, s.End)
		}
		compareShares(prev, tick)
		prev = tick
	}
	compareShares(sc.from, sc.to)
	queried := append(append([]int(nil), scenarioOwners...), 99)
	for _, o := range queried {
		g, w := acc.AppEnergy(o, sc.from, sc.to), referenceAppEnergy(acc, o, sc.from, sc.to)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("AppEnergy(%d) = %v, oracle %v", o, g, w)
		}
		got := acc.Series(o, sc.from, sc.to, sc.step)
		want := referenceSeries(acc, o, sc.from, sc.to, sc.step)
		if len(got) != len(want) {
			t.Fatalf("Series(%d) has %d buckets, oracle %d", o, len(got), len(want))
		}
		for i := range want {
			if got[i].T != want[i].T || math.Float64bits(got[i].W) != math.Float64bits(want[i].W) {
				t.Fatalf("Series(%d)[%d] = %v, oracle %v", o, i, got[i], want[i])
			}
		}
	}
}

// The seeded scenarios cover overlapping and stacked same-owner spans with
// equal-time edges, rails with hundreds of transitions (zero-watt stretches
// included), unaligned ranges that start after 0 and end mid-window, and
// monitor-style queries over a growing recording, under all three
// policies.
func TestAccountantMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		sc := genScenario(sim.NewRand(seed))
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkMatchesOracle(t, sc) })
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

func FuzzAccountantMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := byteDraw(data)
		checkMatchesOracle(t, genScenario(&d))
	})
}
