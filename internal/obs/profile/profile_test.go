package profile

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"psbox/internal/hw/power"
	"psbox/internal/obs"
	"psbox/internal/sim"
	"psbox/internal/snapshot"
)

const ms = sim.Millisecond

func name(owner int) string {
	if owner == 0 {
		return "kernel"
	}
	return map[int]string{1: "vision", 2: "maps"}[owner]
}

// testFold runs one canonical fold: a 10ms window at 2W with vision
// running sched for the first half, maps running accel for the last
// quarter, and the rest uncovered.
func testFold(p *Profiler) {
	runs := []power.Run{{T: 0, N: 1, W: 2.0}}
	events := []obs.Event{
		{Type: obs.TypeSpan, T: 0, End: sim.Time(5 * ms), Cat: obs.CatSched, Owner: 1, Rail: "cpu"},
		{Type: obs.TypeSpan, T: sim.Time(7500 * sim.Microsecond), End: sim.Time(10 * ms),
			Cat: obs.CatAccel, Owner: 2, Rail: "cpu"},
		// A different rail's span must be ignored by a cpu fold.
		{Type: obs.TypeSpan, T: 0, End: sim.Time(10 * ms), Cat: obs.CatAccel, Owner: 2, Rail: "gpu"},
	}
	p.FoldRail("cpu", runs, 10*ms, events, nil, name)
}

func TestFoldRailSplitsEnergy(t *testing.T) {
	p := New()
	p.Enable()
	testFold(p)

	// 2W over 10ms = 0.02 J. Coverage is 7.5ms of 10ms, so the active
	// fraction is 0.75; vision holds 5ms of 7.5ms occupancy, maps 2.5ms.
	want := map[Key]float64{
		{App: "vision", Comp: obs.CatSched, Rail: "cpu"}: 0.02 * 0.75 * (5.0 / 7.5),
		{App: "maps", Comp: obs.CatAccel, Rail: "cpu"}:   0.02 * 0.75 * (2.5 / 7.5),
		{App: IdleApp, Comp: IdleComp, Rail: "cpu"}:      0.02 * 0.25,
	}
	es := p.Entries()
	if len(es) != len(want) {
		t.Fatalf("entries = %+v, want %d stacks", es, len(want))
	}
	var sum float64
	for _, e := range es {
		w := want[Key{App: e.App, Comp: e.Comp, Rail: e.Rail}]
		if diff := e.J - w; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s;%s;%s = %v, want %v", e.App, e.Comp, e.Rail, e.J, w)
		}
		sum += e.J
	}
	if diff := sum - 0.02; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("profile total %v J, want the window's full 0.02 J", sum)
	}
	if p.Windows() != 1 || p.Degraded() != 0 {
		t.Errorf("windows=%d degraded=%d, want 1/0", p.Windows(), p.Degraded())
	}
}

// A disabled profiler folds nothing — the free-when-off contract.
func TestFoldDisabledIsNoOp(t *testing.T) {
	p := New()
	testFold(p)
	if len(p.Entries()) != 0 || p.Windows() != 0 {
		t.Fatalf("disabled profiler accumulated state: %+v", p.Entries())
	}
	if p.Armed() {
		t.Fatal("never-enabled profiler reports armed")
	}
	p.Enable()
	p.Disable()
	if !p.Armed() {
		t.Fatal("armed flag must be sticky across Disable")
	}
}

func TestFoldCountsDegradedWindows(t *testing.T) {
	p := New()
	p.Enable()
	runs := []power.Run{{T: 0, N: 2, W: 1}}
	gaps := []obs.Gap{{From: sim.Time(12 * ms), To: sim.Time(15 * ms)}}
	p.FoldRail("cpu", runs, 10*ms, nil, gaps, name)
	if p.Windows() != 2 || p.Degraded() != 1 {
		t.Fatalf("windows=%d degraded=%d, want 2/1", p.Windows(), p.Degraded())
	}
}

func TestAdvanceWatermarkMonotone(t *testing.T) {
	p := New()
	p.Advance(sim.Time(50 * ms))
	p.Advance(sim.Time(20 * ms))
	if got := p.Through(); got != sim.Time(50*ms) {
		t.Fatalf("watermark = %v, want 50ms (never moves back)", got)
	}
}

func TestMergeEntriesSumsAndSorts(t *testing.T) {
	a := []Entry{
		{App: "vision", Comp: "sched", Rail: "cpu", J: 0.5},
		{App: "idle", Comp: "floor", Rail: "cpu", J: 0.1},
	}
	b := []Entry{
		{App: "vision", Comp: "sched", Rail: "cpu", J: 0.25},
		{App: "maps", Comp: "net", Rail: "wifi", J: 0.05},
	}
	m := MergeEntries(a, b)
	want := []Entry{
		{App: "idle", Comp: "floor", Rail: "cpu", J: 0.1},
		{App: "maps", Comp: "net", Rail: "wifi", J: 0.05},
		{App: "vision", Comp: "sched", Rail: "cpu", J: 0.75},
	}
	if len(m) != len(want) {
		t.Fatalf("merged = %+v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Errorf("merged[%d] = %+v, want %+v", i, m[i], want[i])
		}
	}
}

func TestWriteFoldedFormat(t *testing.T) {
	entries := []Entry{
		{App: "idle", Comp: "floor", Rail: "cpu", J: 0.005},
		{App: "maps", Comp: "accel", Rail: "gpu", J: 1e-9}, // rounds to 0 µJ: skipped
		{App: "vision", Comp: "sched", Rail: "cpu", J: 0.0100004},
	}
	var sb strings.Builder
	if err := WriteFolded(&sb, entries); err != nil {
		t.Fatal(err)
	}
	want := "idle;floor;cpu 5000\nvision;sched;cpu 10000\n"
	if sb.String() != want {
		t.Fatalf("folded stacks:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWriteTopRanksAndTiesDeterministically(t *testing.T) {
	entries := []Entry{
		{App: "b", Comp: "x", Rail: "cpu", J: 0.5},
		{App: "a", Comp: "x", Rail: "cpu", J: 0.5}, // tie: "a" must rank before "b"
		{App: "c", Comp: "y", Rail: "gpu", J: 2.0},
	}
	var sb strings.Builder
	if err := WriteTop(&sb, entries, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("top table:\n%s", sb.String())
	}
	if !strings.Contains(lines[0], "top-2 of 3 stacks, total 3.000000000 J") {
		t.Errorf("header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "c") || !strings.Contains(lines[1], "66.67%") {
		t.Errorf("rank 1: %s", lines[1])
	}
	if fields := strings.Fields(lines[2]); fields[1] != "a" {
		t.Errorf("rank 2 tie should be 'a' first: %s", lines[2])
	}
}

// Two identical fold sequences must produce byte-identical snapshots, and
// the twin's Snapshot verifies clean against them.
func TestSnapshotRoundTrip(t *testing.T) {
	mk := func() *Profiler {
		p := New()
		p.Enable()
		testFold(p)
		p.Advance(sim.Time(10 * ms))
		return p
	}
	a, b := mk(), mk()
	ea, eb := snapshot.NewEncoder(), snapshot.NewEncoder()
	a.Snapshot(ea)
	b.Snapshot(eb)
	ba, bb := ea.Data(), eb.Data()
	if string(ba) != string(bb) {
		t.Fatal("identical folds produced different snapshot bytes")
	}
	if err := snapshot.Verify(ba, b.Snapshot); err != nil {
		t.Fatalf("twin restore: %v", err)
	}
	// A diverged twin must be rejected.
	b.weights[Key{App: "vision", Comp: "sched", Rail: "cpu"}] += 1e-6
	if err := snapshot.Verify(ba, b.Snapshot); err == nil {
		t.Fatal("diverged profiler passed snapshot verification")
	}
}

// referenceFold is the per-sample scan FoldRail replaced: every window
// clips every span on the rail, sums occupancy per (owner, component) in
// a map, measures coverage as the union of the clipped pieces, and books
// the occupants into weights in sorted (owner, component) order. It
// returns the windows and degraded windows it folded. The differential
// test holds FoldRail to it bit for bit.
func referenceFold(weights map[Key]float64, rail string, samples []power.Sample, period sim.Duration,
	events []obs.Event, gaps []obs.Gap, ownerName func(int) string) (windows, degraded uint64) {
	type ownerComp struct {
		owner int
		comp  string
	}
	type span struct {
		start, end sim.Time
		oc         ownerComp
	}
	var spans []span
	for _, ev := range events {
		if ev.Type == obs.TypeSpan && ev.Rail == rail {
			spans = append(spans, span{start: ev.T, end: ev.End, oc: ownerComp{ev.Owner, ev.Cat}})
		}
	}
	for _, s := range samples {
		lo, hi := s.T, s.T.Add(period)
		window := hi.Sub(lo)
		occ := make(map[ownerComp]sim.Duration)
		var clipped []span
		var total sim.Duration
		for _, sp := range spans {
			a, b := max(sp.start, lo), min(sp.end, hi)
			if b <= a {
				continue
			}
			occ[sp.oc] += b.Sub(a)
			total += b.Sub(a)
			clipped = append(clipped, span{start: a, end: b})
		}
		var covered sim.Duration
		sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
		for i := 0; i < len(clipped); {
			a, b := clipped[i].start, clipped[i].end
			for i++; i < len(clipped) && clipped[i].start <= b; i++ {
				b = max(b, clipped[i].end)
			}
			covered += b.Sub(a)
		}
		joules := float64(s.W) * period.Seconds()
		windows++
		for _, g := range gaps {
			if g.From < hi && g.To > lo {
				degraded++
				break
			}
		}
		ocs := make([]ownerComp, 0, len(occ))
		for oc := range occ {
			ocs = append(ocs, oc)
		}
		sort.Slice(ocs, func(i, j int) bool {
			if ocs[i].owner != ocs[j].owner {
				return ocs[i].owner < ocs[j].owner
			}
			return ocs[i].comp < ocs[j].comp
		})
		activeFrac := float64(covered) / float64(window)
		for _, oc := range ocs {
			frac := float64(occ[oc]) / float64(total) * activeFrac
			weights[Key{App: ownerName(oc.owner), Comp: oc.comp, Rail: rail}] += frac * joules
		}
		if idle := float64(window-covered) / float64(window); idle > 0 {
			weights[Key{App: IdleApp, Comp: IdleComp, Rail: rail}] += idle * joules
		}
	}
	return windows, degraded
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

// TestFoldMatchesOracle folds seeded scenarios in two calls, as repeated
// FoldProfile calls do, and compares the tree with referenceFold bit for
// bit. The scenarios mix rails, several components per owner, two owners
// named as one app, stacked spans with equal-time edges, zero-length and
// inverted spans, sample holes and unaligned starts, dropout gaps, and
// samples that repeat their watts, so FoldRail books runs of many windows.
func TestFoldMatchesOracle(t *testing.T) {
	owners := map[int]string{0: "kernel", 1: "vision", 2: "maps", 3: "dup", 4: "dup"}
	ownerName := func(id int) string { return owners[id] }
	comps := []string{obs.CatSched, obs.CatAccel, obs.CatNet}
	for seed := uint64(1); seed <= 500; seed++ {
		r := sim.NewRand(seed)
		period := []sim.Duration{10 * sim.Microsecond, 7 * sim.Microsecond}[r.Intn(2)]
		var samples []power.Sample
		at := sim.Time(r.Intn(2) * r.Intn(1000))
		for n := r.Intn(100); n > 0; n-- {
			if r.Intn(6) == 0 {
				at = at.Add(sim.Duration(r.Intn(4)) * period)
			}
			// Three in four repeat the watts before them, decided from
			// the watts draw so the draw sequence stays the same.
			v := r.Intn(4000)
			w := power.Watts(v) / 3
			if k := len(samples); k > 0 && v%4 != 0 {
				w = samples[k-1].W
			}
			samples = append(samples, power.Sample{T: at, W: w})
			at = at.Add(period)
		}
		q := sim.Duration(1+r.Intn(5)) * sim.Microsecond
		slot := func() sim.Time { return sim.Time(sim.Duration(r.Intn(1+int(sim.Duration(at)/q))) * q) }
		var events []obs.Event
		for n := r.Intn(60); n > 0; n-- {
			ev := obs.Event{Type: obs.TypeSpan, Owner: r.Intn(len(owners)), Cat: comps[r.Intn(len(comps))],
				Rail: []string{"cpu", "gpu"}[r.Intn(2)], T: slot()}
			ev.End = ev.T.Add(sim.Duration(r.Intn(30)-3) * q) // zero-length and inverted spans included
			if r.Intn(10) == 0 {
				ev.Type = obs.TypeInstant
			}
			events = append(events, ev)
			if r.Intn(4) == 0 {
				events = append(events, ev)
			}
		}
		var gaps []obs.Gap
		if r.Intn(2) == 0 {
			from := slot()
			gaps = append(gaps, obs.Gap{From: from, To: from.Add(sim.Duration(1 + r.Intn(50000)))})
		}

		p := New()
		p.Enable()
		want := make(map[Key]float64)
		var windows, degraded uint64
		split := r.Intn(len(samples) + 1)
		for _, part := range [][]power.Sample{samples[:split], samples[split:]} {
			p.FoldRail("cpu", runsOf(part, period), period, events, gaps, ownerName)
			w, d := referenceFold(want, "cpu", part, period, events, gaps, ownerName)
			windows, degraded = windows+w, degraded+d
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if p.Windows() != windows || p.Degraded() != degraded {
				t.Fatalf("windows=%d degraded=%d, oracle %d/%d", p.Windows(), p.Degraded(), windows, degraded)
			}
			if len(p.weights) != len(want) {
				t.Fatalf("%d stacks, oracle %d: %v vs %v", len(p.weights), len(want), p.weights, want)
			}
			for k, w := range want {
				if g, ok := p.weights[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s;%s;%s = %v, oracle %v", k.App, k.Comp, k.Rail, g, w)
				}
			}
		})
	}
}
