//psbox:allow-noconcurrency tests exercise the host-side supervisor, which is concurrent by design
//psbox:allow-nowallclock tests tune the watchdog's host-side deadlines to keep hang scenarios fast

package fleet

import (
	"strings"
	"testing"

	"psbox/internal/obs"
	"psbox/internal/obs/profile"
)

// renderRollup captures every rollup rendering in one string, the full
// surface the worker-count determinism contract covers.
func renderRollup(t *testing.T, res *Result) string {
	t.Helper()
	ru := res.Rollup()
	var b strings.Builder
	if err := ru.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if err := ru.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	if err := ru.WriteTop(&b, 10); err != nil {
		t.Fatal(err)
	}
	if err := ru.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRollupDeterministicAcrossWorkers extends the acceptance core to the
// observability rollup: metrics, folded stacks, top table, and Prometheus
// exposition must render byte-identically at one worker and at four, with
// chaos in play.
func TestRollupDeterministicAcrossWorkers(t *testing.T) {
	var renders []string
	for _, workers := range []int{1, 4} {
		cfg := testConfig(4)
		cfg.Workers = workers
		cfg.Chaos = chaosAllKinds()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		renders = append(renders, renderRollup(t, res))
	}
	if renders[0] != renders[1] {
		t.Errorf("rollup differs between workers=1 and workers=4:\n--- w1 ---\n%s\n--- w4 ---\n%s",
			renders[0], renders[1])
	}
	// The profiled scenario must actually produce a tree and metrics.
	if !strings.Contains(renders[0], ";cpu ") {
		t.Errorf("rollup has no cpu stacks:\n%s", renders[0])
	}
	if !strings.Contains(renders[0], "psbox_fleet_coverage 1\n") {
		t.Errorf("rollup missing full coverage:\n%s", renders[0])
	}
}

// TestRollupExcludesQuarantined: with retries disabled, afflicted shards
// quarantine and must vanish from every aggregate — device count,
// coverage, profile windows — rather than skew them.
func TestRollupExcludesQuarantined(t *testing.T) {
	cfg := testConfig(4)
	cfg.MaxRetries = 0
	cfg.Chaos = chaosAllKinds()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ru := res.Rollup()
	if got := len(ru.Merged.Quarantined); got != 3 {
		t.Fatalf("quarantined = %v, want 3 shards", ru.Merged.Quarantined)
	}
	if ru.EnergyDist.Count != uint64(ru.Merged.Completed) {
		t.Errorf("energy distribution has %d devices, want %d completed",
			ru.EnergyDist.Count, ru.Merged.Completed)
	}
	single, err := Run(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := single.Shards[0].Report.ProfileWindows; ru.ProfileWindows != want {
		t.Errorf("rollup profile windows = %d, want the lone completed shard's %d",
			ru.ProfileWindows, want)
	}
}

// report builds a minimal hand-rolled shard report for outlier tests.
func report(batteryJ float64, blame map[string]float64) *ShardReport {
	rep := &ShardReport{BatteryJ: batteryJ, Metrics: obs.NewMetricsDump()}
	apps := make([]string, 0, len(blame))
	for app := range blame {
		apps = append(apps, app)
	}
	// Sorted like Summarize produces it.
	for i := 0; i < len(apps); i++ {
		for j := i + 1; j < len(apps); j++ {
			if apps[j] < apps[i] {
				apps[i], apps[j] = apps[j], apps[i]
			}
		}
	}
	for _, app := range apps {
		rep.Blame = append(rep.Blame, AppBlame{App: app, J: blame[app]})
	}
	return rep
}

// TestRollupOutlierFlagging: nine conforming devices and one whose blame
// share for "rogue" quadruples; MAD flagging must name exactly that
// (device, principal) pair — and a uniform fleet (sigma 0) flags nothing.
func TestRollupOutlierFlagging(t *testing.T) {
	res := &Result{}
	for i := 0; i < 10; i++ {
		rogue := 0.1 + float64(i%3)*0.01 // mild conforming jitter
		if i == 7 {
			rogue = 0.4
		}
		res.Shards = append(res.Shards, ShardOutcome{
			Shard:  i,
			Report: report(0.5, map[string]float64{"rogue": rogue, "base": 1 - rogue}),
		})
	}
	ru := res.Rollup()
	if len(ru.Outliers) != 2 {
		t.Fatalf("outliers = %+v, want shard 7 flagged for both principals", ru.Outliers)
	}
	for _, o := range ru.Outliers {
		if o.Shard != 7 {
			t.Errorf("flagged shard %d app=%s, want only shard 7", o.Shard, o.App)
		}
	}

	uniform := &Result{}
	for i := 0; i < 10; i++ {
		uniform.Shards = append(uniform.Shards, ShardOutcome{
			Shard:  i,
			Report: report(0.5, map[string]float64{"a": 0.25, "b": 0.75}),
		})
	}
	if ru := uniform.Rollup(); len(ru.Outliers) != 0 {
		t.Errorf("uniform fleet flagged outliers: %+v", ru.Outliers)
	}

	tiny := &Result{}
	for i := 0; i < 2; i++ {
		tiny.Shards = append(tiny.Shards, ShardOutcome{
			Shard:  i,
			Report: report(0.5, map[string]float64{"a": 0.1 + 0.8*float64(i)}),
		})
	}
	if ru := tiny.Rollup(); len(ru.Outliers) != 0 {
		t.Errorf("two-device fleet flagged outliers: %+v", ru.Outliers)
	}
}

func TestMadParams(t *testing.T) {
	med, sigma := madParams([]float64{1, 2, 3, 4, 100})
	if med != 3 {
		t.Errorf("median = %v, want 3", med)
	}
	if want := 1.4826 * 1; sigma != want {
		t.Errorf("sigma = %v, want %v", sigma, want)
	}
	if _, sigma := madParams([]float64{5, 5, 5, 5}); sigma != 0 {
		t.Errorf("uniform sigma = %v, want 0", sigma)
	}
}

// TestRollupEnergyDistQuantiles: per-device battery joules land in the
// 1 tick ≡ 1 µJ domain, so quantiles convert back to joules in the right
// bucket neighbourhood.
func TestRollupEnergyDistQuantiles(t *testing.T) {
	res := &Result{}
	for i := 0; i < 20; i++ {
		res.Shards = append(res.Shards, ShardOutcome{
			Shard:  i,
			Report: report(0.05, nil), // 50 mJ → 50_000 ticks → le100us bucket
		})
	}
	ru := res.Rollup()
	p50 := DeviceEnergyJ(ru.EnergyDist.P50())
	if p50 <= 0.01 || p50 > 0.1 {
		t.Errorf("p50 = %v J, want within the 50 mJ observation's bucket (10 mJ, 100 mJ]", p50)
	}
	if ru.EnergyDist.Count != 20 {
		t.Errorf("device count = %d, want 20", ru.EnergyDist.Count)
	}
}

// TestProgressCallback: the hook fires once per terminal shard with
// monotone counts, serialized by the supervisor, and sees the final
// tallies on its last call.
func TestProgressCallback(t *testing.T) {
	cfg := testConfig(4)
	cfg.Workers = 4
	cfg.MaxRetries = 0
	cfg.Chaos = chaosAllKinds()
	var dones, quars []int
	cfg.Progress = func(done, quarantined, total int) {
		if total != 4 {
			t.Errorf("total = %d, want 4", total)
		}
		dones = append(dones, done)
		quars = append(quars, quarantined)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(dones) != 4 {
		t.Fatalf("progress fired %d times, want 4", len(dones))
	}
	for i := range dones {
		if dones[i] != i+1 {
			t.Fatalf("done sequence %v not monotone", dones)
		}
	}
	if quars[3] != 3 {
		t.Errorf("final quarantined = %d, want 3", quars[3])
	}
}

// TestRollupMergesShardMetricsAndProfiles: hand-built reports with known
// metrics and profile entries sum across shards in ascending order.
func TestRollupMergesShardMetricsAndProfiles(t *testing.T) {
	mkRep := func(n int64) *ShardReport {
		rep := report(0.1, nil)
		rep.Metrics.Counters = []obs.Series[int64]{{Key: obs.Key{Name: "sched.switches"}, V: n}}
		rep.Profile = []profile.Entry{{App: "vision", Comp: "sched", Rail: "cpu", J: float64(n)}}
		rep.ProfileWindows = uint64(n)
		return rep
	}
	res := &Result{Shards: []ShardOutcome{
		{Shard: 0, Report: mkRep(2)},
		{Shard: 1, Quarantined: true}, // must not contribute
		{Shard: 2, Report: mkRep(3)},
	}}
	ru := res.Rollup()
	if got := ru.Metrics.Counters; len(got) != 1 || got[0] != (obs.Series[int64]{Key: obs.Key{Name: "sched.switches"}, V: 5}) {
		t.Errorf("merged counters = %+v, want sched.switches = 5", got)
	}
	if len(ru.Profile) != 1 || ru.Profile[0].J != 5 {
		t.Errorf("merged profile = %+v, want one 5 J stack", ru.Profile)
	}
	if ru.ProfileWindows != 5 {
		t.Errorf("profile windows = %d, want 5", ru.ProfileWindows)
	}
}
