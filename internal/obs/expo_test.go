package obs

import (
	"strings"
	"testing"

	"psbox/internal/sim"
)

// lookup returns the value of key k in a dump's series (zero if absent).
func lookup[V any](series []Series[V], k Key) V {
	for _, s := range series {
		if s.Key == k {
			return s.V
		}
	}
	var zero V
	return zero
}

// testDump builds a small two-shard-flavoured dump pair for merge and
// exposition tests.
func testDump(t *testing.T) (*MetricsDump, *MetricsDump) {
	t.Helper()
	mk := func(seed int64) *MetricsDump {
		b := NewBus(sim.NewEngine(), 8)
		b.NameOwner(1, "vision")
		b.Enable()
		b.Count("sched.switches", 1, "cpu", 10+seed)
		b.Count("obs.custom", 0, "", seed)
		b.Gauge("dvfs.freq_mhz", 0, "cpu", float64(600*seed))
		b.Observe("accel.latency", 1, "gpu", sim.Duration(seed)*sim.Millisecond)
		b.Instant(CatSim, "tick", 0, 0, "", "")
		return b.DumpMetrics()
	}
	return mk(1), mk(2)
}

func TestDumpMergeSumsDeterministically(t *testing.T) {
	a, b := testDump(t)
	m := NewMetricsDump()
	m.Merge(a)
	m.Merge(b)
	if got := lookup(m.Counters, Key{"sched.switches", 1, "cpu"}); got != 23 {
		t.Errorf("merged counter = %d, want 23", got)
	}
	if got := lookup(m.Gauges, Key{"dvfs.freq_mhz", 0, "cpu"}); got != 1800 {
		t.Errorf("merged gauge = %v, want 1800", got)
	}
	h := lookup(m.Hists, Key{"accel.latency", 1, "gpu"})
	if h.Count != 2 || h.Sum != 3*sim.Millisecond {
		t.Errorf("merged hist = %+v", h)
	}
	if m.Events != a.Events+b.Events {
		t.Errorf("merged events = %d", m.Events)
	}
	if m.Owners[1] != "vision" {
		t.Errorf("owner table lost: %v", m.Owners)
	}

	// A dump renders through the same canonical writer as a live bus.
	var s1, s2 strings.Builder
	if err := m.Write(&s1); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(&s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatal("dump render not stable")
	}
	if !strings.Contains(s1.String(), "counter sched.switches") {
		t.Fatalf("merged report missing series:\n%s", s1.String())
	}
}

// DumpMetrics is a snapshot: later bus activity must not leak into it.
func TestDumpIsImmuneToLaterBusActivity(t *testing.T) {
	b := NewBus(sim.NewEngine(), 8)
	b.Enable()
	b.Count("c", 0, "", 1)
	b.Observe("h", 0, "", sim.Millisecond)
	d := b.DumpMetrics()
	b.Count("c", 0, "", 100)
	b.Observe("h", 0, "", sim.Second)
	if lookup(d.Counters, Key{"c", 0, ""}) != 1 {
		t.Error("counter leaked into dump")
	}
	if lookup(d.Hists, Key{"h", 0, ""}).Count != 1 {
		t.Error("histogram leaked into dump")
	}
}

func TestWriteProm(t *testing.T) {
	a, _ := testDump(t)
	var sb strings.Builder
	if err := a.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "# TYPE psbox_obs_custom counter\n" +
		"psbox_obs_custom 1\n" +
		"# TYPE psbox_sched_switches counter\n" +
		"psbox_sched_switches{owner=\"vision\",rail=\"cpu\"} 11\n" +
		"# TYPE psbox_dvfs_freq_mhz gauge\n" +
		"psbox_dvfs_freq_mhz{rail=\"cpu\"} 600\n" +
		"# TYPE psbox_accel_latency histogram\n" +
		"psbox_accel_latency_bucket{owner=\"vision\",rail=\"gpu\",le=\"1e-05\"} 0\n" +
		"psbox_accel_latency_bucket{owner=\"vision\",rail=\"gpu\",le=\"0.0001\"} 0\n" +
		"psbox_accel_latency_bucket{owner=\"vision\",rail=\"gpu\",le=\"0.001\"} 1\n" +
		"psbox_accel_latency_bucket{owner=\"vision\",rail=\"gpu\",le=\"0.01\"} 1\n" +
		"psbox_accel_latency_bucket{owner=\"vision\",rail=\"gpu\",le=\"0.1\"} 1\n" +
		"psbox_accel_latency_bucket{owner=\"vision\",rail=\"gpu\",le=\"1\"} 1\n" +
		"psbox_accel_latency_bucket{owner=\"vision\",rail=\"gpu\",le=\"+Inf\"} 1\n" +
		"psbox_accel_latency_sum{owner=\"vision\",rail=\"gpu\"} 0.001\n" +
		"psbox_accel_latency_count{owner=\"vision\",rail=\"gpu\"} 1\n" +
		"# TYPE psbox_obs_events_total counter\n" +
		"psbox_obs_events_total 1\n" +
		"# TYPE psbox_obs_dropped_events_total counter\n" +
		"psbox_obs_dropped_events_total 0\n"
	if got != want {
		t.Fatalf("prom exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromNameSanitizes(t *testing.T) {
	for in, want := range map[string]string{
		"obs.events_total": "psbox_obs_events_total",
		"a-b c/d":          "psbox_a_b_c_d",
		"plain":            "psbox_plain",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromLabelEscaping(t *testing.T) {
	d := NewMetricsDump()
	d.Owners[1] = "we\"ird\\app"
	d.Counters = []Series[int64]{{Key: Key{"c", 1, ""}, V: 1}}
	var sb strings.Builder
	if err := d.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `owner="we\"ird\\app"`) {
		t.Fatalf("label not escaped:\n%s", sb.String())
	}
}
