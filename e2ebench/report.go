package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layers are the span names of calls into psbox, each reported as its
// share of the traced repetition's host time.
var layers = []string{
	"build", "run", "account", "core.read", "obs.profile", "fleet.summarize",
	"snapshot", "fleet.run", "fleet.merge",
}

// glue are the benchmark's own spans; their self time is its overhead.
var glue = []string{"workload", "fleet.redrive", "fleet.shard"}

// countUnits lists the per-layer counts and their units.
var countUnits = []struct{ name, unit string }{
	{"build.systems", "count"},
	{"run.events", "count"},
	{"run.sim_s", "sim_s"},
	{"hw.segments", "count"},
	{"account.calls", "count"},
	{"account.windows", "count"},
	{"core.reads", "count"},
	{"obs.profile.windows", "count"},
	{"obs.profile.degraded", "count"},
	{"obs.blame.degraded", "count"},
	{"obs.trace.events", "count"},
	{"obs.trace.retained", "count"},
	{"obs.trace.dropped", "count"},
	{"snapshot.calls", "count"},
	{"snapshot.bytes", "bytes"},
	{"fleet.attempts", "count"},
	{"fleet.quarantined", "count"},
	{"sandbox.admitted", "count"},
	{"sandbox.rejected", "count"},
	{"sandbox.throttles", "count"},
	{"sandbox.kills", "count"},
	{"sandbox.restarts", "count"},
	{"sandbox.quarantined", "count"},
	{"fig6.psbox_dev_pct", "%"},
}

// perLayer reports the traced repetitions: medians of layer times, in
// reference seconds, and of layer shares; the counts, identical in every
// traced repetition; the tracing overhead against the untraced
// repetitions of the same run; and the raw reference time, which says how
// fast the host ran.
func (m *measurement) perLayer() map[string]metric {
	med := func(f func(sample) float64) float64 { return m.medianOf(true, f) }
	selfSeconds := func(name string) float64 {
		return med(func(s sample) float64 { return s.selfTimes[name].Seconds() }) * m.scale()
	}
	share := func(names ...string) float64 {
		return med(func(s sample) float64 {
			var d time.Duration
			for _, n := range names {
				d += s.selfTimes[n]
			}
			return 100 * ratio(d.Seconds(), s.root.Seconds())
		})
	}
	traced := m.meanWall(true)
	out := map[string]metric{
		"build.s":          {selfSeconds("build"), "s"},
		"run.s":            {selfSeconds("run"), "s"},
		"run.ns_per_event": {1e9 * ratio(selfSeconds("run"), m.firstCounts["run.events"]), "ns"},
		"bench.self_pct":   {share(glue...), "%"},
		"traced.wall_s":    {traced, "s"},
		"trace.overhead_s": {traced - m.meanWall(false), "s"},
		"host.ref_s":       {ratio(refNominal.Seconds(), m.scale()), "s"},
	}
	for _, l := range layers {
		out[l+".self_pct"] = metric{share(l), "%"}
	}
	for _, c := range countUnits {
		out[c.name] = metric{m.firstCounts[c.name], c.unit}
	}
	admitted, rejected := m.firstCounts["sandbox.admitted"], m.firstCounts["sandbox.rejected"]
	out["sandbox.admit_frac"] = metric{ratio(admitted, admitted+rejected), "ratio"}
	return out
}

// ratio is a/b, or 0 when b is 0: when every traced repetition failed, or
// the workload has no sessions.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes every traced repetition's spans, with the host they
// ran on, to dir/<workload>-seed<seed>.json.
func (m *measurement) writeSpans(dir string, h host, seed int64) error {
	type repetition struct {
		WallNs int64  `json:"wall_ns"`
		Spans  []span `json:"spans"`
	}
	doc := struct {
		Host        host         `json:"host"`
		Workload    string       `json:"workload"`
		Seed        int64        `json:"seed"`
		SimSeed     uint64       `json:"sim_seed"`
		Repetitions []repetition `json:"repetitions"`
	}{Host: h, Workload: m.w.name, Seed: seed, SimSeed: m.seed}
	for _, s := range m.samples {
		if s.tracing {
			doc.Repetitions = append(doc.Repetitions, repetition{s.wall.Nanoseconds(), s.spans})
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", m.w.name, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
