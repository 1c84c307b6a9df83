package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

func recorded(t *testing.T, w *benchWorkload, seed uint64) json.RawMessage {
	t.Helper()
	var exp expectations
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	raw, ok := exp[w.name][strconv.FormatUint(seed, 10)]
	if !ok {
		t.Fatalf("no recorded %s result for seed %d", w.name, seed)
	}
	return raw
}

// corrupt decodes raw, lets edit change one value, and re-encodes it.
func corrupt(t *testing.T, raw json.RawMessage, edit func(map[string]any)) json.RawMessage {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var corruptions = map[string]func(map[string]any){
	"insulation": func(d map[string]any) {
		cell := d["cells"].([]any)[5].(map[string]any)
		cell["mj"] = cell["mj"].(float64) * (1 + 1e-12)
	},
	"fleet": func(d map[string]any) { d["shards"].([]any)[7] = "0000000000000000" },
	"long-boxed": func(d map[string]any) {
		d["events"] = d["events"].(float64) + 1
	},
	"sessions": func(d map[string]any) {
		st := d["stats"].(map[string]any)
		st["Kills"] = st["Kills"].(float64) + 1
	},
}

// TestTracedRunsRepeatAndCheck runs each workload's traced procedure
// twice: the per-layer counts must repeat exactly, the result must match
// its recording, and every corrupted recording must be reported.
func TestTracedRunsRepeatAndCheck(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := w.run
			if w.traced != nil {
				run = w.traced
			}
			seed := w.simSeed(0, false)
			r1, r2 := newRep(true), newRep(true)
			res := run(r1, seed)
			run(r2, seed)
			if fmt.Sprint(r1.counts) != fmt.Sprint(r2.counts) {
				t.Errorf("counts differ between two runs:\n%v\n%v", r1.counts, r2.counts)
			}
			// The traced fleet builds its shards twice: re-driven and under fleet.Run.
			if n := len(w.builds(seed)); w.traced == nil && float64(n) != r1.counts["build.systems"] {
				t.Errorf("the set-up samples build %d Systems, a repetition %v", n, r1.counts["build.systems"])
			}
			for _, name := range []string{"build.systems", "run.events", "hw.segments"} {
				if r1.counts[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, r1.counts[name])
				}
			}
			raw := recorded(t, w, seed)
			if failed, why := res.compare(raw); failed != 0 {
				t.Fatalf("result differs from its recording: %d failed: %s", failed, why)
			}
			if failed, _ := res.compare(corrupt(t, raw, corruptions[w.name])); failed == 0 {
				t.Errorf("a corrupted recording passed the check")
			}
			if len(r1.spans) == 0 {
				t.Errorf("traced run recorded no spans")
			}
		})
	}
}

func TestLayerCountsPerWorkload(t *testing.T) {
	r := newRep(true)
	runSessions(r, 7)
	for _, name := range []string{"sandbox.admitted", "sandbox.rejected", "sandbox.kills", "obs.trace.events"} {
		if r.counts[name] <= 0 {
			t.Errorf("sessions: %s = %v, want > 0", name, r.counts[name])
		}
	}
	r = newRep(true)
	runInsulation(r, 1)
	if r.counts["account.calls"] != 12 || r.counts["core.reads"] != 12 || r.counts["account.windows"] <= 0 {
		t.Errorf("insulation: account.calls %v core.reads %v account.windows %v",
			r.counts["account.calls"], r.counts["core.reads"], r.counts["account.windows"])
	}
}

// TestCorruptedExpectationFailsRun swaps in a corrupted recording and
// checks that the command reports the failure in its result line.
func TestCorruptedExpectationFailsRun(t *testing.T) {
	w := findWorkload("long-boxed")
	var exp expectations
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	key := strconv.FormatUint(w.simSeed(0, false), 10)
	exp[w.name][key] = corrupt(t, exp[w.name][key], corruptions[w.name])
	bad, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	saved := expectedJSON
	expectedJSON = bad
	defer func() { expectedJSON = saved }()

	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", w.name, "--seed", "0", "--seconds", "0.001", "--trace", "0", "--out-dir", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Errorf("corrupted recording gave %+v, want a reported failure", res)
	}
	if !strings.Contains(stderr.String(), "operations failed") {
		t.Errorf("stderr does not describe the failure: %q", stderr.String())
	}
}

func TestFleetFidelityMismatchFails(t *testing.T) {
	res := &fleetResult{Shards: []string{"a", "b"}, Outputs: "x", fidelity: map[int]string{1: "differs"}}
	want, _ := json.Marshal(res)
	if failed, _ := res.compare(want); failed != 1 {
		t.Errorf("fidelity mismatch counted %d failures, want 1", failed)
	}
	res.Shards[0] = "quarantined"
	if failed, _ := res.compare(want); failed != 2 {
		t.Errorf("quarantine plus fidelity mismatch counted %d failures, want 2", failed)
	}
	res.Shards[1] = "c"
	if failed, _ := res.compare(want); failed != 2 {
		t.Errorf("a shard failing two checks counted %d failures in all, want 2", failed)
	}
}

func TestSimSeedsAndRecordings(t *testing.T) {
	for _, w := range workloads {
		seen := map[uint64]bool{}
		for _, s := range []int64{0, 1, 9, 10, 11, -1, 1 << 40} {
			seen[w.simSeed(s, false)] = true
		}
		if w.simSeed(3, false) != w.simSeed(13, false) || w.simSeed(-1, false) != w.simSeed(9, false) {
			t.Errorf("%s: seeds do not map modulo 10", w.name)
		}
		held := w.simSeed(0, true)
		if seen[held] {
			t.Errorf("%s: held-out seed %d is among the measured seeds", w.name, held)
		}
		for i := uint64(0); i <= heldOutIndex; i++ {
			recorded(t, w, w.base+i)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "fleet", "--trace", "2"},
		{"--workload", "fleet", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a failure and no result", args, code, stdout.String())
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metrics the command
// prints are exactly those BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	m := &measurement{firstCounts: map[string]float64{}, samples: []sample{
		{wall: 1, root: 1, tracing: true}, {wall: 1, root: 1},
	}}
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		printed  map[string]metric
	}{
		{"end_to_end", decl.EndToEnd, m.endToEnd()},
		{"per_layer", decl.PerLayer, m.perLayer()},
	} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command prints %d", c.kind, len(c.declared), len(c.printed))
		}
		for _, d := range c.declared {
			if p, ok := c.printed[d.Name]; !ok || p.Unit != d.Unit {
				t.Errorf("%s: %s [%s] declared, printed %+v (present %t)", c.kind, d.Name, d.Unit, p, ok)
			}
		}
	}
}

func TestPanicFailsEveryOperation(t *testing.T) {
	var stderr bytes.Buffer
	m := &measurement{w: &benchWorkload{name: "boom", ops: 3, run: func(*rep, uint64) result {
		panic("invariant violation")
	}}, stderr: &stderr}
	m.repeat(true, false)
	if m.attempted != 3 || m.failed != 3 || len(m.samples) != 0 {
		t.Errorf("attempted %d failed %d samples %d; want 3, 3, 0", m.attempted, m.failed, len(m.samples))
	}
	if !strings.Contains(stderr.String(), "panic: invariant violation") {
		t.Errorf("stderr does not name the panic: %q", stderr.String())
	}
}

// TestReferenceScaling checks that host times are reported in reference
// seconds: a run whose reference took twice refNominal reports half its
// host times.
func TestReferenceScaling(t *testing.T) {
	m := &measurement{samples: []sample{
		{ref: 2 * refNominal, wall: 3 * time.Second},
		{ref: 2 * refNominal, wall: 1 * time.Second},
		{ref: 2 * refNominal, wall: 2 * time.Second},
	}, buildTimes: [][]time.Duration{
		{400 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond},
		{100 * time.Millisecond, 500 * time.Millisecond, 100 * time.Millisecond},
	}}
	got := m.endToEnd()
	if w := got["wall_s"].Value; math.Abs(w-1) > 1e-12 {
		t.Errorf("wall_s = %v, want 1 (mean 2 s at half speed)", w)
	}
	if s := got["setup_s"].Value; math.Abs(s-0.2) > 1e-12 {
		t.Errorf("setup_s = %v, want 0.2 (medians 0.3 s and 0.1 s at half speed)", s)
	}
	if d := reference(); d <= 0 {
		t.Errorf("reference took %v", d)
	}
}
