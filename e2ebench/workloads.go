package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"

	"psbox"
	"psbox/internal/account"
	"psbox/internal/experiments"
	"psbox/internal/fleet"
	"psbox/internal/obs"
	"psbox/internal/obs/profile"
	"psbox/internal/sandbox"
	"psbox/internal/workload"
)

// result is one repetition's output. It stays reachable until the
// retained-heap reading, and compares itself with the outcome recorded
// for the same simulation seed in expected.json.
type result interface {
	// compare returns how many of the repetition's operations differ from
	// want, and a description of the first difference.
	compare(want json.RawMessage) (failed int, why string)
}

// benchWorkload is one benchmark workload. Its simulation seeds are
// base..base+9, picked by --seed modulo 10; base+10 is held out, run only
// with --heldout, for later claims to be re-checked on.
type benchWorkload struct {
	name string
	base uint64
	ops  int // operations per repetition: the unit of attempted/failed

	// run is the untraced repetition; traced is the traced one when it
	// differs (fleet re-drives its shards from outside the supervisor).
	run    func(r *rep, seed uint64) result
	traced func(r *rep, seed uint64) result

	// crossCheck, when set, computes an independent expected result once,
	// outside the timed repetitions, and returns its checker.
	crossCheck func(seed uint64) func(result) (failed int, why string)

	// builds returns the constructors of every System one repetition
	// builds, in order: the repetition's set-up, which the benchmark times
	// on its own, setupSamples times after each measured repetition.
	builds       func(seed uint64) []func() *psbox.System
	setupSamples int
}

const heldOutIndex = 10

func (w *benchWorkload) simSeed(seed int64, heldOut bool) uint64 {
	if heldOut {
		return w.base + heldOutIndex
	}
	return w.base + uint64(((seed%10)+10)%10)
}

var workloads = []*benchWorkload{
	{name: "insulation", base: 1, ops: 24, run: runInsulation, crossCheck: fig6CrossCheck, builds: insulationBuilds, setupSamples: 4},
	{name: "fleet", base: 42, ops: fleetShards, run: runFleet, traced: redriveFleet, builds: fleetBuilds, setupSamples: 4},
	{name: "long-boxed", base: 1, ops: 1, run: runLongBoxed, builds: longBoxedBuilds, setupSamples: 20},
	{name: "sessions", base: 7, ops: 1, run: runSessions, builds: sessionsBuilds, setupSamples: 20},
}

func findWorkload(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- insulation: the Fig. 6 grid from public calls ----

type fig6Scope struct {
	scope      psbox.HW
	platform   func(uint64) *psbox.System
	victim     string
	coRunners  [][]string
	span       psbox.Duration
	coSaturate bool
}

// fig6Grid is the grid of experiments.Fig6: four scopes, the victim alone
// and with two co-runner sets.
var fig6Grid = []fig6Scope{
	{psbox.HWCPU, psbox.NewAM57, "calib3d", [][]string{{"bodytrack"}, {"dedup"}}, 3 * psbox.Second, false},
	{psbox.HWDSP, psbox.NewAM57, "dgemm", [][]string{{"sgemm"}, {"monte", "sgemm"}}, 5 * psbox.Second, true},
	{psbox.HWGPU, psbox.NewAM57, "browser", [][]string{{"magic"}, {"triangle"}}, 3 * psbox.Second, false},
	{psbox.HWWiFi, psbox.NewBeagleBone, "browserw", [][]string{{"scp"}, {"wget"}}, 4 * psbox.Second, false},
}

type fig6Cell struct {
	Scope    string  `json:"scope"`
	With     string  `json:"with"`     // co-runners joined by "+"; "" when alone
	Approach string  `json:"approach"` // "psbox" (Box.Read) or "baseline" (usage-share AppEnergy)
	MJ       float64 `json:"mj"`
}

type insulationResult struct {
	Cells       []fig6Cell    `json:"cells"`
	PSBoxDevPct float64       `json:"psbox_dev_pct"` // worst |deviation| of a boxed victim from its alone reading
	last        *psbox.System // kept reachable for the retained-heap reading
}

func install(sys *psbox.System, name string, saturate bool) *psbox.App {
	return workload.Install(sys.Kernel, workload.Catalog()[name](sys.Kernel.CPU().Cores(), saturate))
}

// buildCell builds one cell's System: the victim, its co-runners and,
// when boxed, the victim's box.
func buildCell(sc fig6Scope, co []string, boxed bool, seed uint64) (*psbox.System, *psbox.App, *psbox.Box) {
	sys := sc.platform(seed)
	victim := install(sys, sc.victim, false)
	for _, c := range co {
		install(sys, c, sc.coSaturate)
	}
	var box *psbox.Box
	if boxed {
		box = sys.Sandbox.MustCreate(victim, sc.scope)
		box.Enter()
	}
	return sys, victim, box
}

// fig6Cells calls cell for every cell of the grid, in the grid's order.
func fig6Cells(cell func(sc fig6Scope, co []string, boxed bool)) {
	for _, sc := range fig6Grid {
		for _, co := range append([][]string{nil}, sc.coRunners...) {
			cell(sc, co, true)
			cell(sc, co, false)
		}
	}
}

func insulationBuilds(seed uint64) []func() *psbox.System {
	var fns []func() *psbox.System
	fig6Cells(func(sc fig6Scope, co []string, boxed bool) {
		fns = append(fns, func() *psbox.System {
			sys, _, _ := buildCell(sc, co, boxed, seed)
			return sys
		})
	})
	return fns
}

func runInsulation(r *rep, seed uint64) result {
	out := &insulationResult{}
	var aloneBox float64
	fig6Cells(func(sc fig6Scope, co []string, boxed bool) {
		var victim *psbox.App
		var box *psbox.Box
		sys := r.build(func() (sys *psbox.System) {
			sys, victim, box = buildCell(sc, co, boxed, seed)
			return sys
		})
		r.run(sys, sc.span)
		var j float64
		if boxed {
			r.span("core.read", func() { j = box.Read() })
			r.counts["core.reads"]++
		} else {
			acc := sys.Accountant(string(sc.scope), account.PolicyUsageShare)
			r.span("account", func() { j = acc.AppEnergy(victim.ID, 0, sys.Now()) })
			r.counts["account.calls"]++
			r.counts["account.windows"] += float64(int64(sys.Now()) / int64(acc.Window))
		}
		r.finish(sys)
		out.last = sys
		mj := j * 1000
		approach := "baseline"
		if boxed {
			approach = "psbox"
			if co == nil {
				aloneBox = mj
			} else {
				out.PSBoxDevPct = math.Max(out.PSBoxDevPct, math.Abs((mj-aloneBox)/aloneBox*100))
			}
		}
		out.Cells = append(out.Cells, fig6Cell{Scope: string(sc.scope), With: strings.Join(co, "+"), Approach: approach, MJ: mj})
	})
	r.counts["fig6.psbox_dev_pct"] = out.PSBoxDevPct
	return out
}

func (res *insulationResult) compare(raw json.RawMessage) (int, string) {
	var want insulationResult
	if err := json.Unmarshal(raw, &want); err != nil {
		return len(res.Cells), "expected insulation result unreadable: " + err.Error()
	}
	return compareCells(res.Cells, want.Cells)
}

func compareCells(got, want []fig6Cell) (int, string) {
	if len(got) != len(want) {
		return len(got), fmt.Sprintf("%d cells, expected %d", len(got), len(want))
	}
	failed, why := 0, ""
	for i := range got {
		if got[i] != want[i] {
			if failed == 0 {
				why = fmt.Sprintf("cell %d: got %+v, expected %+v", i, got[i], want[i])
			}
			failed++
		}
	}
	return failed, why
}

// fig6CrossCheck runs experiments.Fig6 once and checks that the
// benchmark's grid equals it cell for cell.
func fig6CrossCheck(seed uint64) func(result) (int, string) {
	ref := experiments.Fig6(seed)
	var want []fig6Cell
	for i, row := range ref.Rows {
		sc := fig6Grid[i]
		want = append(want,
			fig6Cell{row.Scope, "", "psbox", row.PSBoxAloneMJ},
			fig6Cell{row.Scope, "", "baseline", row.BaselineAloneMJ})
		for k := range row.PSBox {
			with := strings.Join(sc.coRunners[k], "+")
			want = append(want,
				fig6Cell{row.Scope, with, "psbox", row.PSBox[k].MJ},
				fig6Cell{row.Scope, with, "baseline", row.Baseline[k].MJ})
		}
	}
	return func(res result) (int, string) {
		failed, why := compareCells(res.(*insulationResult).Cells, want)
		if failed > 0 {
			why = "differs from experiments.Fig6: " + why
		}
		return failed, why
	}
}

// ---- fleet: the supervised fleet and its merged outputs ----

const (
	fleetShards  = 32
	fleetHorizon = 200 * psbox.Millisecond
	fleetQuanta  = 20
	fleetCkpt    = 5
)

type fleetResult struct {
	Shards   []string       `json:"shards"`  // digest of each shard's report; "quarantined" for a quarantined shard
	Outputs  string         `json:"outputs"` // digest of the merged report, rollup metrics and folded profile
	res      *fleet.Result  // kept reachable for the retained-heap reading
	fidelity map[int]string // shards whose re-drive reported differently from fleet.Run
}

// fleetWorkers is the supervisor's worker count: two, or fewer on a
// smaller host, so the benchmark never runs more goroutines than CPUs.
func fleetWorkers() int { return min(2, runtime.NumCPU()) }

// fleetBuilds lists the shard Systems fleet.Run builds: each shard's
// DefaultScenario at its shard seed.
func fleetBuilds(seed uint64) []func() *psbox.System {
	fns := make([]func() *psbox.System, fleetShards)
	for i := range fns {
		fns[i] = func() *psbox.System { return fleet.DefaultScenario(i, fleet.ShardSeed(seed, i), fleetHorizon) }
	}
	return fns
}

// runFleetSupervised runs fleet.Run with DefaultScenario shards.
func runFleetSupervised(r *rep, seed uint64) *fleet.Result {
	cfg := fleet.Config{
		Shards:     fleetShards,
		Workers:    fleetWorkers(),
		Horizon:    fleetHorizon,
		Seed:       seed,
		MaxRetries: 2,
	}
	var res *fleet.Result
	r.span("fleet.run", func() {
		var err error
		if res, err = fleet.Run(cfg); err != nil {
			panic("fleet config rejected: " + err.Error())
		}
	})
	r.counts["build.systems"] += fleetShards
	for _, sh := range res.Shards {
		r.counts["fleet.attempts"] += float64(sh.Attempts)
		if sh.Quarantined {
			r.counts["fleet.quarantined"]++
		}
	}
	return res
}

// mergeFleet renders the fleet's merged outputs and returns their digest.
func mergeFleet(r *rep, res *fleet.Result) string {
	h := sha256.New()
	r.span("fleet.merge", func() {
		res.Merge()
		h.Write([]byte(res.Format()))
		ru := res.Rollup()
		if err := ru.WriteMetrics(h); err != nil {
			panic(err)
		}
		if err := ru.WriteFolded(h); err != nil {
			panic(err)
		}
	})
	return hex.EncodeToString(h.Sum(nil))
}

func newFleetResult(res *fleet.Result, outputs string) *fleetResult {
	out := &fleetResult{Outputs: outputs, res: res}
	for _, sh := range res.Shards {
		if sh.Quarantined || sh.Report == nil {
			out.Shards = append(out.Shards, "quarantined")
			continue
		}
		out.Shards = append(out.Shards, shardDigest(sh.Report))
	}
	return out
}

func runFleet(r *rep, seed uint64) result {
	res := runFleetSupervised(r, seed)
	return newFleetResult(res, mergeFleet(r, res))
}

// redriveFleet is the traced fleet repetition. The supervisor hides its
// shards' layers, so each shard is re-driven from outside the way the
// supervisor's attempt does it: build, checkpoints every five quanta,
// twenty quanta of Run, FoldProfile, Summarize. A real fleet.Run then
// supplies the result that Merge/Format/Rollup are timed on, and every
// re-driven shard must report exactly what the supervisor's did.
func redriveFleet(r *rep, seed uint64) result {
	reports := make([]*fleet.ShardReport, fleetShards)
	r.span("fleet.redrive", func() {
		for i := range reports {
			reports[i] = redriveShard(r, i, fleet.ShardSeed(seed, i))
		}
	})
	res := runFleetSupervised(r, seed)
	out := newFleetResult(res, mergeFleet(r, res))
	out.fidelity = map[int]string{}
	for i, sh := range res.Shards {
		if sh.Report == nil {
			continue
		}
		want, got := sh.Report, reports[i]
		if shardDigest(got) != shardDigest(want) {
			out.fidelity[i] = fmt.Sprintf("re-drive battery %v J blame %v, fleet.Run battery %v J blame %v",
				got.BatteryJ, got.Blame, want.BatteryJ, want.Blame)
		}
	}
	return out
}

func redriveShard(r *rep, shard int, seed uint64) *fleet.ShardReport {
	var rep *fleet.ShardReport
	r.span("fleet.shard", func() {
		sys := r.build(func() *psbox.System { return fleet.DefaultScenario(shard, seed, fleetHorizon) })
		quantum := fleetHorizon / fleetQuanta
		for q := fleetCkpt; q <= fleetQuanta; q += fleetCkpt {
			at := psbox.Time(int64(quantum) * int64(q))
			sys.Eng.At(at, func(psbox.Time) {
				sys.Trace.Instant(obs.CatCkpt, "checkpoint", 0, int64(at), "", "")
				r.span("snapshot", func() {
					r.counts["snapshot.bytes"] += float64(len(sys.Snapshot()))
				})
				r.counts["snapshot.calls"]++
			})
		}
		for q := 0; q < fleetQuanta; q++ {
			r.run(sys, quantum)
		}
		r.span("obs.profile", sys.FoldProfile)
		r.counts["obs.profile.windows"] += float64(sys.Profile.Windows())
		r.counts["obs.profile.degraded"] += float64(sys.Profile.Degraded())
		r.span("fleet.summarize", func() { rep = fleet.Summarize(sys, 0, sys.Now()) })
		r.counts["obs.blame.degraded"] += float64(rep.Degraded)
		r.finish(sys)
		r.traceCounts(sys)
	})
	return rep
}

// shardDigest hashes every deterministic field of a shard report.
func shardDigest(rep *fleet.ShardReport) string {
	h := sha256.New()
	fmt.Fprintf(h, "battery %v\nboxes %v\nblame %v\n", rep.BatteryJ, rep.Boxes, rep.Blame)
	fmt.Fprintf(h, "degraded %d faults %d audits %d events %d\n", rep.Degraded, rep.Faults, rep.Audits, rep.TraceEvents)
	if err := rep.Metrics.Write(h); err != nil {
		panic(err)
	}
	if err := profile.WriteFolded(h, rep.Profile); err != nil {
		panic(err)
	}
	fmt.Fprintf(h, "profile windows %d degraded %d\n", rep.ProfileWindows, rep.ProfileDegraded)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (res *fleetResult) compare(raw json.RawMessage) (int, string) {
	var want fleetResult
	if err := json.Unmarshal(raw, &want); err != nil {
		return len(res.Shards), "expected fleet result unreadable: " + err.Error()
	}
	if len(want.Shards) != len(res.Shards) {
		return len(res.Shards), fmt.Sprintf("%d shards, expected %d", len(res.Shards), len(want.Shards))
	}
	// A difference in the merged outputs fails every shard they cover.
	if res.Outputs != want.Outputs {
		return len(res.Shards), fmt.Sprintf("merged outputs digest %s, expected %s", res.Outputs, want.Outputs)
	}
	failed, why := 0, ""
	for i := range res.Shards {
		diff := res.fidelity[i]
		if res.Shards[i] == "quarantined" || res.Shards[i] != want.Shards[i] {
			diff = fmt.Sprintf("report %s, expected %s", res.Shards[i], want.Shards[i])
		}
		if diff != "" {
			if failed == 0 {
				why = fmt.Sprintf("shard %d: %s", i, diff)
			}
			failed++
		}
	}
	return failed, why
}

// ---- long-boxed: a long boxed run with tracing off ----

const longHorizon = 600 // simulated seconds, run in 1 s steps

type longBoxedResult struct {
	BoxJ     float64       `json:"box_j"`
	Events   uint64        `json:"events"`
	BatteryJ float64       `json:"battery_j"`
	sys      *psbox.System // kept reachable for the retained-heap reading
}

// buildLongBoxed builds three saturating calib3d contenders on an AM57
// and boxes the last one on the CPU.
func buildLongBoxed(seed uint64) (*psbox.System, *psbox.Box) {
	sys := psbox.NewAM57(seed)
	var last *psbox.App
	for i := 0; i < 3; i++ {
		last = install(sys, "calib3d", true)
	}
	box := sys.Sandbox.MustCreate(last, psbox.HWCPU)
	box.Enter()
	return sys, box
}

func longBoxedBuilds(seed uint64) []func() *psbox.System {
	return []func() *psbox.System{func() *psbox.System {
		sys, _ := buildLongBoxed(seed)
		return sys
	}}
}

func runLongBoxed(r *rep, seed uint64) result {
	var box *psbox.Box
	sys := r.build(func() (sys *psbox.System) {
		sys, box = buildLongBoxed(seed)
		return sys
	})
	for i := 0; i < longHorizon; i++ {
		r.run(sys, psbox.Second)
	}
	out := &longBoxedResult{sys: sys}
	r.span("core.read", func() { out.BoxJ = box.Read() })
	r.counts["core.reads"]++
	r.finish(sys)
	out.Events = sys.Eng.Fired()
	out.BatteryJ = sys.Meter.Energy("battery", 0, sys.Now())
	return out
}

func (res *longBoxedResult) compare(raw json.RawMessage) (int, string) {
	var want longBoxedResult
	if err := json.Unmarshal(raw, &want); err != nil {
		return 1, "expected long-boxed result unreadable: " + err.Error()
	}
	if res.BoxJ != want.BoxJ || res.Events != want.Events || res.BatteryJ != want.BatteryJ {
		return 1, fmt.Sprintf("box %v J, %d events, battery %v J; expected box %v J, %d events, battery %v J",
			res.BoxJ, res.Events, res.BatteryJ, want.BoxJ, want.Events, want.BatteryJ)
	}
	return 0, ""
}

// ---- sessions: one churn System as the fleet builds it ----

const sessionsHorizon = 30 * psbox.Second

type sessionState struct {
	Name      string `json:"name"`
	State     string `json:"state"`
	Throttles uint64 `json:"throttles"`
	Kills     uint64 `json:"kills"`
	Restarts  uint64 `json:"restarts"`
}

type sessionsResult struct {
	Stats    sandbox.Stats  `json:"stats"`
	Sessions []sessionState `json:"sessions"`
	sys      *psbox.System  // kept reachable for the retained-heap reading
}

func sessionsBuilds(seed uint64) []func() *psbox.System {
	return []func() *psbox.System{func() *psbox.System { return fleet.ChurnScenario(0, seed, sessionsHorizon) }}
}

func runSessions(r *rep, seed uint64) result {
	sys := r.build(sessionsBuilds(seed)[0])
	for q := 0; q < fleetQuanta; q++ {
		r.run(sys, sessionsHorizon/fleetQuanta)
	}
	r.finish(sys)
	r.traceCounts(sys)
	mgr := sys.Sandboxes()
	st := mgr.Stats()
	r.counts["sandbox.admitted"] = float64(st.Admitted)
	r.counts["sandbox.rejected"] = float64(st.Rejected)
	r.counts["sandbox.throttles"] = float64(st.Throttles)
	r.counts["sandbox.kills"] = float64(st.Kills)
	r.counts["sandbox.restarts"] = float64(st.Restarts)
	r.counts["sandbox.quarantined"] = float64(st.Quarantined)
	out := &sessionsResult{Stats: st, sys: sys}
	for _, s := range mgr.Sessions() {
		out.Sessions = append(out.Sessions, sessionState{s.Name(), s.State().String(), s.Throttles(), s.Kills(), s.Restarts()})
	}
	return out
}

func (res *sessionsResult) compare(raw json.RawMessage) (int, string) {
	var want sessionsResult
	if err := json.Unmarshal(raw, &want); err != nil {
		return 1, "expected sessions result unreadable: " + err.Error()
	}
	if res.Stats != want.Stats {
		return 1, fmt.Sprintf("stats %+v, expected %+v", res.Stats, want.Stats)
	}
	if fmt.Sprint(res.Sessions) != fmt.Sprint(want.Sessions) {
		return 1, fmt.Sprintf("sessions %v, expected %v", res.Sessions, want.Sessions)
	}
	return 0, ""
}
