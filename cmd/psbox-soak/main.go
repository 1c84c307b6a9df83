//psbox:allow-noconcurrency the hung-run watchdog runs the soak in a goroutine and races it against a wall-clock deadline; the simulation itself stays single-threaded

// Command psbox-soak is the crash-and-resume soak harness: it runs the
// canonical fault scenario under periodic checkpointing, kills the run at
// seeded crash points (25/50/75% of the horizon), restores from the last
// checkpoint (rebuild + deterministic replay + byte-verification, the
// replay-twin contract of internal/snapshot), runs each resumed copy to
// the horizon, and byte-compares its final report against the
// uninterrupted golden run's. That protocol is internal/soak's Crash; this
// command adds the scenario, its report, and two restored replicas run in
// lockstep, comparing full system snapshots every quantum and reporting
// the first divergence.
//
// All output is deterministic for a (seed, ms) pair; the CI soak job
// diffs it against the goldens under testdata/.
//
// Usage:
//
//	psbox-soak [-seed N] [-ms D] [-timeout D]
//
// Exit status distinguishes the failure classes so CI and the fleet
// supervisor can react without parsing the transcript:
//
//	0  every resumed report matched the golden and the replicas stayed in
//	   lockstep
//	1  divergence: a resumed report or a lockstep replica deviated from
//	   the golden run
//	2  restore failure: a checkpoint was missing, unreadable, or failed
//	   replay verification (takes precedence over divergence)
//	3  timeout: the soak produced no verdict within -timeout wall time
//	   and is presumed hung
//	4  usage error
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"psbox"
	"psbox/internal/faults"
	"psbox/internal/obs"
	"psbox/internal/sim"
	"psbox/internal/snapshot"
	"psbox/internal/soak"
)

// Exit codes beyond the shared soak.Exit* classes (0 ok, 1 divergence,
// 2 restore failure).
const (
	exitTimeout = 3
	exitUsage   = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psbox-soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 42, "simulation seed")
	ms := fs.Int64("ms", 2000, "simulated duration in milliseconds")
	timeout := fs.Duration("timeout", 0, "hung-run watchdog: wall time to a verdict before exiting 3 (0 disables)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *ms <= 0 {
		fmt.Fprintln(stderr, "psbox-soak: -ms must be positive")
		return exitUsage
	}

	// The checkpoint dir belongs to run, not to the soak goroutine, so it
	// is removed on the timeout path too, where that goroutine is
	// abandoned still running.
	dir, err := os.MkdirTemp("", "psbox-soak-")
	if err != nil {
		fmt.Fprintf(stderr, "psbox-soak: checkpoint scratch dir: %v\n", err)
		return soak.ExitRestore
	}
	defer os.RemoveAll(dir)

	type verdict struct {
		out  string
		code int
	}
	// The watchdog races the soak against the deadline. The soak goroutine
	// owns a private System and the buffered channel lets it finish and be
	// collected even after the watchdog has given up on it.
	done := make(chan verdict, 1)
	go func() {
		out, code := soakRun(*seed, *ms, dir)
		done <- verdict{out, code}
	}()
	var deadline <-chan time.Time
	if *timeout > 0 {
		deadline = time.After(*timeout)
	}
	select {
	case v := <-done:
		fmt.Fprint(stdout, v.out)
		return v.code
	case <-deadline:
		fmt.Fprintf(stderr, "psbox-soak: no verdict after %v; run presumed hung\n", *timeout)
		return exitTimeout
	}
}

// build constructs the soak scenario: the psbox-faults scenario plus a
// periodic invariant audit. Callers arm the checkpoint cadence
// (soak.Arm) after building, before any Run.
func build(seed uint64, horizon sim.Duration) *psbox.System {
	sys := psbox.NewMobile(seed)
	sys.EnableTracing()
	sys.EnableAccelWatchdogs(psbox.DefaultWatchdogConfig())

	vision := sys.Kernel.NewApp("vision")
	vision.Spawn("render", 0, psbox.Loop(
		psbox.Compute{Cycles: 2e6},
		psbox.SubmitAccel{Dev: "gpu", Kind: "frame", Work: 3e4, DynW: 0.9},
		psbox.AwaitAccel{Dev: "gpu", MaxBacklog: 2},
		psbox.Sleep{D: 4 * psbox.Millisecond},
	))
	sys.Sandbox.MustCreate(vision, psbox.HWCPU, psbox.HWGPU).Enter()

	stream := sys.Kernel.NewApp("stream")
	sock := stream.OpenSocket()
	stream.Spawn("uplink", 1, psbox.Loop(
		psbox.Compute{Cycles: 8e5},
		psbox.Send{Socket: sock, Bytes: 24_000},
		psbox.AwaitNet{MaxBacklog: 48_000},
		psbox.Sleep{D: 6 * psbox.Millisecond},
	))
	sys.Sandbox.MustCreate(stream, psbox.HWCPU, psbox.HWWiFi).Enter()

	noise := sys.Kernel.NewApp("noise")
	noise.Spawn("grind", 1, psbox.Loop(
		psbox.Compute{Cycles: 3e6},
		psbox.SubmitAccel{Dev: "dsp", Kind: "fft", Work: 4e4, DynW: 0.5},
		psbox.Sleep{D: 9 * psbox.Millisecond},
	))

	at := func(frac float64) psbox.Time { return psbox.Time(float64(horizon) * frac) }
	sys.Faults.HangAccelAt(at(0.10), "gpu")
	sys.Faults.FlapLinkAt(at(0.25), "wifi", 15*psbox.Millisecond)
	sys.Faults.StallDVFSAt(at(0.40), "cpu", 25*psbox.Millisecond)
	sys.Faults.DropMeterAt(at(0.55), "gpu", 30*psbox.Millisecond)
	sys.Faults.Randomize(faults.Campaign{
		Horizon:       horizon,
		AccelHangs:    2,
		NICFlaps:      2,
		DVFSStalls:    2,
		MeterDropouts: 3,
	})

	sys.SetAuditEvery(horizon / 20)
	return sys
}

// report renders the scenario's final state: fault log, recovery
// counters, observations, and the audit count.
func report(sys *psbox.System) string {
	var b strings.Builder
	fmt.Fprintln(&b, "-- fault log --")
	b.WriteString(sys.Faults.FormatLog())
	fmt.Fprintln(&b, "-- recovery --")
	for _, name := range sys.Kernel.AccelNames() {
		d := sys.Kernel.Accel(name)
		fmt.Fprintf(&b, "%-6s watchdog resets=%d resubmits=%d dropped=%d\n",
			name, d.WatchdogResets(), d.Resubmits(), d.DroppedCommands())
	}
	fmt.Fprintf(&b, "net    flaps=%d retries=%d\n",
		sys.Kernel.Net().NIC().Flaps(), sys.Kernel.Net().LinkRetries())
	fmt.Fprintln(&b, "-- observations --")
	for _, bx := range sys.Sandbox.Boxes() {
		direct, est, gaps := bx.ReadDetail()
		fmt.Fprintf(&b, "%-10s read=%.9f J direct=%.9f J estimated=%.9f J gaps=%d degraded=%v\n",
			bx.App().Name, direct+est, direct, est, gaps, bx.Degraded())
	}
	fmt.Fprintf(&b, "battery=%.9f J audits=%d\n",
		sys.Meter.Energy("battery", 0, sys.Now()), sys.Audits())
	fmt.Fprintln(&b, "-- trace --")
	fmt.Fprintf(&b, "events=%d retained=%d dropped=%d\n",
		sys.Trace.Total(), sys.Trace.Len(), sys.Trace.Dropped())
	if dr := sys.Trace.Dropped(); dr > 0 {
		fmt.Fprintf(&b, "WARNING: trace ring dropped %d events (oldest first); raise the bus capacity to keep them\n", dr)
	}
	d := sys.Trace.Dump()
	for _, format := range []string{"perfetto", "csv", "ascii"} {
		enc, err := obs.EncoderFor(format)
		if err != nil {
			panic(err)
		}
		h := sha256.New()
		if err := enc.Encode(h, d); err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "%-8s sha256=%x\n", format, h.Sum(nil)[:8])
	}
	h := sha256.New()
	if err := sys.Trace.WriteMetrics(h); err != nil {
		panic(err)
	}
	fmt.Fprintf(&b, "%-8s sha256=%x\n", "metrics", h.Sum(nil)[:8])
	return b.String()
}

// soakRun runs the full crash-and-resume protocol, checkpointing into
// dir, then the lockstep replicas, and renders its deterministic
// transcript plus the exit code for what it found.
func soakRun(seed uint64, ms int64, dir string) (string, int) {
	horizon := sim.Duration(ms) * psbox.Millisecond
	var b strings.Builder
	fmt.Fprintf(&b, "psbox-soak seed=%d ms=%d checkpoints=every %d ms\n\n", seed, ms, ms/10)

	v, ckpts := soak.Crash(&b, dir, horizon, horizon/10, func() soak.Run {
		sys := build(seed, horizon)
		return soak.Run{Sys: sys, Report: func() string { return report(sys) }}
	})

	if mid := ckpts[1]; mid != nil { // the 50% checkpoint
		fmt.Fprintln(&b, "\n== lockstep replicas ==")
		lockstep(&b, &v, seed, horizon, mid)
	}
	code := v.Finish(&b)
	return b.String(), code
}

// lockstep resumes two replicas from the checkpoint and steps them to the
// horizon in fixed quanta, comparing full system snapshots after every
// step — the detector the soak arms against nondeterminism that
// per-report comparison could smear over. It writes its finding to w and
// folds it into v: a replica that cannot verify the checkpoint is a
// restore failure, the first diverging snapshot section a divergence.
func lockstep(w io.Writer, v *soak.Verdict, seed uint64, horizon sim.Duration, ckpt *soak.Checkpoint) {
	replicas := [2]*psbox.System{}
	for i := range replicas {
		sys := build(seed, horizon)
		tape := soak.Arm(sys, horizon/10, horizon, ckpt)
		sys.Run(sim.Duration(int64(ckpt.At)))
		if tape.Err != nil {
			fmt.Fprintf(w, "FAIL: lockstep replica %d restore: %v\n", i, tape.Err)
			v.RestoreFail = true
			return
		}
		replicas[i] = sys
	}
	quantum := horizon / 50
	steps := 0
	for replicas[0].Now() < psbox.Time(int64(horizon)) {
		for _, r := range replicas {
			r.Run(quantum)
		}
		steps++
		a, c := replicas[0].Snapshot(), replicas[1].Snapshot()
		if d := snapshot.Diff(a, c); d != "" {
			fmt.Fprintf(w, "FAIL: replicas diverged at %v (step %d): %s\n", replicas[0].Now(), steps, d)
			v.Diverged = true
			return
		}
	}
	fmt.Fprintf(w, "two replicas resumed at %d ms, stepped %d quanta to the horizon: no divergence\n",
		int64(ckpt.At)/int64(psbox.Millisecond), steps)
}
