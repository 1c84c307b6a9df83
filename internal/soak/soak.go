// Package soak is the crash/restore/compare harness, the one place the
// checkpoint protocol lives. Arm schedules a run's checkpoint cadence
// together with the save-or-verify rule; Crash drives the kill → file
// round-trip → resume → byte-compare loop over a scenario. psbox-soak,
// psbox-flood -soak and the fleet supervisor's shard attempts all run
// through it.
package soak

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"psbox"
	"psbox/internal/obs"
	"psbox/internal/sim"
	"psbox/internal/snapshot"
)

// Exit codes shared by the soak-style tools, so CI and the fleet
// supervisor can triage any of them without parsing a transcript.
const (
	ExitOK         = 0
	ExitDivergence = 1 // a resumed report or replica deviated from the golden run
	ExitRestore    = 2 // a checkpoint was missing, unreadable, or failed replay verification
)

// Checkpoint is one saved PSBX checkpoint: the canonical bytes and the
// sim instant they were taken at.
type Checkpoint struct {
	At    sim.Time
	Bytes []byte
}

// Tape is what an armed run's checkpoint events recorded.
type Tape struct {
	Latest   *Checkpoint // newest checkpoint saved; nil if none yet
	Restored bool        // the event at resume.At ran its verification
	Err      error       // that verification's failure, nil if it passed
}

// Arm schedules checkpoint events on sys at every, 2·every, … ≤ until.
// Each event emits the obs.CatCkpt trace instant. With a resume
// checkpoint, the event at resume.At verifies the live state against it
// through System.Restore (the replay-twin contract) and every later event
// saves; with nil resume every event saves.
//
// Arm runs after the scenario is built and before any Run, so every run
// of a scenario allocates the same engine events and emits the same
// trace; only what the events do with the state differs. Verification
// happens inside the event because Run's end-of-run invariant sweep
// would move the checker's cursors past a mid-run capture. A
// non-positive every arms nothing.
func Arm(sys *psbox.System, every, until sim.Duration, resume *Checkpoint) *Tape {
	tape := &Tape{}
	if every <= 0 {
		return tape
	}
	for at := sim.Time(int64(every)); at <= sim.Time(int64(until)); at = at.Add(every) {
		sys.Eng.At(at, func(sim.Time) {
			sys.Trace.Instant(obs.CatCkpt, "checkpoint", 0, int64(at), "", "")
			switch {
			case resume != nil && at == resume.At:
				tape.Err = sys.Restore(resume.Bytes)
				tape.Restored = true
			case resume == nil || at > resume.At:
				tape.Latest = &Checkpoint{At: at, Bytes: sys.Snapshot()}
			}
		})
	}
	return tape
}

// Run is one freshly built instance of the scenario under test: the
// System the harness arms and drives, and the report rendering its final
// state for byte comparison.
type Run struct {
	Sys    *psbox.System
	Report func() string
}

// Verdict is what a soak found.
type Verdict struct {
	RestoreFail bool // a checkpoint was missing, unreadable, or failed verification
	Diverged    bool // a resumed report or replica deviated from the golden run
}

// Code folds the two failure classes into one exit code; restore
// failures win because they invalidate the comparison divergence is
// judged by.
func (v Verdict) Code() int {
	switch {
	case v.RestoreFail:
		return ExitRestore
	case v.Diverged:
		return ExitDivergence
	default:
		return ExitOK
	}
}

// Finish writes the transcript's closing verdict line and returns the
// exit code.
func (v Verdict) Finish(w io.Writer) int {
	code := v.Code()
	verdict := "ok"
	if code != ExitOK {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "\nverdict: %s\n", verdict)
	return code
}

// crashPoints are the fractions of the horizon at which Crash kills a run.
var crashPoints = [...]float64{0.25, 0.50, 0.75}

// Crash runs the crash-and-resume protocol over a scenario and writes its
// deterministic transcript to w. build is called once for the golden run,
// then twice per crash point (25/50/75% of the horizon): for the crashed
// run, then for the resumed one. Each run is armed with the cadence every.
// The crashed run's last checkpoint round-trips through a CRC-validated
// file in dir; the resumed run verifies it, runs to the horizon, and must
// report byte-for-byte what the golden run did. Crash returns its verdict and,
// per crash point, the checkpoint read back (nil where there was none).
// The caller owns dir and removes it.
func Crash(w io.Writer, dir string, horizon, every sim.Duration, build func() Run) (Verdict, []*Checkpoint) {
	golden := build()
	Arm(golden.Sys, every, horizon, nil)
	golden.Sys.Run(horizon)
	want := golden.Report()
	fmt.Fprintln(w, "== golden ==")
	io.WriteString(w, want)

	var v Verdict
	ckpts := make([]*Checkpoint, len(crashPoints))
	for i, frac := range crashPoints {
		pct := int(frac * 100)
		fmt.Fprintf(w, "\n== crash at %d%% ==\n", pct)
		ckpt, err := kill(build(), horizon, every, frac, filepath.Join(dir, fmt.Sprintf("ckpt-%d.psbx", pct)))
		if err != nil {
			fmt.Fprintf(w, "FAIL: %v\n", err)
			v.RestoreFail = true
			continue
		}
		fmt.Fprintf(w, "checkpoint at %d ms (%d bytes, crc ok)\n",
			int64(ckpt.At)/int64(sim.Millisecond), len(ckpt.Bytes))

		resumed := build()
		tape := Arm(resumed.Sys, every, horizon, ckpt)
		resumed.Sys.Run(horizon)
		switch {
		case !tape.Restored:
			fmt.Fprintln(w, "FAIL: resume never reached the checkpoint instant")
			v.RestoreFail = true
		case tape.Err != nil:
			fmt.Fprintf(w, "FAIL: restore verification: %v\n", tape.Err)
			v.RestoreFail = true
		default:
			fmt.Fprintln(w, "restore verified")
		}
		if got := resumed.Report(); got != want {
			fmt.Fprintln(w, "FAIL: resumed report diverges from golden:")
			io.WriteString(w, diffLines(want, got))
			v.Diverged = true
		} else {
			fmt.Fprintln(w, "resumed report identical to golden")
		}
		ckpts[i] = ckpt
	}
	return v, ckpts
}

// kill runs a crashed copy of the scenario to frac of the horizon and
// returns its last checkpoint as read back from a file at path, so the
// resume goes through the CRC-validated persistence path.
func kill(crashed Run, horizon, every sim.Duration, frac float64, path string) (*Checkpoint, error) {
	tape := Arm(crashed.Sys, every, horizon, nil)
	crashed.Sys.Run(sim.Duration(float64(horizon) * frac))
	if tape.Latest == nil {
		return nil, fmt.Errorf("no checkpoint before the crash point")
	}
	if err := snapshot.WriteFile(path, tape.Latest.Bytes); err != nil {
		return nil, fmt.Errorf("write checkpoint: %w", err)
	}
	data, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read checkpoint: %w", err)
	}
	return &Checkpoint{At: tape.Latest.At, Bytes: data}, nil
}

// diffLines renders a compact first-divergence view of two reports.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			fmt.Fprintf(&b, "  line %d:\n  - %s\n  + %s\n", i+1, lw, lg)
		}
	}
	return b.String()
}
