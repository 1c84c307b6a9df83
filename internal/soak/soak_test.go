package soak

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"psbox"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// scenario is a small traced system with one busy app: enough engine
// activity that systems built from different seeds differ in state.
func scenario(seed uint64) *psbox.System {
	sys := psbox.NewMobile(seed)
	sys.EnableTracing()
	app := sys.Kernel.NewApp("work")
	app.Spawn("loop", 0, psbox.Loop(
		psbox.Compute{Cycles: 1e6},
		psbox.Sleep{D: 3 * psbox.Millisecond},
	))
	return sys
}

func ms(n int64) sim.Time { return sim.Time(n * int64(sim.Millisecond)) }

// quantum is the step TestArm's runs advance by. A resumed run must cut
// its Runs where the run that saved the checkpoint did: each Run ends
// with an invariant sweep whose cursors are part of the checkpoint.
const quantum = 5 * sim.Millisecond

// checkpointAt runs the seed's scenario, armed every 10 ms with nothing
// to resume, to at and returns the checkpoint saved there.
func checkpointAt(t *testing.T, seed uint64, at sim.Time) *Checkpoint {
	t.Helper()
	sys := scenario(seed)
	tape := Arm(sys, 10*sim.Millisecond, 50*sim.Millisecond, nil)
	for sys.Now() < at {
		sys.Run(quantum)
	}
	if tape.Latest == nil || tape.Latest.At != at {
		t.Fatalf("seed %d: no checkpoint saved at %v: %+v", seed, at, tape.Latest)
	}
	return tape.Latest
}

// TestArm pins the cadence and the save-or-verify rule: which instants
// are armed, which of them save, and what the tape says about the resume.
func TestArm(t *testing.T) {
	cadence := []sim.Time{ms(10), ms(20), ms(30), ms(40), ms(50)}
	tests := []struct {
		name         string
		every        sim.Duration
		resume       *Checkpoint
		wantInstants []sim.Time
		wantSaves    []sim.Time
		wantRestored bool
		wantErr      bool
	}{
		{
			name: "nil resume saves at every instant through until", every: 10 * sim.Millisecond,
			wantInstants: cadence, wantSaves: cadence,
		},
		{
			name: "verifies at resume.At and saves after", every: 10 * sim.Millisecond,
			resume:       checkpointAt(t, 7, ms(20)),
			wantInstants: cadence, wantSaves: cadence[2:], wantRestored: true,
		},
		{
			name: "checkpoint from another seed fails verification", every: 10 * sim.Millisecond,
			resume:       checkpointAt(t, 8, ms(20)),
			wantInstants: cadence, wantSaves: cadence[2:], wantRestored: true, wantErr: true,
		},
		{
			name: "resume.At off the cadence is never reached", every: 10 * sim.Millisecond,
			resume:       &Checkpoint{At: ms(25), Bytes: checkpointAt(t, 7, ms(20)).Bytes},
			wantInstants: cadence, wantSaves: cadence[2:],
		},
		{
			name: "non-positive every arms nothing", every: 0,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			sys := scenario(7)
			tape := Arm(sys, tc.every, 50*sim.Millisecond, tc.resume)
			// Step past until, noting each new save.
			var saves []sim.Time
			var last *Checkpoint
			for sys.Now() < ms(60) {
				sys.Run(quantum)
				if tape.Latest != last {
					last = tape.Latest
					saves = append(saves, last.At)
				}
			}
			var instants []sim.Time
			for _, e := range sys.Trace.Events() {
				if e.Cat == obs.CatCkpt {
					instants = append(instants, e.T)
				}
			}
			if !slices.Equal(instants, tc.wantInstants) {
				t.Errorf("checkpoint instants %v, want %v", instants, tc.wantInstants)
			}
			if !slices.Equal(saves, tc.wantSaves) {
				t.Errorf("saves at %v, want %v", saves, tc.wantSaves)
			}
			if tape.Restored != tc.wantRestored {
				t.Errorf("Restored = %v, want %v", tape.Restored, tc.wantRestored)
			}
			if (tape.Err != nil) != tc.wantErr {
				t.Errorf("Err = %v, want error: %v", tape.Err, tc.wantErr)
			}
		})
	}
}

// TestCrashExitCodes drives every verdict class through the scenario
// function Crash is given: restore failure when the resumed builds use
// another seed, divergence when the report changes after the golden run,
// and both at once, where restore failure must win the exit code.
func TestCrashExitCodes(t *testing.T) {
	const horizon = 100 * sim.Millisecond
	tests := []struct {
		name      string
		every     sim.Duration
		otherSeed bool // resumed builds use another seed
		drift     bool // the report changes after the golden run
		want      int
		wantOut   []string
		wantNot   []string
	}{
		{
			name: "ok", every: horizon / 10, want: ExitOK,
			wantOut: []string{
				"== crash at 25% ==\ncheckpoint at 20 ms",
				"== crash at 50% ==\ncheckpoint at 50 ms",
				"== crash at 75% ==\ncheckpoint at 70 ms",
				"restore verified\nresumed report identical to golden",
				"\nverdict: ok\n",
			},
			wantNot: []string{"FAIL"},
		},
		{
			name: "restore failure", every: horizon / 10, otherSeed: true, want: ExitRestore,
			wantOut: []string{"FAIL: restore verification", "\nverdict: FAIL\n"},
			wantNot: []string{"report diverges", "restore verified"},
		},
		{
			name: "no checkpoint before the crash point", every: 30 * sim.Millisecond, want: ExitRestore,
			wantOut: []string{"== crash at 25% ==\nFAIL: no checkpoint before the crash point", "checkpoint at 60 ms"},
			wantNot: []string{"report diverges"},
		},
		{
			name: "divergence", every: horizon / 10, drift: true, want: ExitDivergence,
			wantOut: []string{
				"FAIL: resumed report diverges from golden:\n  line 2:\n  - \n  + drift\n",
				"\nverdict: FAIL\n",
			},
			wantNot: []string{"FAIL: restore", "identical to golden"},
		},
		{
			name: "restore failure outranks divergence", every: horizon / 10, otherSeed: true, drift: true, want: ExitRestore,
			wantOut: []string{"FAIL: restore verification", "FAIL: resumed report diverges from golden"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			builds := 0
			build := func() Run {
				builds++
				golden := builds == 1
				// After the golden run, builds alternate crashed, resumed.
				resumed := !golden && builds%2 == 1
				seed := uint64(7)
				if tc.otherSeed && resumed {
					seed = 8
				}
				sys := scenario(seed)
				return Run{Sys: sys, Report: func() string {
					r := fmt.Sprintf("now=%v\n", sys.Now())
					if tc.drift && !golden {
						r += "drift\n"
					}
					return r
				}}
			}
			var b strings.Builder
			v, ckpts := Crash(&b, t.TempDir(), horizon, tc.every, build)
			got := v.Finish(&b)
			out := b.String()
			if got != tc.want {
				t.Errorf("exit code = %d, want %d\n%s", got, tc.want, out)
			}
			for _, s := range tc.wantOut {
				if !strings.Contains(out, s) {
					t.Errorf("transcript missing %q:\n%s", s, out)
				}
			}
			for _, s := range tc.wantNot {
				if strings.Contains(out, s) {
					t.Errorf("transcript has %q:\n%s", s, out)
				}
			}
			if len(ckpts) != len(crashPoints) {
				t.Errorf("%d checkpoints for %d crash points", len(ckpts), len(crashPoints))
			}
			if tc.name == "ok" {
				if builds != 1+2*len(crashPoints) {
					t.Errorf("%d builds, want %d", builds, 1+2*len(crashPoints))
				}
				for i, want := range []sim.Time{ms(20), ms(50), ms(70)} {
					if ckpts[i] == nil || ckpts[i].At != want {
						t.Errorf("crash point %d: checkpoint %+v, want one at %v", i, ckpts[i], want)
					}
				}
			}
		})
	}
}

// TestVerdictCode pins the precedence fold directly.
func TestVerdictCode(t *testing.T) {
	for _, tc := range []struct {
		v    Verdict
		want int
	}{
		{Verdict{}, ExitOK},
		{Verdict{Diverged: true}, ExitDivergence},
		{Verdict{RestoreFail: true}, ExitRestore},
		{Verdict{RestoreFail: true, Diverged: true}, ExitRestore},
	} {
		if got := tc.v.Code(); got != tc.want {
			t.Errorf("%+v.Code() = %d, want %d", tc.v, got, tc.want)
		}
	}
}
