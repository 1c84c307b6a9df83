//psbox:allow-noconcurrency exit-code tests drive the watchdog path, which is concurrent by design
//psbox:allow-nowallclock the timeout table entry needs a real wall-clock deadline to trip the watchdog

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psbox"
	"psbox/internal/soak"
)

// TestExitCodes tables the exit statuses this command owns. The
// divergence and restore-failure classes, and their precedence, are the
// shared harness's and are tabled in internal/soak.
func TestExitCodes(t *testing.T) {
	tests := []struct {
		name       string
		args       []string
		want       int
		wantStdout string // "" skips the check
		wantStderr string
	}{
		{
			name: "ok", args: []string{"-seed", "7", "-ms", "100"},
			want: soak.ExitOK, wantStdout: "verdict: ok",
		},
		{
			name: "timeout", args: []string{"-seed", "7", "-ms", "60000", "-timeout", "50ms"},
			want: exitTimeout, wantStderr: "no verdict after 50ms; run presumed hung",
		},
		{
			name: "usage: bad flag", args: []string{"-no-such-flag"},
			want: exitUsage,
		},
		{
			name: "usage: non-positive horizon", args: []string{"-ms", "0"},
			want: exitUsage, wantStderr: "-ms must be positive",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("exit code = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					got, tc.want, stdout.String(), stderr.String())
			}
			if tc.wantStdout != "" && !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Errorf("stdout missing %q:\n%s", tc.wantStdout, stdout.String())
			}
			if tc.wantStderr != "" && !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantStderr, stderr.String())
			}
			// The checkpoint dir is gone once run returns, on the timeout
			// path too, where the soak goroutine is still running.
			if left, _ := filepath.Glob(filepath.Join(tmp, "psbox-soak-*")); len(left) > 0 {
				entries, _ := os.ReadDir(left[0])
				t.Errorf("checkpoint dir left behind: %v (%d entries)", left, len(entries))
			}
		})
	}
}

// TestLockstepRestoreFailure: a lockstep replica that cannot verify its
// checkpoint is a restore failure, not a divergence.
func TestLockstepRestoreFailure(t *testing.T) {
	horizon := 100 * psbox.Millisecond
	other := build(8, horizon)
	tape := soak.Arm(other, horizon/10, horizon, nil)
	other.Run(horizon / 2)

	var b strings.Builder
	var v soak.Verdict
	lockstep(&b, &v, 7, horizon, tape.Latest)
	if v != (soak.Verdict{RestoreFail: true}) || !strings.Contains(b.String(), "FAIL: lockstep replica 0 restore:") {
		t.Errorf("lockstep from another seed's checkpoint: verdict %+v, transcript:\n%s", v, b.String())
	}
}
