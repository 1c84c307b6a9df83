package psbox_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"psbox"
	"psbox/internal/daemon"
	"psbox/internal/sandbox"
	"psbox/internal/snapshot"
)

// buildFullSystem builds a Mobile system that carries every optional
// checkpoint section: the session manager (one boxed session), the energy
// profiler, and a render-server daemon registered as an extra
// snapshotter. On top of that the restore-equivalence scenario's fault,
// watchdog and periodic audit run, so the fault and invariant sections
// hold live state too.
func buildFullSystem(seed uint64) *psbox.System {
	horizon := 300 * psbox.Millisecond
	sys := buildCrashSystem(seed, horizon, "nic-flap", nil)
	sys.EnableProfiling()

	srv := daemon.NewRenderServer(sys.Kernel, "gpu", 1, true)
	client := sys.Kernel.NewApp("client")
	client.Spawn("render", 0, srv.Client(client, "tile", 4000, 0.5, 10*psbox.Millisecond))
	sys.RegisterSnapshotter("daemon/renderd", srv)

	mgr := sys.Sandboxes()
	mgr.SetConfig(sandbox.DefaultConfig(6))
	if _, err := mgr.Launch(sandbox.Spec{
		Name:    "worker",
		BudgetW: 1.5,
		Start: func(app *psbox.App) {
			app.Spawn("work", 0, psbox.Loop(
				psbox.Compute{Cycles: 4e5},
				psbox.Sleep{D: 5 * psbox.Millisecond},
			))
		},
	}); err != nil {
		panic(err)
	}
	return sys
}

// runFull drives a full system to at and folds the profile, so the
// profiler section holds folded windows.
func runFull(sys *psbox.System, at psbox.Duration) {
	sys.Run(at - psbox.Duration(sys.Now()))
	sys.FoldProfile()
}

// TestCheckpointWireFormatPinned pins the checkpoint bytes of a fixed
// seeded scenario at two instants. Soak and fleet goldens print sizes and
// CRC verdicts, not contents, so a change that alters checkpoint bytes
// consistently within one build passes them; this test does not. A
// deliberate wire-format change bumps snapshot.Version and re-records the
// digests below.
func TestCheckpointWireFormatPinned(t *testing.T) {
	want := []struct {
		at     psbox.Duration
		digest string
	}{
		{120 * psbox.Millisecond, "a721dfdeffd6153d3d3ce058ed8cbe593161a15cf04b370005272f829618057b"},
		{250 * psbox.Millisecond, "7cf23688da170f6746252783789fb1a457787b4b821a1e6bf0ddb99f3e8095c6"},
	}
	if snapshot.Version != 1 {
		t.Fatalf("snapshot.Version = %d; the pinned digests are for version 1", snapshot.Version)
	}
	sys := buildFullSystem(42)
	for _, w := range want {
		runFull(sys, w.at)
		sum := sha256.Sum256(sys.Snapshot())
		if got := hex.EncodeToString(sum[:]); got != w.digest {
			t.Errorf("checkpoint at %v: sha256 %s, want %s", w.at, got, w.digest)
		}
	}
}

// TestRestoreVerifiesEverySection corrupts each section of a real
// System's checkpoint in turn — one payload byte flipped, CRC resealed so
// the framing gate passes — and requires Restore to reject it with an
// error naming that section. No layer may accept a payload it did not
// produce.
func TestRestoreVerifiesEverySection(t *testing.T) {
	sys := buildFullSystem(7)
	runFull(sys, 150*psbox.Millisecond)
	ckpt := sys.Snapshot()
	if err := sys.Restore(ckpt); err != nil {
		t.Fatalf("untouched checkpoint rejected: %v", err)
	}
	secs, err := snapshot.Parse(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, s := range secs {
		labels = append(labels, s.Label)
	}
	for _, need := range []string{"sim", "hw/cpu", "hw/gpu", "hw/dsp", "hw/wifi", "hw/display", "hw/gps",
		"hw/dram", "kernel", "kernel/sched", "kernel/accel/gpu", "kernel/accel/dsp", "kernel/net", "meter",
		"core", "core/invariants", "faults", "obs", "obs/profile", "account", "sandbox", "daemon/renderd"} {
		if !slices.Contains(labels, need) {
			t.Fatalf("checkpoint lacks section %q; has %v", need, labels)
		}
	}

	off := len(snapshot.Magic) + 2 + 4
	for _, s := range secs {
		off += 4 + len(s.Label) + 4
		if len(s.Payload) == 0 {
			t.Errorf("section %q has an empty payload; nothing to corrupt", s.Label)
			continue
		}
		bad := append([]byte(nil), ckpt...)
		bad[off+len(s.Payload)/2] ^= 0x01
		body := bad[:len(bad)-4]
		binary.BigEndian.PutUint32(bad[len(body):], crc32.ChecksumIEEE(body))
		err := sys.Restore(bad)
		switch {
		case err == nil:
			t.Errorf("section %q: corrupted payload restored", s.Label)
		case !strings.Contains(err.Error(), "section \""+s.Label+"\""):
			t.Errorf("section %q: error does not name the section: %v", s.Label, err)
		}
		off += len(s.Payload)
	}
	if off != len(ckpt)-4 {
		t.Fatalf("walked %d framed bytes, checkpoint body is %d", off, len(ckpt)-4)
	}
	if err := sys.Restore(ckpt); err != nil {
		t.Fatalf("untouched checkpoint rejected after the corruption pass: %v", err)
	}
}
