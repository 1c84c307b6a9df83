// Package snapshotdrift holds fixtures for the snapshotdrift analyzer:
// per-method checkpoint coverage, where snapshotstate's whole-file
// granularity is not enough.
package snapshotdrift

import "psbox/internal/snapshot"

// Sub carries its own snapshot method; fields of this type elsewhere are
// covered by delegation and stay exempt.
type Sub struct {
	count uint64
}

func (s *Sub) Snapshot(enc *snapshot.Encoder) { enc.U64(s.count) }

// Twin is the shape used throughout the simulator: Snapshot encodes every
// stateful field (the checkpoint registry verifies a restore by re-running
// it), so the type is clean.
type Twin struct {
	id    int64
	name  string
	sub   *Sub      // delegated
	hook  func(int) // wiring
	limit int       `psbox:"config"`

	//psbox:allow-snapshotstate construction-time wiring, rebuilt by replay
	cfg struct{ budget int }
}

func (t *Twin) Snapshot(enc *snapshot.Encoder) {
	enc.I64(t.id)
	enc.Str(t.name)
	t.sub.Snapshot(enc)
}

// Drifted is exactly the gap snapshotstate cannot see: the skew field is
// referenced by a helper in this file, so the whole-file check passes,
// but the Snapshot method itself never encodes it — the checkpoint is
// missing the state.
type Drifted struct {
	kept int64
	skew int64 // want `field skew of snapshotted struct Drifted is not encoded by its Encoder-taking methods`
}

func (d *Drifted) Snapshot(enc *snapshot.Encoder) {
	enc.I64(d.kept)
}

// touchSkew references the drifted field outside the snapshot methods;
// it must not count as coverage.
func touchSkew(d *Drifted) int64 { return d.skew }

// Helper coverage: an Encoder-taking helper method participates in the
// encoding side, so fields it covers are complete even though the
// entry-point Snapshot never mentions them.
type Chunked struct {
	head uint64
	tail uint64
}

func (c *Chunked) Snapshot(enc *snapshot.Encoder) {
	enc.U64(c.head)
	c.snapshotTail(enc)
}

func (c *Chunked) snapshotTail(enc *snapshot.Encoder) {
	enc.U64(c.tail)
}

// Waived: a reasoned snapshotdrift directive silences the finding
// without touching the snapshotstate waiver.
type Waived struct {
	kept int64
	//psbox:allow-snapshotdrift derived cache, rebuilt on first use after restore
	cache int64
}

func (w *Waived) Snapshot(enc *snapshot.Encoder) {
	enc.I64(w.kept)
}

// Plain has no snapshot methods: nothing to check.
type Plain struct {
	anything int
}
