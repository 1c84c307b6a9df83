// Package snapshotstate holds fixtures for the snapshotstate analyzer.
package snapshotstate

import "psbox/internal/snapshot"

// Delegate carries its own snapshot method; fields of this type in other
// snapshotted structs are covered by delegation.
type Delegate struct {
	count uint64
}

func (d *Delegate) Snapshot(enc *snapshot.Encoder) { enc.U64(d.count) }

// Machine is snapshotted (a Snapshot method with an Encoder param).
type Machine struct {
	id      int64
	name    string
	skipped uint64 // want `field skipped of snapshotted struct Machine is not referenced`

	hook func(int) // func-typed: wiring, exempt

	sub   *Delegate            // delegated, exempt
	table map[string]*Delegate // delegated through the map value, exempt

	//psbox:allow-snapshotstate construction-time wiring, rebuilt by replay
	cfg struct{ limit int }

	missing int64 // want `field missing of snapshotted struct Machine is not referenced`
}

func (m *Machine) Snapshot(enc *snapshot.Encoder) {
	enc.I64(m.id)
	enc.Str(m.name)
	m.sub.Snapshot(enc)
}

// helper is part of the snapshot machinery because it lives in the same
// file: fields it references count as covered.
func helper(enc *snapshot.Encoder, m *Machine) {
	for k := range m.table {
		enc.Str(k)
	}
}

// lowercase is detected through an unexported method with an Encoder
// parameter — the method name does not matter, only the signature.
type lowercase struct {
	kept    int64
	dropped int64 // want `field dropped of snapshotted struct lowercase is not referenced`
}

func (l *lowercase) encode(enc *snapshot.Encoder) {
	enc.I64(l.kept)
}

// Plain has no snapshot methods: not snapshotted, nothing to report.
type Plain struct {
	anything int
	whatever func()
}
