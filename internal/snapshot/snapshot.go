// Package snapshot implements psbox's versioned, deterministic
// checkpoint/restore encoding (DESIGN.md §"Checkpoint/restore").
//
// A checkpoint is a canonical byte string: a fixed header (magic "PSBX",
// format version), an ordered list of labelled sections — one per stateful
// layer of the simulated stack — and a CRC-32 trailer over everything
// before it. Every multi-byte integer is big-endian and fixed-width;
// floats are their IEEE-754 bit patterns; strings and byte blobs are
// length-prefixed. Two systems in the same state therefore encode to the
// same bytes, and byte comparison of checkpoints IS state comparison.
//
// Restore follows the replay-twin contract (DESIGN.md): a checkpoint is
// never "applied" to a live system. The caller deterministically rebuilds
// the scenario, replays it to the checkpoint instant, and Registry.Restore
// re-runs each section's Snapshot on the live state and byte-compares it
// against the checkpoint payload, failing loudly at the first divergence.
// Applying state would silently mask replay divergence; verification
// makes the restore guarantee checkable.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"
)

// Magic opens every checkpoint.
const Magic = "PSBX"

// Version is the current wire-format version. Bump on any encoding change;
// Restore rejects checkpoints from other versions.
const Version uint16 = 1

// An Encoder builds one section's canonical payload. Encoders are
// single-goroutine: interleaved appends would scramble the wire format.
//
//psbox:confined
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Data returns the encoded bytes so far.
func (e *Encoder) Data() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a big-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// I64 appends a big-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends 1 or 0.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Len appends a non-negative count as uint32. Collections are always
// count-prefixed; a negative count is a caller bug.
func (e *Encoder) Len(n int) {
	if n < 0 || int64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("snapshot: collection length %d out of range", n))
	}
	e.U32(uint32(n))
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Len(len(s))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.Len(len(b))
	e.buf = append(e.buf, b...)
}

// A Decoder reads one section's payload back. Errors are sticky: after the
// first underflow every further read returns zero values and Err reports
// the failure. Like the Encoder, a Decoder belongs to one goroutine: the
// read cursor and sticky error are unsynchronized.
//
//psbox:confined
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps payload bytes.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err reports the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes are left unread.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 {
		d.err = fmt.Errorf("snapshot: negative length %d at offset %d", n, d.off)
		return nil
	}
	if d.Remaining() < n {
		d.err = fmt.Errorf("snapshot: truncated payload: need %d bytes at offset %d, have %d", n, d.off, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads an IEEE-754 float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a 0/1 byte.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := int(d.U32())
	b := d.take(n)
	return string(b)
}

// Blob reads a length-prefixed byte slice.
func (d *Decoder) Blob() []byte {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// A Snapshotter is one stateful layer: Snapshot writes its canonical
// encoding. Restoring it needs nothing more — the Registry re-runs
// Snapshot on the replay twin and byte-compares the result.
type Snapshotter interface {
	Snapshot(*Encoder)
}

// Verify re-encodes live state with live and byte-compares it against a
// checkpoint payload, reporting the first diverging offset. It is the
// whole of restore: Registry.Restore calls it once per section.
func Verify(want []byte, live func(*Encoder)) error {
	enc := NewEncoder()
	live(enc)
	got := enc.Data()
	if bytes.Equal(want, got) {
		return nil
	}
	off := firstDiff(want, got)
	return fmt.Errorf("live state diverges from checkpoint at byte %d (checkpoint %d bytes, live %d bytes)",
		off, len(want), len(got))
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

type section struct {
	label string
	snap  func(*Encoder)
}

// A Registry is the ordered list of a system's stateful layers. The
// registration order is part of the wire format: Checkpoint emits sections
// in it, and Restore requires the checkpoint's section list to match it
// exactly.
type Registry struct {
	secs   []section
	labels map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{labels: make(map[string]bool)} }

// Add registers one layer's Snapshot function under a unique label.
func (r *Registry) Add(label string, snap func(*Encoder)) {
	if r.labels[label] {
		panic(fmt.Sprintf("snapshot: duplicate section label %q", label))
	}
	r.labels[label] = true
	r.secs = append(r.secs, section{label: label, snap: snap})
}

// Labels lists the registered section labels in order.
func (r *Registry) Labels() []string {
	out := make([]string, len(r.secs))
	for i, s := range r.secs {
		out[i] = s.label
	}
	return out
}

// Checkpoint encodes every registered section into one framed, checksummed
// checkpoint.
func (r *Registry) Checkpoint() []byte {
	e := NewEncoder()
	e.buf = append(e.buf, Magic...)
	e.U16(Version)
	e.Len(len(r.secs))
	for _, s := range r.secs {
		body := NewEncoder()
		s.snap(body)
		e.Str(s.label)
		e.Blob(body.Data())
	}
	e.U32(crc32.ChecksumIEEE(e.buf))
	return e.Data()
}

// A Section is one decoded checkpoint section.
type Section struct {
	Label   string
	Payload []byte
}

// Parse validates a checkpoint's framing — magic, version, CRC — and
// returns its sections.
func Parse(data []byte) ([]Section, error) {
	if len(data) < len(Magic)+2+4+4 {
		return nil, fmt.Errorf("snapshot: checkpoint too short (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.BigEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("snapshot: CRC mismatch: trailer %08x, computed %08x", got, want)
	}
	d := NewDecoder(body)
	if string(d.take(len(Magic))) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic")
	}
	if v := d.U16(); v != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads version %d", v, Version)
	}
	n := int(d.U32())
	// Every section costs at least 8 framing bytes (the label and payload
	// length prefixes), which bounds how many the remaining body can hold.
	// Checking before the preallocation keeps a hostile count field from
	// sizing an allocation the data could never fill.
	if maxSecs := d.Remaining() / 8; n > maxSecs {
		return nil, fmt.Errorf("snapshot: section count %d exceeds what %d remaining bytes can frame", n, d.Remaining())
	}
	secs := make([]Section, 0, n)
	for i := 0; i < n; i++ {
		label := d.Str()
		payload := d.Blob()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("snapshot: section %d: %w", i, err)
		}
		secs = append(secs, Section{Label: label, Payload: payload})
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after %d sections", d.Remaining(), n)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return secs, nil
}

// Restore checks a checkpoint against the registered layers: framing and
// CRC first, then the section list (labels and order must match the
// registry exactly), then Verify of each layer's live Snapshot against its
// payload.
func (r *Registry) Restore(data []byte) error {
	secs, err := Parse(data)
	if err != nil {
		return err
	}
	if len(secs) != len(r.secs) {
		return fmt.Errorf("snapshot: checkpoint has %d sections, registry has %d", len(secs), len(r.secs))
	}
	for i, s := range secs {
		reg := r.secs[i]
		if s.Label != reg.label {
			return fmt.Errorf("snapshot: section %d is %q, registry expects %q", i, s.Label, reg.label)
		}
		if err := Verify(s.Payload, reg.snap); err != nil {
			return fmt.Errorf("snapshot: section %q: %w", s.Label, err)
		}
	}
	return nil
}

// Diff describes where two checkpoints first diverge, section by section —
// the lockstep divergence detector's failure report. It returns "" when
// the checkpoints are byte-identical.
func Diff(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	sa, errA := Parse(a)
	sb, errB := Parse(b)
	if errA != nil || errB != nil {
		return fmt.Sprintf("checkpoints differ and at least one is unparseable (a: %v, b: %v)", errA, errB)
	}
	labels := make(map[string]bool)
	var order []string
	index := func(secs []Section) map[string][]byte {
		m := make(map[string][]byte)
		for _, s := range secs {
			m[s.Label] = s.Payload
			if !labels[s.Label] {
				labels[s.Label] = true
				order = append(order, s.Label)
			}
		}
		return m
	}
	ma, mb := index(sa), index(sb)
	sort.Strings(order)
	for _, label := range order {
		pa, oka := ma[label]
		pb, okb := mb[label]
		switch {
		case !oka:
			return fmt.Sprintf("section %q present only in second checkpoint", label)
		case !okb:
			return fmt.Sprintf("section %q present only in first checkpoint", label)
		case !bytes.Equal(pa, pb):
			return fmt.Sprintf("section %q diverges at byte %d (%d vs %d bytes)",
				label, firstDiff(pa, pb), len(pa), len(pb))
		}
	}
	return "checkpoints differ only in framing (section order or count)"
}

// WriteFile writes a checkpoint to disk.
func WriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// ReadFile reads a checkpoint back and validates its framing and CRC, so a
// torn or corrupted file is rejected before any restore is attempted.
func ReadFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if _, err := Parse(data); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return data, nil
}
