package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"psbox/internal/sim"
)

// Key identifies one metric series: a name qualified by the owning app
// and the power rail it concerns. Owner 0 / empty rail mean "whole
// system".
type Key struct {
	Name  string
	Owner int
	Rail  string
}

// histBounds are the sim-time histogram bucket upper bounds; a final
// implicit +Inf bucket catches the rest. Latencies in the simulator span
// microseconds (wakeups) to seconds (balloon drains), hence the decades.
var histBounds = []sim.Duration{
	10 * sim.Microsecond,
	100 * sim.Microsecond,
	sim.Millisecond,
	10 * sim.Millisecond,
	100 * sim.Millisecond,
	sim.Second,
}

// histLabels renders the bucket bounds once for reports.
var histLabels = [numBuckets]string{"10us", "100us", "1ms", "10ms", "100ms", "1s", "+inf"}

// numBuckets is len(histBounds) plus the implicit +Inf bucket.
const numBuckets = 7

// Hist is a fixed-bucket histogram over simulated durations.
type Hist struct {
	Buckets [numBuckets]uint64 // non-cumulative counts per bucket
	Count   uint64
	Sum     sim.Duration
}

func (h *Hist) observe(d sim.Duration) {
	i := 0
	for ; i < len(histBounds); i++ {
		if d <= histBounds[i] {
			break
		}
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += d
}

// Observe records one duration directly into the histogram. It is the
// bus-free entry point: the fleet rollup feeds per-device quantities
// through it without needing a live bus.
func (h *Hist) Observe(d sim.Duration) { h.observe(d) }

// Merge adds o's observations bucket-wise. Fixed bucket bounds make this
// exact: merging shard histograms then asking for a quantile equals
// observing every shard's values into one histogram.
func (h *Hist) Merge(o *Hist) {
	if o == nil {
		return
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.Sum += o.Sum
}

// Quantile returns the value at fraction q of the distribution (q in
// [0, 1]), linearly interpolated inside the containing bucket. Bucketed
// quantiles are estimates with bucket-width resolution — the JetsonLEAP
// bounded-error discipline: cheap, deterministic, and honest about
// granularity. Observations in the +Inf bucket clamp to the last finite
// bound. Returns 0 for an empty histogram.
func (h *Hist) Quantile(q float64) sim.Duration {
	if h == nil || h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i := 0; i < numBuckets; i++ {
		n := float64(h.Buckets[i])
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			var lower sim.Duration
			if i > 0 {
				lower = histBounds[i-1]
			}
			upper := histBounds[len(histBounds)-1]
			if i < len(histBounds) {
				upper = histBounds[i]
			}
			if lower > upper {
				lower = upper
			}
			return lower + sim.Duration(float64(upper-lower)*(rank-cum)/n)
		}
		cum += n
	}
	return histBounds[len(histBounds)-1]
}

// P50 is the median estimate.
func (h *Hist) P50() sim.Duration { return h.Quantile(0.50) }

// P95 is the 95th-percentile estimate.
func (h *Hist) P95() sim.Duration { return h.Quantile(0.95) }

// P99 is the 99th-percentile estimate.
func (h *Hist) P99() sim.Duration { return h.Quantile(0.99) }

// Count adds n to a counter.
func (b *Bus) Count(name string, owner int, rail string, n int64) {
	if b == nil || !b.enabled {
		return
	}
	b.counters[Key{name, owner, rail}] += n
}

// Gauge sets a gauge to its latest value.
func (b *Bus) Gauge(name string, owner int, rail string, v float64) {
	if b == nil || !b.enabled {
		return
	}
	b.gauges[Key{name, owner, rail}] = v
}

// Observe records one duration into a histogram.
func (b *Bus) Observe(name string, owner int, rail string, d sim.Duration) {
	if b == nil || !b.enabled {
		return
	}
	h := b.hists[Key{name, owner, rail}]
	if h == nil {
		h = &Hist{}
		b.hists[Key{name, owner, rail}] = h
	}
	h.observe(d)
}

// Counter reads a counter (0 if never written).
func (b *Bus) Counter(name string, owner int, rail string) int64 {
	if b == nil {
		return 0
	}
	return b.counters[Key{name, owner, rail}]
}

// GaugeValue reads a gauge (0 if never written).
func (b *Bus) GaugeValue(name string, owner int, rail string) float64 {
	if b == nil {
		return 0
	}
	return b.gauges[Key{name, owner, rail}]
}

// Histogram reads a histogram, or nil.
func (b *Bus) Histogram(name string, owner int, rail string) *Hist {
	if b == nil {
		return nil
	}
	return b.hists[Key{name, owner, rail}]
}

// sortKeys returns map keys in canonical (Name, Owner, Rail) order.
func sortKeys[V any](m map[Key]V) []Key {
	keys := make([]Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	return keys
}

// compareKeys orders keys canonically: by Name, then Owner, then Rail.
func compareKeys(a, b Key) int {
	return cmp.Or(strings.Compare(a.Name, b.Name), cmp.Compare(a.Owner, b.Owner), strings.Compare(a.Rail, b.Rail))
}

// Series is one metric series of a dump: its key and its value.
type Series[V any] struct {
	Key Key
	V   V
}

// MetricsDump is a portable, self-contained copy of a bus's metric state:
// the currency of the fleet rollup. A shard's dump travels in its report,
// dumps merge deterministically (Merge), and a dump renders exactly the
// bytes the live bus would have written (Write). Series are copied by
// value, so a dump is immune to later bus activity. Each kind of series
// is a slice in canonical (Name, Owner, Rail) order, the order every
// consumer reads it in; a fleet holds one dump per shard, and a sorted
// slice takes half the memory of a map.
type MetricsDump struct {
	Counters []Series[int64]
	Gauges   []Series[float64]
	Hists    []Series[Hist]
	Owners   map[int]string
	Events   uint64 // events ever emitted on the source bus(es)
	Dropped  uint64 // events the source ring(s) discarded
}

// NewMetricsDump returns an empty dump ready to merge into.
func NewMetricsDump() *MetricsDump {
	return &MetricsDump{Owners: make(map[int]string)}
}

// DumpMetrics copies the bus's metric registry into a portable dump.
func (b *Bus) DumpMetrics() *MetricsDump {
	d := NewMetricsDump()
	if b == nil {
		return d
	}
	d.Counters = dumpSeries(b.counters, func(v int64) int64 { return v })
	d.Gauges = dumpSeries(b.gauges, func(v float64) float64 { return v })
	d.Hists = dumpSeries(b.hists, func(h *Hist) Hist { return *h })
	for id, name := range b.owners {
		d.Owners[id] = name
	}
	d.Events = b.seq
	d.Dropped = b.dropped
	return d
}

// dumpSeries copies one registry map into a dump's sorted series.
func dumpSeries[M, V any](m map[Key]M, value func(M) V) []Series[V] {
	if len(m) == 0 {
		return nil
	}
	out := make([]Series[V], 0, len(m))
	for _, k := range sortKeys(m) {
		out = append(out, Series[V]{Key: k, V: value(m[k])})
	}
	return out
}

// Merge folds o into d: counters, histograms, and emission accounting
// add; gauges add too, making a merged gauge the fleet-wide total of a
// per-device level (document per metric if a mean is wanted — divide by
// the device count at render time). Owner names are first-writer-wins;
// shards built from one scenario register identical tables, so the choice
// never shows. Merging is commutative except for float gauge addition —
// callers merge in ascending shard-ID order to fix the summation order.
func (d *MetricsDump) Merge(o *MetricsDump) {
	if o == nil {
		return
	}
	d.Counters = mergeSeries(d.Counters, o.Counters, func(a *int64, b int64) { *a += b })
	d.Gauges = mergeSeries(d.Gauges, o.Gauges, func(a *float64, b float64) { *a += b })
	d.Hists = mergeSeries(d.Hists, o.Hists, func(a *Hist, b Hist) { a.Merge(&b) })
	ids := make([]int, 0, len(o.Owners))
	for id := range o.Owners {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if _, ok := d.Owners[id]; !ok {
			d.Owners[id] = o.Owners[id]
		}
	}
	d.Events += o.Events
	d.Dropped += o.Dropped
}

// mergeSeries merges two canonical series lists into a new one. A key in
// both adds src's value into dst's; a key only in src adds its value into
// a zero value, as a map entry read before its first write would.
func mergeSeries[V any](dst, src []Series[V], add func(*V, V)) []Series[V] {
	out := make([]Series[V], 0, len(dst)+len(src))
	for len(dst) > 0 || len(src) > 0 {
		c := -1
		if len(dst) == 0 {
			c = 1
		} else if len(src) > 0 {
			c = compareKeys(dst[0].Key, src[0].Key)
		}
		switch {
		case c < 0:
			out = append(out, dst[0])
			dst = dst[1:]
			continue
		case c > 0:
			out = append(out, Series[V]{Key: src[0].Key})
		default:
			out = append(out, dst[0])
			dst = dst[1:]
		}
		add(&out[len(out)-1].V, src[0].V)
		src = src[1:]
	}
	return out
}

// keyCols renders the owner and rail columns; "-" marks the system-wide
// defaults so columns stay aligned and grep-able.
func (d *MetricsDump) keyCols(k Key) (string, string) {
	owner := "-"
	if k.Owner != 0 {
		owner = fmt.Sprintf("%d", k.Owner)
		if name := d.Owners[k.Owner]; name != "" {
			owner = fmt.Sprintf("%d:%s", k.Owner, name)
		}
	}
	rail := k.Rail
	if rail == "" {
		rail = "-"
	}
	return owner, rail
}

// Write emits the canonical metrics report: one sorted line per series,
// counters then gauges then histograms, closed by the trace accounting
// footer. Same state, same bytes — the CI observability job diffs this
// against a committed golden, and the fleet rollup reuses the exact
// format for merged registries.
func (d *MetricsDump) Write(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "# psbox metrics"); err != nil {
		return err
	}
	for _, c := range d.Counters {
		owner, rail := d.keyCols(c.Key)
		if _, err := fmt.Fprintf(w, "counter %-34s owner=%-14s rail=%-8s %d\n",
			c.Key.Name, owner, rail, c.V); err != nil {
			return err
		}
	}
	for _, g := range d.Gauges {
		owner, rail := d.keyCols(g.Key)
		if _, err := fmt.Fprintf(w, "gauge   %-34s owner=%-14s rail=%-8s %.6g\n",
			g.Key.Name, owner, rail, g.V); err != nil {
			return err
		}
	}
	for i := range d.Hists {
		k, h := d.Hists[i].Key, &d.Hists[i].V
		owner, rail := d.keyCols(k)
		if _, err := fmt.Fprintf(w, "hist    %-34s owner=%-14s rail=%-8s count=%d sum=%v",
			k.Name, owner, rail, h.Count, h.Sum); err != nil {
			return err
		}
		for i, label := range histLabels {
			if _, err := fmt.Fprintf(w, " le%s=%d", label, h.Buckets[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "counter %-34s owner=%-14s rail=%-8s %d\n",
		"obs.events_total", "-", "-", d.Events); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "counter %-34s owner=%-14s rail=%-8s %d\n",
		"obs.dropped_events", "-", "-", d.Dropped); err != nil {
		return err
	}
	if d.Dropped > 0 {
		if _, err := fmt.Fprintf(w, "WARNING: trace ring dropped %d events (oldest first); raise the bus capacity to keep them\n",
			d.Dropped); err != nil {
			return err
		}
	}
	return nil
}

// WriteMetrics renders the bus's metric state in the canonical report
// format (see MetricsDump.Write).
func (b *Bus) WriteMetrics(w io.Writer) error {
	if b == nil {
		_, err := fmt.Fprintln(w, "# psbox metrics (no bus)")
		return err
	}
	return b.DumpMetrics().Write(w)
}
