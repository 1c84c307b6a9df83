package obs

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition (format 0.0.4) over a MetricsDump. The
// writer is canonical: series appear in sorted key order with one TYPE
// comment per metric family, numbers use fixed formatting, and the same
// dump always yields the same bytes — the fleet CI job byte-diffs the
// exposition across worker counts exactly like every other report.
//
// Mapping: every psbox metric name is prefixed "psbox_" and sanitized to
// the Prometheus grammar ('.' and any other illegal rune become '_').
// Owner and rail become labels, omitted at their system-wide defaults.
// Sim-time histograms expose cumulative le buckets in seconds plus _sum
// and _count, the standard histogram contract.

// promName sanitizes a psbox metric name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("psbox_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelVal escapes a label value per the exposition format.
func promLabelVal(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promLabels renders the {owner=...,rail=...} clause for a key, extended
// by extra pre-rendered pairs; "" when every label is at its default.
func (d *MetricsDump) promLabels(k Key, extra ...string) string {
	var pairs []string
	if k.Owner != 0 {
		owner := d.Owners[k.Owner]
		if owner == "" {
			owner = fmt.Sprintf("app%d", k.Owner)
		}
		pairs = append(pairs, `owner="`+promLabelVal(owner)+`"`)
	}
	if k.Rail != "" {
		pairs = append(pairs, `rail="`+promLabelVal(k.Rail)+`"`)
	}
	pairs = append(pairs, extra...)
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// promBounds are the histogram bucket upper bounds rendered in seconds,
// aligned with histBounds; the +Inf bucket closes the family.
var promBounds = [numBuckets]string{"1e-05", "0.0001", "0.001", "0.01", "0.1", "1", "+Inf"}

// WriteProm renders the dump in Prometheus text exposition format.
func (d *MetricsDump) WriteProm(w io.Writer) error {
	typeLine := func(name, kind string) error {
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		return err
	}
	prev := ""
	for _, c := range d.Counters {
		name := promName(c.Key.Name)
		if name != prev {
			if err := typeLine(name, "counter"); err != nil {
				return err
			}
			prev = name
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", name, d.promLabels(c.Key), c.V); err != nil {
			return err
		}
	}
	prev = ""
	for _, g := range d.Gauges {
		name := promName(g.Key.Name)
		if name != prev {
			if err := typeLine(name, "gauge"); err != nil {
				return err
			}
			prev = name
		}
		if _, err := fmt.Fprintf(w, "%s%s %.9g\n", name, d.promLabels(g.Key), g.V); err != nil {
			return err
		}
	}
	prev = ""
	for i := range d.Hists {
		k, h := d.Hists[i].Key, &d.Hists[i].V
		name := promName(k.Name)
		if name != prev {
			if err := typeLine(name, "histogram"); err != nil {
				return err
			}
			prev = name
		}
		var cum uint64
		for i := range h.Buckets {
			cum += h.Buckets[i]
			le := `le="` + promBounds[i] + `"`
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, d.promLabels(k, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %.9g\n", name, d.promLabels(k), h.Sum.Seconds()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, d.promLabels(k), h.Count); err != nil {
			return err
		}
	}
	if err := typeLine("psbox_obs_events_total", "counter"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "psbox_obs_events_total %d\n", d.Events); err != nil {
		return err
	}
	if err := typeLine("psbox_obs_dropped_events_total", "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "psbox_obs_dropped_events_total %d\n", d.Dropped)
	return err
}
