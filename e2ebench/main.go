// Command e2ebench is psbox's end-to-end benchmark. It drives four
// workloads through psbox's public calls, checks every output against the
// values recorded in expected.json, and prints one JSON result line:
//
//	go run . --workload fleet --seed 3 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced
// repetitions; with --trace 1 it alternates untraced and traced
// repetitions and reports per-layer metrics from the spans it records
// around each call into psbox. Times are in reference seconds (see
// reference.go). NOTES.md describes the workloads and metrics; run.sh
// builds and runs the benchmark from a checkout's root.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

//go:embed expected.json
var expectedJSON []byte

// expectations maps workload → simulation seed → recorded result.
type expectations map[string]map[string]json.RawMessage

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: insulation, fleet, long-boxed or sessions")
	seed := fs.Int64("seed", 0, "input seed; picks one of the workload's ten recorded simulation seeds")
	seconds := fs.Float64("seconds", 10, "measurement time in host seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	heldOut := fs.Bool("heldout", false, "run the workload's held-out simulation seed instead")
	outDir := fs.String("out-dir", ".bench_build", "directory the traced run writes its spans to")
	record := fs.String("record", "", "record every workload's expected results into this file and exit")
	commit := fs.String("commit", "", "commit the code was built from; defaults to the build's VCS stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordExpected(*record); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	w := findWorkload(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "e2ebench: need --workload (insulation, fleet, long-boxed, sessions), --trace 0|1 and positive --seconds\n")
		return 2
	}
	var exp expectations
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		fmt.Fprintln(stderr, "e2ebench: expected.json:", err)
		return 1
	}
	simSeed := w.simSeed(*seed, *heldOut)
	want, ok := exp[w.name][strconv.FormatUint(simSeed, 10)]
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: no recorded result for %s at simulation seed %d\n", w.name, simSeed)
		return 1
	}

	h := fingerprint(*commit)
	hostLine, _ := json.Marshal(h) // strings and ints only: cannot fail
	fmt.Fprintf(stdout, "host %s\n", hostLine)
	fmt.Fprintf(stdout, "workload %s seed %d simulation seed %d\n", w.name, *seed, simSeed)

	tracing := *trace == 1
	m := &measurement{w: w, trace: tracing, seed: simSeed, want: want, stderr: stderr}
	if w.crossCheck != nil {
		m.crossCheck = w.crossCheck(simSeed)
	}
	m.repeat(false, false) // warm-up: caches and lazy set-up, not measured
	start := time.Now()
	for i := 0; ; i++ {
		m.repeat(true, tracing && i%2 == 1)
		if !tracing {
			m.sampleSetup()
		}
		if time.Since(start).Seconds() >= *seconds && (!tracing || i >= 1) {
			break
		}
	}

	var metrics map[string]metric
	if tracing {
		metrics = m.perLayer()
		if err := m.writeSpans(filepath.Join(*outDir, "spans"), h, *seed); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
	} else {
		metrics = m.endToEnd()
	}
	if w.name == "insulation" {
		fmt.Fprintf(stdout, "psbox_dev_pct %v (checked against the recorded grid)\n", m.devPct)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{m.failed == 0, m.attempted, m.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one measured repetition.
type sample struct {
	ref          time.Duration // the reference program's time just before it
	wall         time.Duration
	allocBytes   uint64
	allocs       uint64
	retainedHeap uint64
	tracing      bool
	selfTimes    map[string]time.Duration
	root         time.Duration
	counts       map[string]float64
	spans        []span
}

type measurement struct {
	w          *benchWorkload
	trace      bool // a --trace 1 run: every repetition runs the traced procedure
	seed       uint64
	want       json.RawMessage
	crossCheck func(result) (int, string)
	stderr     io.Writer

	samples           []sample
	buildTimes        [][]time.Duration // per System of the set-up, its sampled build times; see sampleSetup
	attempted, failed int
	devPct            float64
	firstCounts       map[string]float64
}

// repeat runs one repetition: a forced GC, the timed reference program,
// another forced GC so each repetition starts from the same heap, the
// timed workload, then the retained-heap reading while the result is
// still reachable, and the output checks. A panic fails every operation
// of the repetition, which is then left out of the metrics.
func (m *measurement) repeat(keep, tracing bool) {
	runFn := m.w.run
	if m.trace && m.w.traced != nil {
		runFn = m.w.traced
	}
	r := newRep(tracing)
	var before, after, live runtime.MemStats
	runtime.GC()
	ref := reference()
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := time.Now()
	res, crash := runGuarded(r, runFn, m.seed)
	wall := time.Since(t)
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(res)

	failed, why := m.w.ops, fmt.Sprint("panic: ", crash)
	if crash == nil {
		failed, why = m.check(res, r.counts, tracing)
	}
	m.attempted += m.w.ops
	m.failed += failed
	if failed > 0 {
		fmt.Fprintf(m.stderr, "e2ebench: %s seed %d: %d of %d operations failed: %s\n", m.w.name, m.seed, failed, m.w.ops, why)
	}
	fmt.Fprintf(m.stderr, "repetition measured=%t traced=%t reference %.4fs wall %.4fs alloc %d B allocs %d retained %d B\n",
		keep, tracing, ref.Seconds(), wall.Seconds(), after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs, live.HeapAlloc)
	if keep && crash == nil {
		m.samples = append(m.samples, sample{
			ref: ref, wall: wall,
			allocBytes:   after.TotalAlloc - before.TotalAlloc,
			allocs:       after.Mallocs - before.Mallocs,
			retainedHeap: live.HeapAlloc,
			tracing:      tracing,
			selfTimes:    r.selfTimes(),
			root:         r.rootTime(),
			counts:       r.counts,
			spans:        r.spans,
		})
	}
}

// sampleSetup times the workload's set-up on its own: setupSamples times
// it builds every System a repetition builds, each after a forced GC so
// that it starts from the same small heap, and records each build's time.
// A single build takes about a millisecond, and a collection, the
// scavenger returning the repetition's heap to the OS, or a fresh page of
// heap inside it can double or triple that. So the batch starts by
// returning all free memory to the OS and by one untimed pass that faults
// the set-up's pages back in, and setup_s sums per-build medians rather
// than taking the median of sums, which would add up every build's stalls.
func (m *measurement) sampleSetup() {
	builds := m.w.builds(m.seed)
	if m.buildTimes == nil {
		m.buildTimes = make([][]time.Duration, len(builds))
	}
	pass := func(keep bool) time.Duration {
		var total time.Duration
		for i, build := range builds {
			runtime.GC()
			t := time.Now()
			sys := build()
			d := time.Since(t)
			runtime.KeepAlive(sys)
			total += d
			if keep {
				m.buildTimes[i] = append(m.buildTimes[i], d)
			}
		}
		return total
	}
	debug.FreeOSMemory()
	pass(false)
	var totals []time.Duration
	for k := 0; k < m.w.setupSamples; k++ {
		totals = append(totals, pass(true))
	}
	fmt.Fprintf(m.stderr, "set-up samples %v\n", totals)
}

// runGuarded runs one repetition inside the "workload" span and returns
// the panic value, if any, instead of crashing the benchmark.
func runGuarded(r *rep, runFn func(*rep, uint64) result, seed uint64) (res result, crash any) {
	defer func() { crash = recover() }()
	r.span("workload", func() { res = runFn(r, seed) })
	return res, nil
}

// check compares a repetition's result with its recording and, when set,
// the workload's cross-check. Traced repetitions must also repeat the first
// traced repetition's counts exactly.
func (m *measurement) check(res result, counts map[string]float64, tracing bool) (int, string) {
	failed, why := res.compare(m.want)
	if m.crossCheck != nil {
		if f, w := m.crossCheck(res); f > failed {
			failed, why = f, w
		}
	}
	if ir, ok := res.(*insulationResult); ok {
		m.devPct = ir.PSBoxDevPct
	}
	if tracing {
		if m.firstCounts == nil {
			m.firstCounts = counts
		} else if fmt.Sprint(m.firstCounts) != fmt.Sprint(counts) && failed == 0 {
			failed, why = 1, fmt.Sprintf("per-layer counts changed between repetitions: %v then %v", m.firstCounts, counts)
		}
	}
	return failed, why
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0 // every repetition failed; the result line says so
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// values applies f to the measured repetitions, traced or not.
func (m *measurement) values(traced bool, f func(sample) float64) []float64 {
	var xs []float64
	for _, s := range m.samples {
		if s.tracing == traced {
			xs = append(xs, f(s))
		}
	}
	return xs
}

func (m *measurement) medianOf(traced bool, f func(sample) float64) float64 {
	return median(m.values(traced, f))
}

// scale converts this run's host seconds into reference seconds (see
// refNominal): refNominal over the mean reference time of the run.
func (m *measurement) scale() float64 {
	var ref time.Duration
	for _, s := range m.samples {
		ref += s.ref
	}
	if ref == 0 {
		return 0 // every repetition failed; the result line says so
	}
	return refNominal.Seconds() * float64(len(m.samples)) / ref.Seconds()
}

// meanWall is the mean wall time, in reference seconds, of the measured
// repetitions, traced or not. A total over the run, scaled once, is
// steadier than any one repetition's time or their median, because the
// reference is timed at one instant per repetition.
func (m *measurement) meanWall(traced bool) float64 {
	var total float64
	walls := m.values(traced, func(s sample) float64 { return s.wall.Seconds() })
	for _, w := range walls {
		total += w
	}
	return ratio(total, float64(len(walls))) * m.scale()
}

// endToEnd reports the untraced repetitions: wall_s as a mean and setup_s
// as the sum of the set-up's median build times, both in reference
// seconds, and the memory metrics as medians.
func (m *measurement) endToEnd() map[string]metric {
	med := func(f func(sample) float64) float64 { return m.medianOf(false, f) }
	var setup float64
	for _, ds := range m.buildTimes {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = d.Seconds()
		}
		setup += median(xs)
	}
	return map[string]metric{
		"wall_s":              {m.meanWall(false), "s"},
		"setup_s":             {setup * m.scale(), "s"},
		"alloc_bytes":         {med(func(s sample) float64 { return float64(s.allocBytes) }), "bytes"},
		"allocs":              {med(func(s sample) float64 { return float64(s.allocs) }), "count"},
		"retained_heap_bytes": {med(func(s sample) float64 { return float64(s.retainedHeap) }), "bytes"},
	}
}
