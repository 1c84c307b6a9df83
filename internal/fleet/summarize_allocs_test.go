package fleet

import (
	"testing"

	"psbox"
)

// The profile fold and the blame join cost per run of equal sample
// windows, not per sample: on steady rails, FoldProfile plus Summarize
// allocate no more over 10 s than over 1 s, though the span holds ten
// times the samples. A GPS dropout early on gives every trace read a
// non-empty ring to copy at both lengths, and splits that rail's runs.
func TestSummarizeAllocsIndependentOfSamples(t *testing.T) {
	allocs := func(d psbox.Duration) float64 {
		const runs = 3
		var systems []*psbox.System
		for i := 0; i <= runs; i++ { // AllocsPerRun warms up with one extra call
			sys := psbox.NewMobile(1)
			sys.EnableProfiling()
			sys.Meter.InjectDropout("gps", psbox.Time(500*psbox.Millisecond), psbox.Time(600*psbox.Millisecond))
			sys.Run(d)
			systems = append(systems, sys)
		}
		return testing.AllocsPerRun(runs, func() {
			sys := systems[0]
			systems = systems[1:]
			sys.FoldProfile()
			Summarize(sys, 0, sys.Now())
		})
	}
	short, long := allocs(psbox.Second), allocs(10*psbox.Second)
	if long > short {
		t.Fatalf("FoldProfile+Summarize allocate %.0f times over 10 s but %.0f over 1 s", long, short)
	}
}
