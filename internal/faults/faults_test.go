package faults

import (
	"slices"
	"testing"

	"psbox/internal/hw/accelhw"
	"psbox/internal/hw/cpu"
	"psbox/internal/hw/nic"
	"psbox/internal/hw/power"
	"psbox/internal/meter"
	"psbox/internal/sim"
)

const ms = sim.Millisecond

func at(d sim.Duration) sim.Time { return sim.Time(d) }

// checkLog compares the injector's log with the faults expected to fire.
func checkLog(t *testing.T, in *Injector, want ...Event) {
	t.Helper()
	if got := in.Log(); !slices.Equal(got, want) {
		t.Fatalf("fault log:\n%s\nwant %v", in.FormatLog(), want)
	}
}

// A hang wedges the executing command, which never completes; with the
// device idle, the hang arms for the next dispatch instead. After a reset,
// a command of the same work completes well within the time the hung
// ones had.
func TestHangAccelAtWedgesTheCommand(t *testing.T) {
	eng := sim.NewEngine()
	dev := accelhw.MustNew(eng, accelhw.GPUConfig())
	in := New(eng, 1)
	in.RegisterAccel("gpu", dev)
	var done []uint64
	dev.OnComplete(func(c *accelhw.Command) { done = append(done, c.ID) })

	dev.Dispatch(&accelhw.Command{ID: 1, Work: 1e4, DynW: 0.5})
	in.HangAccelAt(at(ms), "gpu")
	eng.Run(at(1000 * ms))
	if len(done) != 0 || dev.Hung() != 1 {
		t.Fatalf("completed %v, hung %d: the running command should be wedged", done, dev.Hung())
	}
	dev.Reset()

	in.HangAccelAt(at(1001*ms), "gpu")
	eng.Run(at(1002 * ms))
	dev.Dispatch(&accelhw.Command{ID: 2, Work: 1e4, DynW: 0.5})
	eng.Run(at(2000 * ms))
	if len(done) != 0 || dev.Hung() != 1 {
		t.Fatalf("completed %v, hung %d: the next dispatch should hang", done, dev.Hung())
	}
	dev.Reset()

	dev.Dispatch(&accelhw.Command{ID: 3, Work: 1e4, DynW: 0.5})
	eng.Run(at(3000 * ms))
	if !slices.Equal(done, []uint64{3}) {
		t.Fatalf("completed %v after the resets, want [3]", done)
	}
	checkLog(t, in,
		Event{At: at(ms), Kind: AccelHang, Target: "gpu", Detail: "command wedged"},
		Event{At: at(1001 * ms), Kind: AccelHang, Target: "gpu", Detail: "armed for next dispatch"})
}

// A flap drops the link for its spell and raises it after; a frame on the
// air when it drops fails.
func TestFlapLinkAtDropsTheLinkForItsSpell(t *testing.T) {
	eng := sim.NewEngine()
	n := nic.MustNew(eng, nic.DefaultConfig())
	in := New(eng, 1)
	in.RegisterNIC("wifi", n)
	var failed []uint64
	n.OnTxFail(func(p *nic.Packet) { failed = append(failed, p.ID) })

	in.FlapLinkAt(at(5*ms), "wifi", 3*ms)
	eng.Run(at(5*ms - n.AirTime(1000)/2))
	n.Transmit(&nic.Packet{ID: 7, Bytes: 1000})
	eng.Run(at(6 * ms))
	if n.LinkUp() || n.Flaps() != 1 || !slices.Equal(failed, []uint64{7}) {
		t.Fatalf("at 6 ms: link up %v, flaps %d, failed %v; want down, 1, [7]", n.LinkUp(), n.Flaps(), failed)
	}
	eng.Run(at(8 * ms))
	if !n.LinkUp() {
		t.Fatal("link still down after its 3 ms spell")
	}
	checkLog(t, in, Event{At: at(5 * ms), Kind: NICFlap, Target: "wifi", Detail: "down for 3.000ms"})
}

// A stall freezes the operating point: requests during it latch, and the
// last one applies when it ends.
func TestStallDVFSAtLatchesFrequencyRequests(t *testing.T) {
	eng := sim.NewEngine()
	c := cpu.MustNew(eng, cpu.Config{
		Name:      "cpu",
		Cores:     2,
		FreqsMHz:  []float64{500, 1000},
		ActiveW:   []power.Watts{0.3, 0.8},
		IdleCoreW: 0.05,
		RailBaseW: 0.2,
	})
	in := New(eng, 1)
	in.RegisterCPU("cpu", c)

	in.StallDVFSAt(at(2*ms), "cpu", 5*ms)
	eng.Run(at(3 * ms))
	c.SetFreqIdx(1)
	if !c.Stalled() || c.FreqIdx() != 0 {
		t.Fatalf("at 3 ms: stalled %v, freq %d; want a stall holding freq 0", c.Stalled(), c.FreqIdx())
	}
	eng.Run(at(8 * ms))
	if c.Stalled() || c.FreqIdx() != 1 {
		t.Fatalf("at 8 ms: stalled %v, freq %d; want the latched freq 1 applied", c.Stalled(), c.FreqIdx())
	}
	checkLog(t, in, Event{At: at(2 * ms), Kind: DVFSStall, Target: "cpu", Detail: "stalled for 5.000ms"})
}

// A meter dropout splits the rail's sample runs exactly where it loses
// samples: the run before it ends at the last tick before the dropout,
// and the next starts at the first tick at or after its end. The rail's
// own samples are untouched.
func TestDropMeterAtSplitsSampleRuns(t *testing.T) {
	eng := sim.NewEngine()
	m := meter.New(eng, 0) // 10 µs
	rail := power.NewRail(eng, "cpu", 1)
	m.AddRail(rail)
	in := New(eng, 1)
	in.RegisterMeter(m)

	us := func(n int64) sim.Time { return sim.Time(n * int64(sim.Microsecond)) }
	in.DropMeterAt(us(1005), "cpu", 300*sim.Microsecond)
	eng.Run(at(2 * ms))

	want := []power.Run{{T: 0, N: 101, W: 1}, {T: us(1310), N: 69, W: 1}}
	if got := m.Runs("cpu", 0, eng.Now(), nil); !slices.Equal(got, want) {
		t.Fatalf("runs %+v, want %+v", got, want)
	}
	if got := m.Dropouts("cpu", 0, eng.Now()); !slices.Equal(got, []meter.Window{{From: us(1005), To: us(1305)}}) {
		t.Fatalf("dropouts %v, want [1005 µs, 1305 µs)", got)
	}
	if n := len(rail.SamplesBetween(0, eng.Now(), m.Period(), nil)); n != 200 {
		t.Fatalf("rail samples = %d, want all 200: the DAQ lost samples, not the rail", n)
	}
	checkLog(t, in, Event{At: us(1005), Kind: MeterDropout, Target: "cpu", Detail: "samples lost for 300.000µs"})
}
