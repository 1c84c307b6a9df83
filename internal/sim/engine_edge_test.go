package sim

import (
	"container/heap"
	"testing"
)

// TestDrainMonotonicityPanic is the regression test for Drain silently
// accepting an event stamped before the current clock — Run has always
// panicked on that corruption; Drain must too.
func TestDrainMonotonicityPanic(t *testing.T) {
	e := NewEngine()
	e.At(10, func(Time) {})
	e.Run(20) // now = 20
	// Corrupt the queue the only way possible: bypass At's past-check and
	// push a stale item directly, as a buggy model mutating internals would.
	e.nextSeq++
	it := &item{at: 5, seq: e.nextSeq, fn: func(Time) {}}
	heap.Push(&e.queue, it)
	defer func() {
		if recover() == nil {
			t.Fatal("Drain executed an event from the past without panicking")
		}
	}()
	e.Drain(10)
}

func TestEngineCancelFromInsideEvent(t *testing.T) {
	e := NewEngine()
	var h2 Handle
	fired2 := false
	// Both at t=10: the first handler revokes the second before it fires.
	e.At(10, func(Time) {
		if !e.Cancel(h2) {
			t.Fatal("Cancel of a pending sibling reported not pending")
		}
	})
	h2 = e.At(10, func(Time) { fired2 = true })
	e.Run(100)
	if fired2 {
		t.Fatal("event cancelled from inside a handler still fired")
	}
}

func TestEngineCancelSelfWhileFiring(t *testing.T) {
	e := NewEngine()
	var self Handle
	self = e.At(10, func(Time) {
		// The firing event is no longer pending; cancelling it is a no-op.
		if e.Cancel(self) {
			t.Fatal("Cancel of the currently-firing event reported pending")
		}
	})
	e.Run(100)
}

func TestEveryStopTwiceFromInsideTick(t *testing.T) {
	e := NewEngine()
	n := 0
	var stop func()
	stop = e.Every(10, func(Time) {
		n++
		if n == 2 {
			stop()
			stop() // second call from inside the same tick must be a no-op
		}
	})
	e.Run(200)
	if n != 2 {
		t.Fatalf("fired %d times, want 2", n)
	}
	stop() // and again after the run, for good measure
	e.Run(400)
	if n != 2 {
		t.Fatalf("fired after stop: %d", n)
	}
}

// TestEngineCancelForeignHandle: a handle is bound to the engine that
// issued it. Two engines allocate the same sequence numbers, so a handle
// from one must not cancel the other's event with the same seq.
func TestEngineCancelForeignHandle(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	firedA, firedB := false, false
	a.At(10, func(Time) { firedA = true })
	hb := b.At(10, func(Time) { firedB = true })
	if hb.Seq() != 1 {
		t.Fatalf("seq = %d; the test needs both engines at seq 1", hb.Seq())
	}
	if a.Cancel(hb) {
		t.Fatal("engine a cancelled an event through engine b's handle")
	}
	if a.Pending() != 1 || b.Pending() != 1 {
		t.Fatalf("pending = %d/%d after a foreign cancel, want 1/1", a.Pending(), b.Pending())
	}
	a.Run(100)
	b.Run(100)
	if !firedA || !firedB {
		t.Fatalf("fired = %v/%v, want both", firedA, firedB)
	}
}

// TestEngineReleasesCallbacks: once an event fires or is cancelled, a
// handle still held by a driver field no longer references its closure.
func TestEngineReleasesCallbacks(t *testing.T) {
	e := NewEngine()
	fired := e.At(10, func(Time) {})
	cancelled := e.At(20, func(Time) {})
	if !e.Cancel(cancelled) {
		t.Fatal("pending event not cancelled")
	}
	e.Run(100)
	if fired.it.fn != nil || cancelled.it.fn != nil {
		t.Fatal("a spent handle still pins its callback")
	}
	if e.Cancel(fired) || e.Cancel(cancelled) {
		t.Fatal("a spent handle cancelled something")
	}
}
