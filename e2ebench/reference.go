package main

import (
	"container/heap"
	"time"
)

// refNominal is the unit of every time the benchmark reports: one second
// of a host on which reference takes 100 ms. Before each repetition the
// benchmark times reference, and scales its host times by refNominal over
// the run's mean reference time. Other tenants of a shared host slow both
// alike, so the scaled times hold steady while the raw ones drift (see
// NOTES.md). Changing reference or refNominal changes that unit, so treat
// them as part of the benchmark's contract.
const refNominal = 100 * time.Millisecond

type refEvent struct {
	at  int64
	seq int
	w   float64
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// refSink keeps reference's result live so the compiler cannot drop it.
var refSink float64

// reference runs a fixed program that shares no code with psbox but does
// the same kinds of work: an event queue, a map with inserts and deletes,
// small allocations, and random reads over a working set larger than the
// caches. It returns its wall time.
func reference() time.Duration {
	start := time.Now()
	var q refQueue
	x := uint64(88172645463325252)
	m := make(map[int]float64)
	big := make([]float64, 1<<21) // 16 MiB
	var keep [][]float64
	seq := 0
	for i := 0; i < 256; i++ {
		seq++
		heap.Push(&q, &refEvent{at: int64(i), seq: seq, w: 1})
	}
	sum := 0.0
	for n := 0; n < 200000; n++ {
		ev := heap.Pop(&q).(*refEvent)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := int(x % 65536)
		m[k] += ev.w * 0.5
		if n%3 == 0 {
			delete(m, int((x>>20)%65536))
		}
		j := int(x>>11) & (len(big) - 1)
		big[j] += m[k]
		sum += big[(j*7919)&(len(big)-1)] * 1e-9
		seq++
		heap.Push(&q, &refEvent{at: ev.at + int64(x%1000), seq: seq, w: ev.w * 1.0000001})
		if n%64 == 0 {
			buf := make([]float64, 64)
			buf[n%64] = sum
			keep = append(keep, buf)
			if len(keep) > 512 {
				keep = keep[1:]
			}
		}
	}
	refSink = sum + keep[0][0]
	return time.Since(start)
}
