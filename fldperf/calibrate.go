package main

import (
	"math"
	"runtime"
	"time"
)

// calRefS is the calibration kernel's time on the reference host that
// host-time metrics are expressed in. It is about the kernel's time on a
// quiet 2-vCPU Xeon VM, so reference seconds are close to wall seconds
// there.
const calRefS = 0.1

// calExp is how far the simulator's time follows the kernel's when the
// host slows down, in log terms. Over 200-second runs of each workload
// on a shared 2-vCPU VM, the median time of ten consecutive reps moved
// by 0.61 to 0.67 of the kernel's median over the same reps, and
// scaling by the kernel's full ratio over-corrected the 64 B echo. The
// kernel works the memory system harder than the simulator does.
const calExp = 0.7

// calSink keeps the calibration kernel's results live.
var calSink int

// hostScale turns host seconds into reference seconds, given the
// kernel's median time over the same stretch of host time.
func hostScale(calS float64) float64 { return math.Pow(calRefS/calS, calExp) }

// calibrate times a fixed kernel that shares no code with the simulator
// and returns seconds. It has two parts:
//
//   - allocKernel: small allocations, map updates and a growing slice
//     over a working set of about 10 MB, and the garbage collection
//     they cause;
//   - desKernel: a miniature discrete-event simulation, with a 4-ary
//     event heap, dispatch through func(any) and small frame copies.
//
// On a shared host the speed of memory-bound code drifts by tens of
// percent over seconds to minutes, and the simulator drifts with it,
// while no change to the repository can move the kernel. So the
// benchmark runs the kernel between timed reps and reports host times
// scaled by hostScale of the kernel's median: reference seconds. A
// single kernel run is itself noisy, so only the median is used.
func calibrate() float64 {
	runtime.GC()
	t := time.Now()
	allocKernel()
	desKernel()
	return time.Since(t).Seconds()
}

func allocKernel() {
	const slots = 1 << 16
	m := make(map[uint32][]byte, slots)
	var keep [][]byte
	x := uint32(2463534242)
	for i := 0; i < 270000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b := make([]byte, 64)
		b[0] = byte(x)
		m[x%slots] = b
		if i%8 == 0 {
			keep = append(keep, b)
		}
	}
	n := 0
	for _, b := range m {
		n += int(b[0])
	}
	calSink += n + len(keep)
}

// desEvent is one pending event of the kernel's simulation.
type desEvent struct {
	at  int64
	seq uint64
	fn  func(*desSim, any)
	arg any
}

func (a *desEvent) before(b *desEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// desSim is the kernel's simulation: packets hop between flows through
// an event heap kept at a fixed population.
type desSim struct {
	now   int64
	seq   uint64
	heap  []desEvent
	rng   uint64
	flows map[uint32]*desFlow
	sink  int
}

type desFlow struct {
	pkts, bytes int64
	last        []byte
}

type desPacket struct {
	flow uint32
	data []byte
	hops int
}

func (s *desSim) rand() uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

func (s *desSim) push(at int64, fn func(*desSim, any), arg any) {
	s.seq++
	s.heap = append(s.heap, desEvent{at, s.seq, fn, arg})
	h := s.heap
	i := len(h) - 1
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if h[p].before(&ev) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (s *desSim) pop() desEvent {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = desEvent{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for k := c + 1; k < c+4 && k < n; k++ {
				if h[k].before(&h[m]) {
					m = k
				}
			}
			if last.before(&h[m]) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	s.heap = h
	return top
}

func (s *desSim) newPacket() *desPacket {
	return &desPacket{flow: uint32(s.rand() % 4096), data: make([]byte, 64+s.rand()%64), hops: 12}
}

// desHop accounts a packet to its flow, touches its bytes and schedules
// its next hop; every third hop copies it into a fresh buffer.
func desHop(s *desSim, a any) {
	p := a.(*desPacket)
	f := s.flows[p.flow]
	if f == nil {
		f = &desFlow{}
		s.flows[p.flow] = f
	}
	f.pkts++
	f.bytes += int64(len(p.data))
	for i := 0; i < len(p.data); i += 8 {
		p.data[i] ^= byte(p.hops)
	}
	if p.hops == 0 {
		s.sink += int(p.data[0])
		return
	}
	p.hops--
	if p.hops%3 == 0 {
		d := make([]byte, len(p.data))
		copy(d, p.data)
		f.last, p.data = p.data, d
	}
	s.push(s.now+int64(s.rand()%2000), desHop, p)
}

func desKernel() {
	const pending, events = 2048, 100000
	s := &desSim{rng: 88172645463325252, flows: map[uint32]*desFlow{}}
	for i := 0; i < pending; i++ {
		s.push(int64(s.rand()%100000), desHop, s.newPacket())
	}
	for n := 0; n < events; n++ {
		if len(s.heap) < pending {
			s.push(s.now+int64(s.rand()%2000), desHop, s.newPacket())
		}
		ev := s.pop()
		s.now = ev.at
		ev.fn(s, ev.arg)
	}
	calSink += s.sink + len(s.flows)
}
