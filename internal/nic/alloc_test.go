package nic

import (
	"testing"

	"flexdriver/internal/sim"
)

// TestWireTransitZeroAlloc pins the wire forwarding machinery at zero
// allocations per frame: getXfer/putXfer recycle the transit record and
// the serialization resource reschedules it through arg-form callbacks,
// so steady-state sends never allocate. The test drops every frame at the
// far edge of the cable (injected loss) so the measurement ends where the
// wire's ownership does — delivery hands the frame to the receiving NIC's
// match-action pipeline, which is outside the wire's zero-alloc contract.
func TestWireTransitZeroAlloc(t *testing.T) {
	eng, w, frame := wireBed(t)
	w.Loss = func(int, []byte) bool { return true }

	// Warm: first drop creates the telemetry counter for the reason, the
	// first transit record seeds the freelist.
	w.send(0, frame, nil)
	eng.Run()

	avg := testing.AllocsPerRun(100, func() {
		w.send(0, frame, nil)
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("wire transit: %.1f allocs per frame, want 0", avg)
	}
	if w.Sent[0] == 0 || w.Lost[0] != w.Sent[0] {
		t.Fatalf("Sent=%d Lost=%d, loss hook should have dropped every frame",
			w.Sent[0], w.Lost[0])
	}
}

// TestIngressToRQZeroAlloc pins the receive datapath — NIC.Ingress, the
// eSwitch match-action pass, a ToRQ or ToTIR disposition, RQ placement and
// the receive CQE — at zero allocations per frame beyond payload buffers.
// The test reuses one frame, so no payload buffer is allocated either: the
// view, the pipeline steps, the placement write and the CQE write all come
// from freelists and run as arg-form events.
func TestIngressToRQZeroAlloc(t *testing.T) {
	for _, tir := range []bool{false, true} {
		name := "ToRQ"
		if tir {
			name = "ToTIR"
		}
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			nd := newNode(t, eng)
			cqes := 0
			cqRing := nd.mem.Alloc(256*CQESize, 64)
			cq := nd.nic.CreateCQ(CQConfig{Ring: nd.fab.AddrOf(nd.mem, cqRing), Size: 256,
				OnCQE: func(CQE) { cqes++ }})
			rqRing := nd.mem.Alloc(64*RecvWQESize, 64)
			rq := nd.nic.CreateRQ(RQConfig{Ring: nd.fab.AddrOf(nd.mem, rqRing), Size: 64, CQ: cq, StrideSize: 256})
			act := Action{ToRQ: rq}
			if tir {
				act = Action{ToTIR: &TIR{RQs: []*RQ{rq}}}
			}
			nd.nic.ESwitch().AddRule(0, Rule{Action: act})
			// Post buffers large enough that the measured frames never
			// need a fresh descriptor fetch, and touch their host pages
			// (and the CQ ring's) up front so placement writes land in
			// already-mapped memory.
			const bufBytes = 1 << 16
			d := &driverRQ{nd: nd, rq: rq, ring: rqRing}
			for i := 0; i < 4; i++ {
				buf := nd.mem.Alloc(bufBytes, 4096)
				nd.mem.WriteAt(buf, make([]byte, bufBytes))
				d.post(nd.fab.AddrOf(nd.mem, buf), bufBytes, 8)
			}
			nd.mem.WriteAt(cqRing, make([]byte, 256*CQESize))
			frame := buildFrame(1, 2, 1111, 2222, 128)
			for i := 0; i < 4; i++ { // warm every freelist and the heap
				nd.nic.Ingress(frame)
				eng.Run()
			}
			avg := testing.AllocsPerRun(100, func() {
				nd.nic.Ingress(frame)
				eng.Run()
			})
			if avg != 0 {
				t.Fatalf("ingress to RQ: %.2f allocs per frame, want 0", avg)
			}
			if want := 4 + 101; cqes != want {
				t.Fatalf("%d receive CQEs, want %d", cqes, want)
			}
		})
	}
}
