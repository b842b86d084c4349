package pcie

import (
	"fmt"
	"sort"
	"testing"

	"flexdriver/internal/hostmem"
	"flexdriver/internal/sim"
	"flexdriver/internal/telemetry"
)

// readBudget is the completion-timeout budget Read arms for a size-byte
// read on a port with link configuration cfg.
func readBudget(cfg LinkConfig, size int) sim.Time {
	return cfg.CplTimeout +
		2*cfg.EffectiveRate().Serialize(cfg.ReadReqWireBytes(size)+cfg.CompletionWireBytes(size)) +
		4*cfg.PropDelay
}

// fixedDevice answers every read with the same preallocated buffer, so a
// read round trip against it allocates nothing on the completer side.
type fixedDevice struct{ data []byte }

func (d *fixedDevice) PCIeName() string                { return "fixed" }
func (d *fixedDevice) BARSize() uint64                 { return 1 << 12 }
func (d *fixedDevice) MMIORead(_ uint64, n int) []byte { return d.data[:n] }
func (d *fixedDevice) MMIOWrite(uint64, []byte)        {}

// TestTimeoutsOutOfIssueOrder: budgets scale with the transfer, so a
// small read issued after a large one expires first. Each read must still
// time out at exactly its own issue time plus budget, and each counts
// one errors/cpl_timeout.
func TestTimeoutsOutOfIssueOrder(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	reg := telemetry.New()
	fab.SetTelemetry(reg.Scope("pcie"))
	src := hostmem.New("src", 1<<20)
	ps := fab.Attach(src, Gen3x8())
	dead := fab.Attach(deadDevice{}, Gen3x8())
	cfg := ps.Config()

	type issue struct {
		at   sim.Time
		size int
	}
	issues := []issue{{0, 4096}, {sim.Microsecond, 64}, {sim.Microsecond, 64}, {2 * sim.Microsecond, 512}}
	if readBudget(cfg, 4096) <= readBudget(cfg, 64)+sim.Microsecond {
		t.Fatal("test needs the large read to expire after the later small ones")
	}
	got := make([]sim.Time, len(issues))
	var order []int
	for i, is := range issues {
		i, is := i, is
		eng.At(is.at, func() {
			ps.Read(dead.Base(), is.size, func(c Completion) {
				if c.Status != CplTimedOut {
					t.Errorf("read %d: status %v, want timeout", i, c.Status)
				}
				if got[i] != 0 {
					t.Errorf("read %d settled twice", i)
				}
				got[i] = eng.Now()
				order = append(order, i)
			})
		})
	}
	eng.Run()
	for i, is := range issues {
		if want := is.at + readBudget(cfg, is.size); got[i] != want {
			t.Errorf("read %d timed out at %v, want %v", i, got[i], want)
		}
	}
	// Expiry follows deadlines; equal deadlines expire in issue order.
	want := []int{0, 1, 2, 3}
	sort.SliceStable(want, func(a, b int) bool { return got[want[a]] < got[want[b]] })
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("timeout order %v, want %v", order, want)
	}
	if fab.Errs.CplTimeouts != int64(len(issues)) {
		t.Errorf("Errs.CplTimeouts = %d, want %d", fab.Errs.CplTimeouts, len(issues))
	}
	if n := reg.Counter("pcie/errors/cpl_timeout").Value(); n != int64(len(issues)) {
		t.Errorf("errors/cpl_timeout = %d, want %d", n, len(issues))
	}
}

// TestLateCompletionIgnored: a completer behind a slow link answers long
// after the requester's budget. The read settles once, with CplTimedOut;
// the completion that trails in afterwards is dropped.
func TestLateCompletionIgnored(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	src := hostmem.New("src", 1<<20)
	ps := fab.Attach(src, Gen3x8())
	slow := Gen3x8()
	slow.Gen, slow.Lanes = 1, 1
	far := hostmem.New("far", 1<<20)
	pf := fab.Attach(far, slow)

	const size = 16384
	calls := 0
	var st CplStatus
	ps.Read(pf.Base(), size, func(c Completion) { calls++; st = c.Status })
	eng.Run()
	if calls != 1 || st != CplTimedOut {
		t.Fatalf("done ran %d times, last status %v; want once with timeout", calls, st)
	}
	if fab.Errs.CplTimeouts != 1 {
		t.Fatalf("CplTimeouts = %d, want 1", fab.Errs.CplTimeouts)
	}
	// The completion did cross the wire after the timeout.
	if eng.Now() <= readBudget(ps.Config(), size) {
		t.Fatalf("run ended at %v, before the late completion could arrive", eng.Now())
	}
	if pf.UpBytes == 0 {
		t.Fatal("the far device never sent its completion")
	}
}

// TestReadFromTimeoutCallback: a done callback running inside the timeout
// sweep may issue new reads; they join the list and resolve normally.
func TestReadFromTimeoutCallback(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	src := hostmem.New("src", 1<<20)
	src.WriteAt(0x100, []byte{7, 8, 9, 10})
	ps := fab.Attach(src, Gen3x8())
	dead := fab.Attach(deadDevice{}, Gen3x8())
	cfg := ps.Config()

	var retryAt, okAt, deadAt sim.Time
	var data []byte
	ps.Read(dead.Base(), 64, func(c Completion) {
		retryAt = eng.Now()
		// Retry against a live completer and against the dead one.
		ps.Read(ps.Base()+0x100, 4, func(c Completion) { okAt, data = eng.Now(), c.Data })
		ps.Read(dead.Base(), 64, func(c Completion) { deadAt = eng.Now() })
	})
	eng.Run()
	if retryAt != readBudget(cfg, 64) {
		t.Fatalf("first timeout at %v, want %v", retryAt, readBudget(cfg, 64))
	}
	if okAt <= retryAt || string(data) != string([]byte{7, 8, 9, 10}) {
		t.Fatalf("retry read at %v got %v", okAt, data)
	}
	if want := retryAt + readBudget(cfg, 64); deadAt != want {
		t.Fatalf("second timeout at %v, want %v", deadAt, want)
	}
	if fab.Errs.CplTimeouts != 2 {
		t.Fatalf("CplTimeouts = %d, want 2", fab.Errs.CplTimeouts)
	}
}

// TestSettledReadsLeaveNoEvents: completion timeouts are one timer per
// port, not one event per read, so a thousand reads that all complete in
// time leave a single pending entry behind instead of a thousand dead
// ones.
func TestSettledReadsLeaveNoEvents(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	src := hostmem.New("src", 1<<20)
	ps := fab.Attach(src, Gen3x8())
	peer := fab.Attach(hostmem.New("peer", 1<<20), Gen3x8())

	const n = 1000
	done := 0
	for i := 0; i < n; i++ {
		ps.Read(peer.Base()+uint64(i%64)*64, 64, func(c Completion) {
			if c.OK() {
				done++
			}
		})
	}
	eng.RunUntil(readBudget(ps.Config(), 64) - 1)
	if done != n {
		t.Fatalf("%d of %d reads completed before the first deadline", done, n)
	}
	if p := eng.Pending(); p != 1 {
		t.Fatalf("Pending() = %d after every read settled, want 1 (the port timer)", p)
	}
}

// TestLoneReadQuiescenceClock pins the run-to-quiescence contract: a run
// whose reads all succeed still ends at the last read's issue time plus
// its budget, exactly where a per-read timeout event would have left the
// clock. Experiments that time a run to quiescence read that clock. With
// two reads the timer, armed for the first, must re-arm for the second
// after the list has emptied.
func TestLoneReadQuiescenceClock(t *testing.T) {
	for _, issues := range [][]sim.Time{{3 * sim.Microsecond}, {3 * sim.Microsecond, 4 * sim.Microsecond}} {
		eng := sim.NewEngine()
		fab := NewFabric(eng)
		src := hostmem.New("src", 1<<20)
		ps := fab.Attach(src, Gen3x8())
		peer := fab.Attach(hostmem.New("peer", 1<<20), Gen3x8())
		budget := readBudget(ps.Config(), 256)

		var last sim.Time
		for _, at := range issues {
			at := at
			eng.At(at, func() {
				ps.Read(peer.Base(), 256, func(c Completion) {
					if !c.OK() || eng.Now() >= at+budget {
						t.Errorf("read issued at %v: status %v at %v", at, c.Status, eng.Now())
					}
				})
			})
			last = at
		}
		eng.Run()
		if want := last + budget; eng.Now() != want {
			t.Fatalf("%d reads: run ended at %v, want last issue+budget %v", len(issues), eng.Now(), want)
		}
		if eng.Pending() != 0 {
			t.Fatalf("Pending() = %d after Run", eng.Pending())
		}
	}
}

// TestReadArgZeroAlloc pins a steady-state ReadArg round trip at zero
// allocations: the read record is recycled and every hop, including the
// port's timeout timer, is scheduled in arg form.
func TestReadArgZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	ps := fab.Attach(hostmem.New("src", 1<<20), Gen3x8())
	dev := fab.Attach(&fixedDevice{data: make([]byte, 256)}, Gen3x8())

	got := 0
	done := func(c Completion, arg any) {
		if c.OK() {
			*arg.(*int) += len(c.Data)
		}
	}
	ps.ReadArg(dev.Base(), 128, done, &got) // warm: timer, record, heap
	eng.Run()
	avg := testing.AllocsPerRun(100, func() {
		ps.ReadArg(dev.Base(), 128, done, &got)
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("ReadArg round trip: %.1f allocs, want 0", avg)
	}
	// AllocsPerRun makes one untimed warm-up call of its own.
	if got != 102*128 {
		t.Fatalf("read %d bytes, want %d", got, 102*128)
	}
}
