package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"flexdriver"
	"flexdriver/internal/pcie"
	"flexdriver/internal/stats"
)

// layerCounts are the deterministic per-layer counters of one rep.
type layerCounts struct {
	fldRx, fldTx, creditStalls, accelStalls  int64
	nicDrops                                 map[string]int64
	pcieBytes                                int64 // server Up+Down bytes over all ports
	swForwarded, swTailDrops                 int64
	simRounds, simMerged                     int64
	kvHits, kvMisses, kvDropped, kvMalformed int64
}

type checkResult struct {
	name, detail string
	ok           bool
}

// rep is one build-and-run of a workload at one seed.
type rep struct {
	setupNs, runNs, snapNs int64
	hash                   string

	attempted, answered int64 // window requests, and those answered by the end of drain
	frames              int64 // requests sent plus responses received, whole run
	goodputGbps         float64
	latN, beyond        int // latency samples, and samples above p999
	p50us, p999us       float64

	layer                 layerCounts
	allocBytes, allocObjs uint64  // during the run phase
	gcCPU, cpuTotal       float64 // runtime CPU-class seconds during the run phase

	checks []checkResult
	tr     *tracer
	runID  int32 // the traced rep's run span
}

func (r *rep) check(name string, ok bool, detail string) {
	r.checks = append(r.checks, checkResult{name: name, ok: ok, detail: detail})
}

// runtimeSamples are read around the run phase: GC CPU against all
// busy CPU, and allocation volume.
var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
	{Name: "/cpu/classes/scavenge/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func readRuntime() [5]float64 {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	var out [5]float64
	for i, v := range s {
		switch v.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = v.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(v.Value.Uint64())
		}
	}
	return out
}

// runRep builds the workload, runs it to quiescence and collects its
// measurements and checks. With a tracer it records spans; with cpu it
// CPU-profiles the run phase into it by package. A panic anywhere in
// the rep is reported as an error.
func runRep(s spec, seed int64, tr *tracer, cpu map[string]int64) (r rep, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s seed %d panicked: %v", s.name, seed, p)
		}
	}()
	runtime.GC() // every rep starts from the same clean heap
	r.tr = tr
	root := tr.begin(spanRep)
	b := &bed{tr: tr, reg: flexdriver.NewRegistry()}

	t0 := time.Now()
	sp := tr.begin(spanSetup)
	s.build(b, s, seed)
	tr.end(sp)
	r.setupNs = int64(time.Since(t0))

	var prof bytes.Buffer
	if cpu != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	before := readRuntime()
	t1 := time.Now()
	r.runID = tr.begin(spanRun)
	b.run(s)
	tr.end(r.runID)
	r.runNs = int64(time.Since(t1))
	after := readRuntime()
	if cpu != nil {
		pprof.StopCPUProfile()
		if err := cpuByPackage(prof.Bytes(), cpu); err != nil {
			return r, err
		}
	}
	if tr != nil {
		r.runNs = tr.spans[r.runID].end - tr.spans[r.runID].start
	}
	r.gcCPU = after[0] - before[0]
	r.cpuTotal = (after[0] + after[1] + after[2]) - (before[0] + before[1] + before[2])
	r.allocBytes = uint64(after[3] - before[3])
	r.allocObjs = uint64(after[4] - before[4])

	t2 := time.Now()
	sp = tr.begin(spanSnapshot)
	snap := b.reg.Snapshot()
	r.hash = snap.Hash()
	tr.end(sp)
	r.snapNs = int64(time.Since(t2))

	b.collect(s, &r, snap)
	tr.end(root)
	return r, nil
}

// run drives the phases: warm-up, the measured window, the drain, and
// then to quiescence.
func (b *bed) run(s spec) {
	phase := func(run func()) {
		sp := b.tr.begin(spanRunUntil)
		run()
		b.tr.end(sp)
	}
	phase(func() { b.cl.RunUntil(s.warmup) })
	b.measuring = true
	for _, c := range b.clients {
		c.winLo = len(c.sendAt)
	}
	phase(func() { b.cl.RunUntil(s.warmup + s.window) })
	b.measuring = false
	for _, c := range b.clients {
		c.winHi = len(c.sendAt)
	}
	phase(func() { b.cl.RunUntil(s.warmup + s.window + s.drain) })
	phase(b.cl.Run)
}

// collect merges the client bookkeeping, reads every layer's counters
// and runs the checks shared by all workloads.
func (b *bed) collect(s spec, r *rep, snap flexdriver.Snapshot) {
	lat := stats.NewSample(1 << 16)
	var rxBytesW int64
	for _, c := range b.clients {
		r.attempted += int64(c.winHi - c.winLo)
		// A window request is answered if its response arrived by the
		// end of the run; its round trip counts from when it was due.
		for o := c.winLo; o < c.winHi; o++ {
			if c.doneAt[o] != 0 {
				r.answered++
				lat.Add((c.doneAt[o] - c.sendAt[o]).Seconds() * 1e6)
			}
		}
		r.frames += int64(len(c.sendAt)) + c.rxFrames
		rxBytesW += c.rxBytesW
	}
	r.goodputGbps = float64(rxBytesW) * 8 / s.window.Seconds() / 1e9
	r.latN = lat.N()
	r.p50us, r.p999us = lat.Median(), lat.Percentile(99.9)
	for _, v := range lat.Values() {
		if v > r.p999us {
			r.beyond++
		}
	}

	l := &r.layer
	for _, f := range b.flds {
		l.fldRx += f.Stats.RxPackets
		l.fldTx += f.Stats.TxPackets
		l.creditStalls += f.Stats.CreditStalls
		l.accelStalls += f.Stats.AccelStalls
	}
	for _, p := range b.server.Fab.Ports() {
		l.pcieBytes += p.UpBytes + p.DownBytes
	}
	if b.sw != nil {
		for _, p := range b.sw.Ports() {
			l.swForwarded += p.Counters.TxFrames
			l.swTailDrops += p.Counters.TailDrops
		}
	}
	gs := b.cl.Group().Stats()
	l.simRounds, l.simMerged = gs.Rounds, gs.Merged

	// PCIe telemetry must match the fabric's own byte accounting on
	// every port of every node.
	l.nicDrops = map[string]int64{}
	mismatches := 0
	node := func(name string, fab *pcie.Fabric, n *flexdriver.NIC) {
		for _, p := range fab.Ports() {
			dev := p.Device().PCIeName()
			if snap.Get(name+"/pcie/"+dev+"/up/bytes") != p.UpBytes ||
				snap.Get(name+"/pcie/"+dev+"/down/bytes") != p.DownBytes {
				mismatches++
			}
		}
		for reason, v := range n.Stats.Drops {
			l.nicDrops[string(reason)] += v
		}
	}
	for _, h := range b.cl.Hosts {
		node(h.Name(), h.Fab, h.NIC)
	}
	for _, inn := range b.cl.Innovas {
		node(inn.Name(), inn.Fab, inn.NIC)
	}
	r.check("PCIe byte counters reconcile on every node", mismatches == 0,
		fmt.Sprintf("%d mismatched ports", mismatches))
	pending := b.cl.Pending()
	r.check("sim engine quiesced after drain", pending == 0, fmt.Sprintf("%d events pending", pending))
	if b.check != nil {
		b.check(b, r)
	}
}
