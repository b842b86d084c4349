package main

import (
	"fmt"
	"io"
	"sort"
)

// cpuLayers maps per-layer CPU metrics to the packages whose self
// samples they count. These are the engine-driven layers the benchmark
// cannot wrap in spans.
var cpuLayers = []struct{ metric, pkg string }{
	{"workload.cpu_frac", "flexdriver"},
	{"tcp.cpu_frac", "flexdriver/internal/tcp"},
	{"nic.cpu_frac", "flexdriver/internal/nic"},
	{"pcie.cpu_frac", "flexdriver/internal/pcie"},
	{"ethswitch.cpu_frac", "flexdriver/internal/ethswitch"},
	{"sim.cpu_frac", "flexdriver/internal/sim"},
}

// perLayer fills the traced run's per-layer metrics and prints the
// self-time and CPU tables. It returns a problem for every traced rep
// whose self times do not sum to its run_s.
func perLayer(w io.Writer, ref rep, plain, traced []rep, cpu map[string]int64, m map[string]metric) []string {
	if len(traced) == 0 {
		return []string{"no traced rep completed"}
	}
	var problems []string
	var runRows, setupRows [numSpanNames]layerRow
	var wlSetup, buildFrame, marshal, simSelf, snap, runS []float64
	for _, r := range traced {
		tr := r.tr
		self := tr.selfTimes()
		var rows [numSpanNames]layerRow
		if total := tr.addSubtree(r.runID, self, &rows); total != r.runNs {
			problems = append(problems, fmt.Sprintf("traced self times sum to %d ns, run_s is %d ns", total, r.runNs))
		}
		var srows [numSpanNames]layerRow
		for i, sp := range tr.spans {
			if sp.name == spanSetup {
				tr.addSubtree(int32(i), self, &srows)
				break
			}
		}
		for i := range rows {
			runRows[i].add(rows[i])
			setupRows[i].add(srows[i])
		}
		wlSetup = append(wlSetup, float64(srows[spanWorkloadSetup].incl)/1e9)
		buildFrame = append(buildFrame, float64(srows[spanBuildFrame].incl)/1e9)
		marshal = append(marshal, float64(srows[spanMarshal].incl)/1e9)
		simSelf = append(simSelf, float64(rows[spanRunUntil].self)/1e9)
		snap = append(snap, float64(r.snapNs)/1e9)
		runS = append(runS, float64(r.runNs)/1e9)
	}
	plainRun := median(each(plain, func(r rep) float64 { return float64(r.runNs) / 1e9 }))
	tracedRun := median(runS)

	perCall := func(row layerRow) float64 {
		if row.calls == 0 {
			return 0
		}
		return float64(row.incl) / float64(row.calls)
	}
	var samples int64
	for _, n := range cpu {
		samples += n
	}
	frac := func(pkg string) float64 {
		if samples == 0 {
			return 0
		}
		return float64(cpu[pkg]) / float64(samples)
	}
	var gcCPU, busyCPU, allocB, allocN, frames float64
	for _, r := range plain {
		gcCPU += r.gcCPU
		busyCPU += r.cpuTotal
		allocB += float64(r.allocBytes)
		allocN += float64(r.allocObjs)
		frames += float64(r.frames)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	l := ref.layer
	var drops int64
	for _, v := range l.nicDrops {
		drops += v
	}

	m["workload.setup_s"] = metric{median(wlSetup), "s"}
	m["workload.on_send_ns"] = metric{perCall(runRows[spanOnSend]), "ns"}
	m["tcp.build_frame_s"] = metric{median(buildFrame), "s"}
	m["rpc.marshal_s"] = metric{median(marshal), "s"}
	m["kv.receive_ns"] = metric{perCall(runRows[spanKVReceive]), "ns"}
	m["kv.hit_ratio"] = metric{ratio(float64(l.kvHits), float64(l.kvHits+l.kvMisses)), "ratio"}
	m["kv.dropped"] = metric{float64(l.kvDropped), "count"}
	m["kv.malformed"] = metric{float64(l.kvMalformed), "count"}
	m["fld.afu_ns"] = metric{perCall(runRows[spanAFU]), "ns"}
	m["fld.rx_packets"] = metric{float64(l.fldRx), "count"}
	m["fld.tx_packets"] = metric{float64(l.fldTx), "count"}
	m["fld.credit_stalls"] = metric{float64(l.creditStalls), "count"}
	m["fld.accel_stalls"] = metric{float64(l.accelStalls), "count"}
	m["nic.drops"] = metric{float64(drops), "count"}
	m["pcie.bytes_per_frame"] = metric{ratio(float64(l.pcieBytes), float64(l.fldRx)), "B/frame"}
	m["ethswitch.forwarded"] = metric{float64(l.swForwarded), "count"}
	m["ethswitch.tail_drops"] = metric{float64(l.swTailDrops), "count"}
	m["swdriver.rx_cb_ns"] = metric{perCall(runRows[spanRxCB]), "ns"}
	m["sim.rounds"] = metric{float64(l.simRounds), "count"}
	m["sim.merged_msgs"] = metric{float64(l.simMerged), "count"}
	m["sim.run_self_s"] = metric{median(simSelf), "s"}
	m["telemetry.snapshot_s"] = metric{median(snap), "s"}
	m["gc.cpu_frac"] = metric{ratio(gcCPU, busyCPU), "ratio"}
	m["alloc.bytes_per_frame"] = metric{ratio(allocB, frames), "B/frame"}
	m["alloc.objs_per_frame"] = metric{ratio(allocN, frames), "objs/frame"}
	for _, c := range cpuLayers {
		m[c.metric] = metric{frac(c.pkg), "ratio"}
	}
	m["trace.run_s"] = metric{tracedRun, "s"}
	m["trace.overhead_s"] = metric{tracedRun - plainRun, "s"}
	m["trace.spans"] = metric{float64(len(traced[0].tr.spans)), "count"}

	printLayerTable(w, fmt.Sprintf("run phase, %d traced reps", len(traced)), &runRows)
	printLayerTable(w, "setup phase", &setupRows)
	fmt.Fprintf(w, "run_s untraced %.6f s, traced %.6f s, tracing overhead %.6f s, %d spans per traced rep\n",
		plainRun, tracedRun, tracedRun-plainRun, len(traced[0].tr.spans))

	fmt.Fprintf(w, "CPU self samples by package (run phase, %d samples)\n", samples)
	pkgs := make([]string, 0, len(cpu))
	for p := range cpu {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		return cpu[pkgs[i]] > cpu[pkgs[j]] || cpu[pkgs[i]] == cpu[pkgs[j]] && pkgs[i] < pkgs[j]
	})
	for _, p := range pkgs {
		fmt.Fprintf(w, "  %-36s %7d %6.2f%%\n", p, cpu[p], 100*frac(p))
	}
	reasons := make([]string, 0, len(l.nicDrops))
	for r := range l.nicDrops {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(w, "nic drops %-24s %d\n", r, l.nicDrops[r])
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-22s %16.6f %s\n", k, m[k].Value, m[k].Unit)
	}
	return problems
}
