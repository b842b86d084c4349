package scenario

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/faults"
	"flexdriver/internal/nic"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// runState carries everything the invariant checks need to cross-examine
// a finished run: the cluster's layers, the fault plan's tallies, and
// the bookkeeping the workload kept on the side.
type runState struct {
	spec    Spec
	cl      *flexdriver.Cluster
	reg     *flexdriver.Registry
	plan    *faults.Plan
	rts     []*flexdriver.Runtime
	tn      *tenantRun // nil unless spec.Tenants > 0
	clients []*client
	sups    []*swdriver.Supervisor
	epA     *swdriver.RDMAEndpoint
	epB     *swdriver.RDMAEndpoint

	rdmaBad, rdmaGhosts int64
	echoSendFails       int64

	// TCP sidecar endpoints and tallies (nil/zero unless spec.Proto set).
	tepA, tepB        *swdriver.TCPEndpoint
	tcpBad, tcpGhosts int64
	// kv-server reasoned losses (proto=rpc): credit-stall response drops
	// and parse rejections, both part of the conservation budget.
	kvDrops, kvMalformed int64
}

// node is one racked node's identity for per-node checks.
type node struct {
	name string
	nic  *nic.NIC
}

func (st *runState) nodes() []node {
	var ns []node
	for _, inn := range st.cl.Innovas {
		ns = append(ns, node{inn.Name(), inn.NIC})
	}
	for _, h := range st.cl.Hosts {
		ns = append(ns, node{h.Name(), h.NIC})
	}
	return ns
}

// checkInvariants appends one Violation per failed global invariant.
// Every check is phrased as a conservation or reconciliation law, so a
// violation means real state went missing or was manufactured — not that
// a tuning threshold was missed.
func checkInvariants(res *Result, st *runState) {
	snap := st.reg.Snapshot()
	res.Hash = snap.Hash()
	bad := func(invariant, format string, args ...any) {
		res.Violations = append(res.Violations, Violation{invariant, fmt.Sprintf(format, args...)})
	}

	inj := res.Injected
	nodes := st.nodes()

	// Frame conservation: every sent frame is delivered, or its loss is
	// recorded somewhere with a reason — an injected fault (each worth at
	// most one flushed 512-entry ring of collateral), a switch tail drop,
	// a NIC drop counter, or an echo-side send failure. A fault-free,
	// uncongested scenario therefore has a budget of zero: any loss at
	// all is a ghost drop. (The PlantLossNth hook manufactures exactly
	// such a drop, and this is the invariant that must catch it.)
	var nicDrops int64
	for _, nd := range nodes {
		for _, v := range nd.nic.Stats.Drops {
			nicDrops += v
		}
	}
	var short int64
	for _, c := range st.clients {
		short += c.short
	}
	swStats := st.cl.Switch().Stats
	budget := 512*inj.Total() + res.TailDrops + nicDrops + st.echoSendFails +
		swStats.Malformed + short + st.kvDrops + st.kvMalformed
	if res.Lost > budget {
		bad("frame-conservation",
			"%d of %d frames lost but only %d accounted for (injected=%d tail=%d nic=%d echo-fail=%d kv=%d)",
			res.Lost, res.Sent, budget, inj.Total(), res.TailDrops, nicDrops, st.echoSendFails,
			st.kvDrops+st.kvMalformed)
	}

	// No ghost frames: a client must never receive a sequence number it
	// has not sent — no layer may manufacture packets.
	var ghosts int64
	for _, c := range st.clients {
		ghosts += c.ghosts
	}
	if ghosts > 0 {
		bad("ghost-frames", "%d frames delivered with sequence numbers never sent", ghosts)
	}

	// No duplication beyond the plan's injected wire duplicates — plus
	// the at-least-once replay of crash recovery: a NIC FLR, node crash
	// or FLD reset makes the driver replay its unacknowledged send window
	// (up to one 512-entry ring per episode), so frames already delivered
	// before the crash legitimately arrive twice. Driver-process crashes
	// drop their window instead of replaying it and earn no allowance.
	maxDups := inj.WireDups + 512*(inj.NICFLRs+inj.NodeCrashes+inj.FLDResets)
	// Tenant drains may heal a silently lost posting by replaying the
	// FLD's descriptor window (fldsw.NudgeTx): at-least-once delivery,
	// one window per drain episode.
	if st.tn != nil {
		maxDups += 512 * snap.Get("server/ctrlplane/drains")
	}
	if res.Dups > maxDups {
		bad("duplication", "%d duplicate deliveries vs %d allowed (%d injected wire dups)",
			res.Dups, maxDups, inj.WireDups)
	}

	// Byte-exact PCIe reconciliation on every node: the telemetry tree's
	// per-device byte counters must equal each fabric port's independent
	// accounting, faults or not.
	if mismatches := st.cl.PCIeMismatches(snap); mismatches > 0 {
		bad("pcie-reconcile", "%d PCIe ports with telemetry/port byte mismatches", mismatches)
	}

	// CQE/WQE matching, from the telemetry tree alone: every completion
	// the NIC wrote corresponds to an executed send WQE, a placed receive
	// packet, or an error-state announcement — and every placed packet
	// announces a completion. More CQEs than causes means completions
	// were manufactured; fewer than placements means one went missing —
	// excusable only by an injected fault (a dropped PCIe TLP can kill
	// the completion write after the payload already landed), so the
	// receive-side bound is exact on a fault-free run.
	// VF-owned queues instrument under <node>/nic/vf<ID>/{sq,rq,cq}<ID>/
	// rather than the PF's flat paths, so the sums take both scopes; the
	// law itself is VF-blind.
	for _, nd := range nodes {
		executed := snap.Sum(nd.name+"/nic/sq", "/wqe_executed") +
			snap.Sum(nd.name+"/nic/vf", "/wqe_executed")
		placed := snap.Sum(nd.name+"/nic/rq", "/packets") +
			snap.Sum(nd.name+"/nic/vf", "/packets")
		cqes := snap.Sum(nd.name+"/nic/cq", "/cqes") +
			snap.Sum(nd.name+"/nic/vf", "/cqes")
		errs := nd.nic.Stats.QueueErrors
		if cqes > executed+placed+errs {
			bad("cqe-wqe", "%s: %d CQEs exceed %d executed WQEs + %d placed packets + %d errors",
				nd.name, cqes, executed, placed, errs)
		}
		if placed > cqes+inj.Total() {
			bad("cqe-wqe", "%s: %d placed packets but only %d CQEs announced (%d faults injected)",
				nd.name, placed, cqes, inj.Total())
		}
	}

	// Buffer-pool balance: every shard's pool must have every buffer
	// returned once the run quiesces (free-on-delivery ownership).
	var out int64
	for _, eng := range st.cl.Engines() {
		out += eng.Bufs().Outstanding()
	}
	if out != 0 {
		bad("bufpool-leak", "%d pool buffers still outstanding after quiescence", out)
	}

	// Cluster quiescence: no wedged retry or recovery loop keeps
	// scheduling events after traffic stops, on any shard or in flight
	// between shards.
	if n := st.cl.Pending(); n != 0 {
		bad("quiesce", "%d events still pending after drain", n)
	}

	// Recovery: every runtime and client queue is back in Ready, and
	// every queue error was answered by a driver reset.
	for i, rt := range st.rts {
		if !rt.QueuesReady() {
			bad("queues-recovered", "server FLD runtime %d has queues not in Ready", i)
		}
	}
	for i, c := range st.clients {
		if c.port.SQ().State() != nic.QueueReady || c.port.RQ().State() != nic.QueueReady {
			bad("queues-recovered", "client%d port queues not in Ready", i)
		}
	}
	if st.epA != nil {
		for i, ep := range []*swdriver.RDMAEndpoint{st.epA, st.epB} {
			if ep.QP.State() != nic.QueueReady ||
				ep.QP.SQ.State() != nic.QueueReady || ep.QP.RQ.State() != nic.QueueReady {
				bad("queues-recovered", "RDMA sidecar endpoint %d has rings not in Ready", i)
			}
		}
	}
	// Error/recovery pairing holds exactly only without crash classes: a
	// crash window fails every ring at once and recovery then proceeds
	// wholesale (FLR, reattach) rather than per-error, so the per-queue
	// ledger legitimately diverges. Ready-state above is the crash-safe
	// form of the same claim.
	crashes := inj.FLDResets + inj.NICFLRs + inj.NodeCrashes + inj.DrvCrashes + inj.SwReboots
	if crashes == 0 {
		for _, nd := range nodes {
			if nd.nic.Stats.QueueErrors > nd.nic.Stats.QueueRecoveries {
				bad("queues-recovered", "%s: %d queue errors vs %d recoveries",
					nd.name, nd.nic.Stats.QueueErrors, nd.nic.Stats.QueueRecoveries)
			}
		}
	}

	// Supervision ladder: recovery must always converge — an abandoned
	// episode means the ladder ran out its whole attempt budget without
	// healing — and when episodes closed, the worst MTTR is bounded by
	// the longest injected outage plus deterministic ladder overhead
	// (watchdog cadence, backoff, drain). Unbounded MTTR is exactly the
	// wedged-recovery failure mode this layer exists to rule out.
	for _, h := range st.cl.Hosts {
		base := h.Name() + "/supervisor/"
		res.SupEpisodes += snap.Get(base + "episodes")
		if n := snap.Get(base + "abandoned"); n > 0 {
			bad("mttr-bounded", "%s: %d recovery episodes abandoned", h.Name(), n)
		}
		if st.plan == nil || snap.Get(base+"episodes") == 0 {
			continue
		}
		bound := int64(3*st.plan.Cfg.MaxCrashFor() + 100*sim.Microsecond)
		if hi := snap.Gauges[base+"mttr_max"].High; hi > bound {
			bad("mttr-bounded", "%s: worst MTTR %dns exceeds bound %dns",
				h.Name(), hi/1000, bound/1000)
		}
	}

	// The plan's telemetry mirror must agree with its own tallies.
	if st.plan != nil {
		if tel := snap.Sum("faults/injected/", ""); tel != inj.Total() {
			bad("faults-telemetry", "faults/injected/* sums to %d, plan tallied %d", tel, inj.Total())
		}
	}

	// The NIC's packet counters flow through two independent paths
	// (Stats fields and telemetry counters); they must agree exactly.
	for _, nd := range nodes {
		if snap.Get(nd.name+"/nic/tx/packets") != nd.nic.Stats.TxPackets ||
			snap.Get(nd.name+"/nic/rx/packets") != nd.nic.Stats.RxPackets {
			bad("telemetry-mirror", "%s: NIC Stats and telemetry tx/rx packet counters disagree", nd.name)
		}
	}

	// Likewise the host drivers' error/crash ledgers: the raw Stats
	// fields and their telemetry mirrors increment on independent lines,
	// so any disagreement means an error path skipped its bookkeeping.
	for _, h := range st.cl.Hosts {
		d := h.Drv
		base := h.Name() + "/swdriver/"
		if snap.Get(base+"errors/cqe") != d.CQEErrors ||
			snap.Get(base+"errors/tx") != d.TxErrors ||
			snap.Get(base+"errors/rx") != d.RxErrors ||
			snap.Get(base+"errors/recoveries") != d.Recoveries ||
			snap.Get(base+"crashes") != d.Crashes ||
			snap.Get(base+"down/tx_drops") != d.DownTxDrops {
			bad("telemetry-mirror", "%s: driver Stats and telemetry error/crash counters disagree", h.Name())
		}
	}

	// Multi-tenant isolation and convergence. Leakage is zero-tolerance:
	// no fault class, drain race or steering rewrite excuses a reply
	// carrying a foreign tenant's identity (the PlantLeakNth hook
	// manufactures exactly such a reply, and this is the invariant that
	// must catch it). The reconciler must also have converged on the
	// final spec version — v2 if the scenario reconfigured mid-window —
	// without abandoning an episode, with every tenant queue back Ready.
	if st.tn != nil {
		var leaks int64
		for _, c := range st.clients {
			leaks += c.leaks
		}
		if leaks > 0 {
			bad("tenant-leak", "%d replies delivered with a foreign tenant's source port", leaks)
		}
		rec := st.tn.tm.Reconciler()
		wantV := 1
		if st.spec.Reconfig {
			wantV = 2
		}
		if !rec.Converged() || rec.Version() != wantV {
			bad("tenancy-converged", "reconciler at version %d (converged=%v), want version %d",
				rec.Version(), rec.Converged(), wantV)
		}
		if n := snap.Get("server/ctrlplane/abandoned"); n > 0 {
			bad("tenancy-converged", "%d reconcile episodes abandoned", n)
		}
		for _, name := range st.tn.names {
			for i, rt := range st.tn.tm.Runtimes(name) {
				if !rt.QueuesReady() {
					bad("queues-recovered", "tenant %s runtime %d has queues not in Ready", name, i)
				}
			}
		}
	}

	// RDMA sidecar: the reliable transport may lose messages only to
	// injected faults, must never corrupt one, and must never deliver a
	// message that was not sent.
	if st.spec.RDMA {
		if st.rdmaBad > 0 {
			bad("rdma-corruption", "%d delivered messages failed byte verification", st.rdmaBad)
		}
		if st.rdmaGhosts > 0 || res.RDMADelivered > res.RDMASent {
			bad("rdma-ghost", "delivered %d messages, sent %d (%d with unsent ordinals)",
				res.RDMADelivered, res.RDMASent, st.rdmaGhosts)
		}
		if inj.Total() == 0 && res.RDMADelivered != res.RDMASent {
			bad("rdma-delivery", "fault-free run delivered %d of %d messages",
				res.RDMADelivered, res.RDMASent)
		}
	}

	// TCP sidecar: the byte-stream transport must never corrupt or
	// manufacture a message, and on a fault-free run it must deliver
	// every one — a stalled connection that burns its retry budget and
	// flushes queued messages (the planted ack-drop defect) surfaces
	// here as missing deliveries with no fault to excuse them.
	if st.spec.Proto != "" {
		if st.tcpBad > 0 {
			bad("tcp-corruption", "%d decoded messages failed byte verification", st.tcpBad)
		}
		if st.tcpGhosts > 0 || res.TCPDelivered > res.TCPSent {
			bad("tcp-ghost", "delivered %d messages, sent %d (%d with unsent ordinals)",
				res.TCPDelivered, res.TCPSent, st.tcpGhosts)
		}
		if inj.Total() == 0 && res.TCPDelivered != res.TCPSent {
			bad("tcp-delivery", "fault-free run delivered %d of %d stream messages",
				res.TCPDelivered, res.TCPSent)
		}
		for i, ep := range []*swdriver.TCPEndpoint{st.tepA, st.tepB} {
			if ep.Port().SQ().State() != nic.QueueReady || ep.Port().RQ().State() != nic.QueueReady {
				bad("queues-recovered", "TCP sidecar endpoint %d has rings not in Ready", i)
			}
		}
	}
}
