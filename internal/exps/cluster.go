package exps

import (
	"encoding/binary"
	"fmt"

	"flexdriver"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/perfmodel"
	"flexdriver/internal/sim"
	"flexdriver/internal/stats"
	"flexdriver/internal/swdriver"
)

// ClusterParams configures the cluster scaling experiment.
type ClusterParams struct {
	// Clients lists the client counts to sweep (default {1,2,4,8}).
	Clients []int
	// FLDCores is the number of FLD cores on the server's FPGA, load-
	// balanced by NIC RSS (§9).
	FLDCores int
	// FlowsPerClient is the number of UDP flows each client spreads its
	// load over; rounded up to a multiple of FLDCores.
	FlowsPerClient int
	// PerClientGbps is each client's offered goodput (Poisson arrivals).
	PerClientGbps float64
	// FrameSize is the UDP frame size in bytes.
	FrameSize int
	// QueueFrames bounds the switch's per-port output queues.
	QueueFrames int
	// Warmup, Window, Drain phase the measurement like the other
	// experiments: only the window counts.
	Warmup, Window, Drain flexdriver.Duration
	// Seed drives the per-client Poisson arrival streams.
	Seed int64
	// Workers pins the cluster scheduler's worker count (0 = one per
	// CPU, 1 = the sequential reference schedule). Results are
	// byte-identical at any setting; the determinism tests and the
	// parallel-speedup benchmarks sweep it.
	Workers int
	// Hosts, when positive, folds each point's N clients into this many
	// aggregated-client hosts (flexdriver.AggregatedClients) instead of
	// N discrete nodes: client gi keeps its discrete arrival stream
	// (Seed*1000+gi) and per-client flow set, so offered load is
	// unchanged while topology cost drops from N nodes to Hosts nodes.
	// Zero keeps the historical one-host-per-client build.
	Hosts int
	// Colocate racks every node and the switch on one shared engine —
	// the monolithic-baseline mode fldbench's scheduler-overhead ratio
	// measures against.
	Colocate bool
}

// DefaultClusterParams returns the standard sweep: N ∈ {1,2,4,8}
// clients at 5 Gbit/s each against a 4-core server, so the last point
// offers 40 Gbit/s into the 25 GbE server port and must tail-drop.
func DefaultClusterParams(window flexdriver.Duration) ClusterParams {
	return ClusterParams{
		Clients:        []int{1, 2, 4, 8},
		FLDCores:       4,
		FlowsPerClient: 32,
		PerClientGbps:  5,
		FrameSize:      512,
		QueueFrames:    64,
		Warmup:         150 * flexdriver.Microsecond,
		Window:         window,
		Drain:          250 * flexdriver.Microsecond,
		Seed:           1,
	}
}

// clusterPoint is one sweep point's measurements.
type clusterPoint struct {
	clients        int
	offeredGbps    float64
	achievedGbps   float64
	p50us, p99us   float64
	fldRx          []int64
	imbalance      float64 // max relative deviation from the per-core mean
	tailDrops      int64
	pcieMismatches int
	pending        int    // engine events left after quiesce
	telemHash      string // SHA-256 of the final telemetry snapshot
}

// installSwapEcho installs a cluster-aware echo AFU: unlike the verbatim
// echo (whose replies would hairpin into the switch's source filter), it
// swaps the headers so each reply is addressed to its client.
func installSwapEcho(f *flexdriver.FLD) {
	f.SetHandler(flexdriver.HandlerFunc(func(data []byte, md flexdriver.Metadata) {
		out := append([]byte(nil), data...)
		netpkt.SwapEcho(out)
		f.Send(0, out, md) //nolint:errcheck // credit-stall drops are open-loop loss
	}))
}

// balancedFlows picks source ports whose RSS hash spreads the client's
// flows exactly evenly over the server's cores — modeling a generator
// with enough flow entropy for RSS to balance (§9).
func balancedFlows(cli *flexdriver.Host, srv *flexdriver.Innova, flows, cores, size int) [][]byte {
	return balancedFlowsFrom(cli.NIC, srv, flows, cores, size, 4000)
}

// balancedFlowsFrom is balancedFlows with an explicit source NIC and
// starting sport: aggregated hosts carry many clients on one NIC, so
// each client scans from its own base port and keeps a distinct flow-tag
// set for RSS spread and telemetry attribution.
func balancedFlowsFrom(src *flexdriver.NIC, srv *flexdriver.Innova, flows, cores, size int, base uint16) [][]byte {
	per := (flows + cores - 1) / cores
	count := make([]int, cores)
	var out [][]byte
	for sport := base; len(out) < per*cores && sport < 65000; sport++ {
		f := netpkt.UDPFrame(src.MAC, srv.NIC.MAC, src.IP, srv.NIC.IP, sport, 7777,
			make([]byte, size-netpkt.UDPFrameOverhead))
		if b := int(netpkt.RSSHash(f)) % cores; count[b] < per {
			count[b]++
			out = append(out, f)
		}
	}
	return out
}

// runClusterPoint runs one sweep point: n clients, each an open-loop
// Poisson source over many flows, against the multi-FLD server behind
// the ToR switch.
func runClusterPoint(n int, p ClusterParams) clusterPoint {
	reg := flexdriver.NewRegistry()
	cl := flexdriver.NewCluster(
		flexdriver.WithDriver(genDriverParams()),
		flexdriver.WithTelemetry(reg),
		flexdriver.WithWorkers(p.Workers),
		flexdriver.WithColocated(p.Colocate),
	).SwitchQueueFrames(p.QueueFrames)

	// Server: one Innova, FLDCores cores behind an RSS TIR, each running
	// the header-swapping echo.
	srv := cl.AddInnova("server")
	rts := srv.ServeFLDs(p.FLDCores, func(rt *flexdriver.Runtime) { installSwapEcho(rt.FLD()) })
	srv.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToTIR: flexdriver.RSS(rts)}})

	// Clients: RSS-balanced flow sets, sequence stamping for RTT,
	// steering on own IP (flooded frames for other nodes miss). One
	// bookkeeping record per traffic-carrying host — each discrete
	// client, or each aggregated host folding many clients. Every
	// accumulator (latencies, rx bytes) is private to that host's shard
	// during the run and merged afterwards — shards run on real
	// goroutines, so shared accumulators would race.
	const seqOff = netpkt.UDPFrameOverhead
	measuring := false
	type client struct {
		eng    *sim.Engine
		port   *swdriver.EthPort
		frames [][]byte // discrete mode only; aggregated flows live in the source
		sent   int64
		sendAt []flexdriver.Time
		lat    []float64
		rxB    int64
	}
	hookRecv := func(c *client) {
		c.port.OnReceive = func(fr []byte, _ swdriver.RxMeta) {
			if len(fr) < seqOff+8 || !measuring {
				return
			}
			if seq := int64(binary.BigEndian.Uint64(fr[seqOff:])); seq < int64(len(c.sendAt)) {
				c.lat = append(c.lat, (c.eng.Now()-c.sendAt[seq]).Seconds()*1e6)
			}
			c.rxB += int64(len(fr))
		}
	}
	stopSending := p.Warmup + p.Window
	mean := flexdriver.Duration(float64(p.FrameSize*8) /
		(p.PerClientGbps * 1e9) * float64(flexdriver.Second))
	nhosts := n
	if p.Hosts > 0 && p.Hosts < n {
		nhosts = p.Hosts
	}
	clients := make([]*client, 0, nhosts)
	if p.Hosts > 0 {
		// Aggregated topology: n logical clients folded into nhosts
		// sources. Client gi keeps the arrival stream (Seed*1000+gi) it
		// would own as a discrete host, and its own flow-tag set (base
		// sport strided per client); stamps are host-level ordinals.
		flexdriver.SplitClients(n, nhosts, func(hi, b, k int) {
			c := &client{}
			src := cl.AddAggregatedClients(fmt.Sprintf("client%d", hi), flexdriver.AggregatedClientsConfig{
				Clients:    k,
				StreamSeed: p.Seed*1000 + int64(b),
				Stop:       stopSending,
				Setup: func(h *flexdriver.Host, ci int, _ *sim.Rand) flexdriver.ClientSetup {
					return flexdriver.ClientSetup{
						Flows: balancedFlowsFrom(h.NIC, srv, p.FlowsPerClient,
							p.FLDCores, p.FrameSize, uint16(4000+(b+ci)*97)),
						Mean: mean,
					}
				},
				OnSend: func(_ int, f []byte) {
					binary.BigEndian.PutUint64(f[seqOff:], uint64(c.sent))
					c.sendAt = append(c.sendAt, c.eng.Now())
					c.sent++
				},
			})
			c.eng, c.port = src.Host.Engine(), src.Port
			hookRecv(c)
			clients = append(clients, c)
		})
	} else {
		for ci := 0; ci < n; ci++ {
			h, port := cl.AddClient(fmt.Sprintf("client%d", ci))
			c := &client{eng: h.Engine(), port: port,
				frames: balancedFlows(h, srv, p.FlowsPerClient, p.FLDCores, p.FrameSize)}
			hookRecv(c)
			clients = append(clients, c)
		}

		// Open-loop load: each client draws i.i.d. exponential gaps
		// (Poisson arrivals) and round-robins its flow set, sending until
		// the window closes. (Aggregated sources drive themselves.)
		for ci, c := range clients {
			rng := sim.NewRand(p.Seed*1000 + int64(ci))
			c := c
			var tick func()
			tick = func() {
				if c.eng.Now() >= stopSending {
					return
				}
				f := append([]byte(nil), c.frames[int(c.sent)%len(c.frames)]...)
				binary.BigEndian.PutUint64(f[seqOff:], uint64(c.sent))
				c.sendAt = append(c.sendAt, c.eng.Now())
				c.sent++
				c.port.Send(f)
				c.eng.After(rng.Exp(mean), tick)
			}
			c.eng.After(rng.Exp(mean), tick)
		}
	}

	cl.RunUntil(p.Warmup)
	measuring = true
	cl.RunUntil(stopSending)
	measuring = false
	cl.RunUntil(stopSending + p.Drain)
	cl.Run()

	// Merge the per-shard accumulators now that every shard is idle.
	// Size hint: every measured-window packet can contribute one RTT
	// observation, so preallocate generously to keep Add off the slice
	// growth path at cluster scale.
	lat := stats.NewSample(1 << 16)
	var rxBytes int64
	for _, c := range clients {
		for _, v := range c.lat {
			lat.Add(v)
		}
		rxBytes += c.rxB
	}

	pt := clusterPoint{
		clients:      n,
		offeredGbps:  float64(n) * p.PerClientGbps,
		achievedGbps: float64(rxBytes) * 8 / p.Window.Seconds() / 1e9,
		p50us:        lat.Median(),
		p99us:        lat.Percentile(99),
		pending:      cl.Pending(),
	}
	var total int64
	for _, rt := range rts {
		rx := rt.FLD().Stats.RxPackets
		pt.fldRx = append(pt.fldRx, rx)
		total += rx
	}
	coreMean := float64(total) / float64(len(rts))
	for _, rx := range pt.fldRx {
		if dev := abs(float64(rx)-coreMean) / coreMean; dev > pt.imbalance {
			pt.imbalance = dev
		}
	}
	for _, port := range cl.Switch().Ports() {
		pt.tailDrops += port.Counters.TailDrops
	}
	snap := reg.Snapshot()
	pt.telemHash = snap.Hash()
	pt.pcieMismatches = cl.PCIeMismatches(snap)
	return pt
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Cluster sweeps N clients against one multi-FLD server behind a ToR
// switch (the §9 scaling topology) and checks:
//
//   - aggregate goodput tracks the offered load while it fits the
//     server's 25 GbE port, and saturates at the Ethernet bound beyond;
//   - RSS keeps per-FLD load imbalance under 20%;
//   - the switch's bounded queues tail-drop only under overload;
//   - p99 latency inflates at saturation;
//   - PCIe telemetry reconciles byte-exactly on every node;
//   - the engine quiesces at every point.
func Cluster(p ClusterParams) *Result {
	r := &Result{ID: "cluster",
		Title: fmt.Sprintf("Cluster scale-out: N clients vs %d FLD cores behind RSS (§9)", p.FLDCores)}
	r.Columns = []string{"clients", "offered Gb/s", "achieved Gb/s", "p50 us", "p99 us", "per-FLD rx / drops"}

	bound := perfmodel.EthernetGoodput(25, p.FrameSize)
	points := make([]clusterPoint, 0, len(p.Clients))
	for _, n := range p.Clients {
		pt := runClusterPoint(n, p)
		points = append(points, pt)
		r.AddRow(d0(pt.clients), f1(pt.offeredGbps), f2(pt.achievedGbps),
			f1(pt.p50us), f1(pt.p99us),
			fmt.Sprintf("%v / %d", pt.fldRx, pt.tailDrops))
	}

	var mismatches, pending int
	maxImb := 0.0
	underOK, monotone := true, true
	var drops0, dropsOver int64
	anyOver := false
	prev := 0.0
	for i, pt := range points {
		mismatches += pt.pcieMismatches
		pending += pt.pending
		if pt.imbalance > maxImb {
			maxImb = pt.imbalance
		}
		if pt.offeredGbps <= 0.9*bound {
			if pt.achievedGbps < 0.9*pt.offeredGbps {
				underOK = false
			}
			drops0 += pt.tailDrops
		}
		if pt.offeredGbps >= 1.2*bound {
			anyOver = true
			dropsOver += pt.tailDrops
		}
		if i > 0 && pt.achievedGbps < 0.98*prev {
			monotone = false
		}
		prev = pt.achievedGbps
	}
	last := points[len(points)-1]

	r.Check("goodput tracks offered load below the wire bound", 1, b2f(underOK), "",
		underOK, ">= 90% of offered while it fits 25 GbE")
	r.Check("goodput scales monotonically with clients", 1, b2f(monotone), "", monotone, "")
	if anyOver {
		satOK := within(last.achievedGbps, bound, 0.15) && last.achievedGbps <= 1.02*bound
		r.Check("overload saturates at the 25 GbE bound", bound, last.achievedGbps, "Gbit/s",
			satOK, "switch fan-in caps the server port")
		r.Check("switch tail-drops only under overload", 0, float64(drops0), "frames",
			drops0 == 0 && dropsOver > 0,
			fmt.Sprintf("%d drops at the overloaded points", dropsOver))
		p99OK := last.p99us > points[0].p99us
		r.Check("p99 latency inflates at saturation", points[0].p99us, last.p99us, "us",
			p99OK, "queueing delay at the congested port")
	}
	r.Check("per-FLD imbalance under RSS", 0.20, maxImb, "rel",
		maxImb < 0.20, "max relative deviation from the per-core mean")
	r.Check("PCIe byte counters reconcile on every node", 0, float64(mismatches),
		"mismatches", mismatches == 0, "telemetry vs Port.{Up,Down}Bytes, all nodes")
	r.Check("sim engine quiesced at every point", 0, float64(pending), "events",
		pending == 0, "")
	return r
}
