package main

import (
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/echo"
	"flexdriver/internal/accel/kv"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/nic"
	"flexdriver/internal/perfmodel"
	"flexdriver/internal/rpc"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
	"flexdriver/internal/tcp"
)

// spec is one benchmark workload: fixed simulated phases (only the
// window is measured) and a builder that wires topology, rules and
// traffic for a seed into a bed.
type spec struct {
	name                  string
	warmup, window, drain flexdriver.Duration
	build                 func(b *bed, s spec, seed int64)
}

var specs = []spec{
	{name: "kv100k", warmup: 100 * flexdriver.Microsecond, window: 3 * flexdriver.Millisecond,
		drain: 150 * flexdriver.Microsecond, build: buildKV100k},
	{name: "echo16", warmup: 150 * flexdriver.Microsecond, window: 6 * flexdriver.Millisecond,
		drain: 250 * flexdriver.Microsecond, build: buildEcho16},
	{name: "echo64", warmup: 150 * flexdriver.Microsecond, window: 1 * flexdriver.Millisecond,
		drain: 100 * flexdriver.Microsecond, build: buildEcho64},
}

// genDriver models a multi-queue line-rate load generator: negligible
// per-packet software cost (the experiments' generator driver).
func genDriver() flexdriver.DriverParams {
	return flexdriver.DriverParams{
		RxCost: 4 * flexdriver.Nanosecond, TxCost: 4 * flexdriver.Nanosecond,
		DoorbellBatch: 8, SignalEvery: 8,
	}
}

// client is one traffic-carrying host's bookkeeping. Every request
// carries the host-level ordinal of its send at idOff, and the server
// echoes it back, so a response settles exactly one request.
type client struct {
	eng          *flexdriver.Engine
	idOff        int
	sendAt       []flexdriver.Time // when each request was due and sent
	doneAt       []flexdriver.Time // when its response arrived; 0 = unanswered
	winLo, winHi int               // ordinals sent inside the window
	rxFrames     int64             // responses received over the whole run
	rxBytesW     int64             // response bytes received inside the window
}

// stamp writes the next ordinal into a request about to be sent.
func (c *client) stamp(f []byte) {
	ord := uint64(len(c.sendAt))
	for i := 7; i >= 0; i-- {
		f[c.idOff+i] = byte(ord)
		ord >>= 8
	}
	c.sendAt = append(c.sendAt, c.eng.Now())
	c.doneAt = append(c.doneAt, 0)
}

// receive settles the request a response answers; the first response
// to a request counts.
func (c *client) receive(fr []byte, measuring bool) {
	c.rxFrames++
	if measuring {
		c.rxBytesW += int64(len(fr))
	}
	if len(fr) < c.idOff+8 {
		return
	}
	var ord uint64
	for i := 0; i < 8; i++ {
		ord = ord<<8 | uint64(fr[c.idOff+i])
	}
	if ord < uint64(len(c.doneAt)) && c.doneAt[ord] == 0 {
		c.doneAt[ord] = c.eng.Now()
	}
}

// bed is one built workload instance, ready to run.
type bed struct {
	tr        *tracer
	reg       *flexdriver.Registry
	cl        *flexdriver.Cluster
	sw        *flexdriver.EthSwitch // nil on the switchless pair
	server    *flexdriver.Innova
	flds      []*flexdriver.FLD
	clients   []*client
	measuring bool
	// check adds the workload's own checks once the run has drained.
	check func(b *bed, r *rep)
}

func (b *bed) newClient(eng *flexdriver.Engine, idOff int) *client {
	c := &client{eng: eng, idOff: idOff}
	b.clients = append(b.clients, c)
	return c
}

// serverCores wires n FLD cores on the server, each with a transmit
// queue and the default egress-to-wire rule, and returns their runtimes.
func (b *bed) serverCores(n int) []*flexdriver.Runtime {
	srv := b.server
	rts := []*flexdriver.Runtime{srv.RT}
	for i := 1; i < n; i++ {
		_, rt := srv.AddFLD(srv.FLD.Config())
		rts = append(rts, rt)
	}
	for _, rt := range rts {
		rt.CreateEthTxQueue(0, nil)
		flexdriver.NewEControlPlane(rt).InstallDefaultEgressToWire()
		rt.Start()
		b.flds = append(b.flds, rt.FLD())
	}
	return rts
}

// rssRule steers every frame arriving at the server through one RSS TIR
// spreading over the cores' receive queues.
func (b *bed) rssRule(rts []*flexdriver.Runtime) {
	var rqs []*nic.RQ
	for _, rt := range rts {
		rqs = append(rqs, rt.RQ())
	}
	b.server.NIC.ESwitch().AddRule(0, flexdriver.Rule{
		Action: flexdriver.Action{ToTIR: &nic.TIR{RQs: rqs}}})
}

// hostPort gives a host an EthPort that receives frames addressed to it.
func hostPort(h *flexdriver.Host) *swdriver.EthPort {
	port := h.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	ip := h.NIC.IP
	h.NIC.ESwitch().AddRule(0, flexdriver.Rule{
		Match:  flexdriver.Match{DstIP: &ip},
		Action: flexdriver.Action{ToRQ: port.RQ()}})
	return port
}

// udpFrame builds a UDP frame between two NICs.
func udpFrame(src, dst *flexdriver.NIC, sport, dport uint16, size int) []byte {
	n := size - netpkt.EthHeaderLen - netpkt.IPv4HeaderLen - netpkt.UDPHeaderLen
	udp := netpkt.UDP{SrcPort: sport, DstPort: dport, Length: uint16(netpkt.UDPHeaderLen + n)}
	l4 := append(udp.Marshal(nil), make([]byte, n)...)
	ip := netpkt.IPv4{TotalLen: uint16(netpkt.IPv4HeaderLen + len(l4)), Proto: netpkt.ProtoUDP,
		Src: src.IP, Dst: dst.IP}
	l3 := append(ip.Marshal(nil), l4...)
	eth := netpkt.Eth{Dst: dst.MAC, Src: src.MAC, EtherType: netpkt.EtherTypeIPv4}
	return append(eth.Marshal(nil), l3...)
}

// udpIDOff is where echo requests carry their ordinal: the first UDP
// payload bytes, after Eth(14) + IPv4(20) + UDP(8).
const udpIDOff = 42

// openLoop sends frames from a discrete client at gaps drawn by gap
// until stop, round-robining its flows. Sends never wait for replies.
func openLoop(c *client, port *swdriver.EthPort, flows [][]byte, gap func() flexdriver.Duration, stop flexdriver.Time) {
	var tick func()
	tick = func() {
		if c.eng.Now() >= stop {
			return
		}
		f := append([]byte(nil), flows[len(c.sendAt)%len(flows)]...)
		c.stamp(f)
		port.Send(f)
		c.eng.After(gap(), tick)
	}
	c.eng.After(gap(), tick)
}

// buildEcho16: 16 discrete UDP clients, Poisson 512 B frames at
// 1.1 Gbit/s each, through the ToR switch into a 4-core swap-echo FLD
// server behind RSS.
func buildEcho16(b *bed, s spec, seed int64) {
	const clients, cores, flowsPerClient, size = 16, 4, 32, 512
	// 17.6 Gbit/s in all, 70% of the server's 25 GbE port: below
	// saturation, so p999 reflects queueing and not overflow, and
	// steady across seeds (at 90% it spread by 14-27%).
	perClientGbps := 1.1
	sp := b.tr.begin(spanTopology)
	b.cl = flexdriver.NewCluster(
		flexdriver.WithDriver(genDriver()),
		flexdriver.WithTelemetry(b.reg),
		flexdriver.WithWorkers(1),
	).SwitchQueueFrames(64)
	b.server = b.cl.AddInnova("server")
	b.sw = b.cl.Switch()
	rts := b.serverCores(cores)
	for _, rt := range rts {
		b.swapEcho(rt.FLD())
	}
	b.rssRule(rts)
	b.tr.end(sp)

	sp = b.tr.begin(spanWorkloadSetup)
	stop := s.warmup + s.window
	mean := flexdriver.Duration(size * 8 / (perClientGbps * 1e9) * float64(flexdriver.Second))
	for ci := 0; ci < clients; ci++ {
		h := b.cl.AddHost(fmt.Sprintf("client%d", ci))
		port := hostPort(h)
		c := b.newClient(h.Engine(), udpIDOff)
		b.hookReceive(c, port)
		flows := balancedFlows(h.NIC, b.server.NIC, flowsPerClient, cores, size)
		rng := sim.NewRand(seed*1000 + int64(ci))
		openLoop(c, port, flows, func() flexdriver.Duration { return rng.Exp(mean) }, stop)
	}
	b.tr.end(sp)
}

// balancedFlows picks source ports whose RSS hash spreads a client's
// flows evenly over the server's cores, as a generator with enough flow
// entropy would.
func balancedFlows(src, dst *flexdriver.NIC, flows, cores, size int) [][]byte {
	per := (flows + cores - 1) / cores
	count := make([]int, cores)
	var out [][]byte
	for sport := uint16(4000); len(out) < per*cores && sport < 65000; sport++ {
		f := udpFrame(src, dst, sport, 7777, size)
		if q := int(netpkt.RSSHash(f)) % cores; count[q] < per {
			count[q]++
			out = append(out, f)
		}
	}
	return out
}

// swapEcho installs an echo handler that reverses the Ethernet, IPv4
// and UDP addressing so each reply routes back through the switch to
// its sender. Pure swaps keep the IPv4 header checksum valid.
func (b *bed) swapEcho(f *flexdriver.FLD) {
	f.SetHandler(flexdriver.HandlerFunc(func(data []byte, md flexdriver.Metadata) {
		sp := b.tr.begin(spanAFU)
		out := append([]byte(nil), data...)
		for i := 0; i < 6; i++ {
			out[i], out[6+i] = out[6+i], out[i]
		}
		for i := 0; i < 4; i++ {
			out[26+i], out[30+i] = out[30+i], out[26+i]
		}
		out[34], out[36] = out[36], out[34]
		out[35], out[37] = out[37], out[35]
		f.Send(0, out, md) //nolint:errcheck // a credit stall is open-loop loss, counted as a failure
		b.tr.end(sp)
	}))
}

func (b *bed) hookReceive(c *client, port *swdriver.EthPort) {
	port.OnReceive = func(fr []byte, _ swdriver.RxMeta) {
		sp := b.tr.begin(spanRxCB)
		c.receive(fr, b.measuring)
		b.tr.end(sp)
	}
}

// buildEcho64: one client cabled to an FLD-E echo server (no switch),
// 64 B frames at 95% of the model's bound. Like a hardware packet
// generator it paces its frames; the seed draws a uniform +-50% jitter
// on each gap. (Poisson arrivals at 95% made p999 spread by 17% across
// seeds.)
func buildEcho64(b *bed, s spec, seed int64) {
	const size, load = 64, 0.95
	sp := b.tr.begin(spanTopology)
	rp := flexdriver.NewRemotePair(
		flexdriver.WithDriver(genDriver()),
		flexdriver.WithTelemetry(b.reg),
		flexdriver.WithWorkers(1),
	)
	b.cl, b.server = rp.Cluster(), rp.Server
	b.serverCores(1)
	b.server.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: b.server.RT.RQ()}})
	afu := echo.New(b.server.FLD)
	b.server.FLD.SetHandler(flexdriver.HandlerFunc(func(data []byte, md flexdriver.Metadata) {
		sp := b.tr.begin(spanAFU)
		afu.Receive(data, md)
		b.tr.end(sp)
	}))
	b.tr.end(sp)

	sp = b.tr.begin(spanWorkloadSetup)
	port := rp.Client.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	rp.Client.NIC.ESwitch().AddRule(0, flexdriver.Rule{Action: flexdriver.Action{ToRQ: port.RQ()}})
	c := b.newClient(rp.Client.Engine(), udpIDOff)
	b.hookReceive(c, port)
	// perfmodel's FLD-E remote bound: the 25 GbE model with the FLD
	// pipeline's 31.25 Mpps ceiling, as the Figure 7b experiment has it.
	em := perfmodel.DefaultEchoModel(25)
	em.PpsCap = 31.25e6
	model := em.Goodput(size)
	pps := load * model * 1e9 / (size * 8)
	mean := flexdriver.Duration(float64(flexdriver.Second) / pps)
	frame := udpFrame(rp.Client.NIC, b.server.NIC, 4000, 7777, size)
	rng := sim.NewRand(seed * 1000)
	gap := func() flexdriver.Duration { return flexdriver.Duration(float64(mean) * (0.5 + rng.Float64())) }
	openLoop(c, port, [][]byte{frame}, gap, s.warmup+s.window)
	b.tr.end(sp)

	b.check = func(b *bed, r *rep) {
		r.check("echo64 goodput >= 0.9x the FLD-E model", r.goodputGbps >= 0.9*model,
			fmt.Sprintf("%.3f vs model %.3f Gbit/s", r.goodputGbps, model))
	}
}

// KV request layout: Eth+IPv4+TCP, then the RPC header. The TCP
// sequence number, RPC op, correlation ID and key are stamped per
// request; the IPv4 checksum covers only L3, so the frame stays valid.
const (
	kvSeqOff = 38 // Eth(14) + IPv4(20) + seq at TCP+4
	kvOpOff  = tcp.FrameOverhead + 1
	kvIDOff  = tcp.FrameOverhead + rpc.IDOffset
	kvKeyOff = tcp.FrameOverhead + rpc.HeaderLen
)

// buildKV100k: 10^5 flow-level TCP connections on 16 aggregated hosts
// issue Zipf GET/PUT requests (every 8th a PUT) of 214 B frames,
// 10 Gbit/s open loop, into 4 kv AFU cores.
func buildKV100k(b *bed, s spec, seed int64) {
	const (
		conns, hosts, cores = 100000, 16, 4
		keyBytes, valBytes  = 16, 128
		keys, zipfS         = 1 << 16, 1.07
		putEvery            = 8
		offeredGbps         = 10.0
	)
	reqLen := rpc.HeaderLen + keyBytes + valBytes
	reqBytes := tcp.FrameOverhead + reqLen

	sp := b.tr.begin(spanTopology)
	b.cl = flexdriver.NewCluster(
		flexdriver.WithDriver(genDriver()),
		flexdriver.WithTelemetry(b.reg),
		flexdriver.WithWorkers(1),
	).SwitchQueueFrames(256)
	b.server = b.cl.AddInnova("server")
	b.sw = b.cl.Switch()
	srv := b.server
	rts := b.serverCores(cores)
	var kvs []*kv.AFU
	for _, rt := range rts {
		a := kv.New(rt.FLD())
		rt.FLD().SetHandler(flexdriver.HandlerFunc(func(data []byte, md flexdriver.Metadata) {
			sp := b.tr.begin(spanKVReceive)
			a.Receive(data, md)
			b.tr.end(sp)
		}))
		kvs = append(kvs, a)
	}
	b.rssRule(rts)
	b.tr.end(sp)

	// Connection gi owns arrival stream seed*1000+gi, the 4-tuple
	// (hostIP, 2048+local, server, 7777) and a request counter that
	// sets its TCP sequence and op; popularity is a per-host Zipf
	// stream.
	perConn := make([]uint32, conns)
	stop := s.warmup + s.window
	mean := flexdriver.Duration(float64(reqBytes*8) / (offeredGbps * 1e9 / conns) * float64(flexdriver.Second))
	for hi, base := 0, 0; hi < hosts; hi++ {
		k := conns / hosts
		if hi < conns%hosts {
			k++
		}
		bse := base
		var c *client
		zipf := sim.NewLightRand(seed*77+int64(hi)).Zipf(zipfS, 1, keys-1)
		sp := b.tr.begin(spanWorkloadSetup)
		src := b.cl.AddAggregatedClients(fmt.Sprintf("client%d", hi), flexdriver.AggregatedClientsConfig{
			Clients:    k,
			StreamSeed: seed*1000 + int64(bse),
			Stop:       stop,
			Rand:       sim.NewLightRand,
			Setup: func(h *flexdriver.Host, ci int, _ *sim.Rand) flexdriver.ClientSetup {
				req := rpc.Frame{Op: rpc.OpPut, Key: make([]byte, keyBytes), Val: make([]byte, valBytes)}
				for i := range req.Val {
					req.Val[i] = byte(bse + ci)
				}
				sp := b.tr.begin(spanMarshal)
				payload := req.Marshal(nil)
				b.tr.end(sp)
				seg := tcp.Segment{SrcPort: uint16(2048 + ci), DstPort: 7777,
					Flags: tcp.FlagAck | tcp.FlagPsh, Window: 0xffff, Epoch: 1}
				sp = b.tr.begin(spanBuildFrame)
				frame := tcp.BuildFrame(h.NIC.MAC, srv.NIC.MAC, h.NIC.IP, srv.NIC.IP, seg, payload)
				b.tr.end(sp)
				return flexdriver.ClientSetup{Flows: [][]byte{frame}, Mean: mean}
			},
			OnSend: func(ci int, f []byte) {
				sp := b.tr.begin(spanOnSend)
				c.stamp(f)
				gi := bse + ci
				n := perConn[gi]
				perConn[gi]++
				seq := n * uint32(reqLen)
				f[kvSeqOff], f[kvSeqOff+1], f[kvSeqOff+2], f[kvSeqOff+3] =
					byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
				if n%putEvery == 0 {
					f[kvOpOff] = rpc.OpPut
				} else {
					f[kvOpOff] = rpc.OpGet
				}
				rank := zipf()
				for i := 7; i >= 0; i-- {
					f[kvKeyOff+i] = byte(rank)
					rank >>= 8
				}
				b.tr.end(sp)
			},
		})
		b.tr.end(sp)
		c = b.newClient(src.Host.Engine(), kvIDOff)
		b.hookReceive(c, src.Port)
		base += k
	}

	b.check = func(b *bed, r *rep) {
		var replyBytes, responses int64
		for _, a := range kvs {
			r.layer.kvHits += a.Hits
			r.layer.kvMisses += a.Misses
			r.layer.kvDropped += a.Dropped
			r.layer.kvMalformed += a.Malformed
			replyBytes += a.ReplyBytes
			responses += a.Responses
		}
		r.check("kv server parsed every request", r.layer.kvMalformed == 0,
			fmt.Sprintf("%d malformed", r.layer.kvMalformed))
		// The serving model takes the measured mean response size: GET
		// hits carry the value, PUTs and misses only the header.
		respMean := reqBytes
		if responses > 0 {
			respMean = int(replyBytes / responses)
		}
		m := perfmodel.DefaultKVServeModel(25, reqBytes, respMean)
		rho := offeredGbps * 1e9 / float64(reqBytes*8) / m.RequestRate()
		bound := m.P999BoundUs(rho)
		r.check("kv p999 under the M/D/1 envelope", r.p999us > 0 && r.p999us <= bound,
			fmt.Sprintf("%.3f us vs bound %.3f us at rho=%.3f", r.p999us, bound, rho))
	}
}
