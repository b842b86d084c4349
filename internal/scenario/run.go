package scenario

import (
	"encoding/binary"
	"fmt"

	"flexdriver"
	"flexdriver/internal/accel/kv"
	"flexdriver/internal/faults"
	"flexdriver/internal/netpkt"
	"flexdriver/internal/nic"
	"flexdriver/internal/rpc"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
	"flexdriver/internal/tcp"
)

// Phasing shared by every scenario: clean warmup (queues settle, no
// faults), the spec's measurement window (faults active), clean drain
// (recoveries complete), then run-to-quiescence.
const (
	warmup = 20 * sim.Microsecond
	drain  = 60 * sim.Microsecond
	// seqOff is where the 8-byte send ordinal lives in a delivered echo
	// frame: Eth(14) + IPv4(20) + UDP(8).
	seqOff = netpkt.UDPFrameOverhead
	// vxlanOuter is the encapsulation overhead in front of the inner
	// frame: outer Eth(14) + IPv4(20) + UDP(8) + VXLAN(8).
	vxlanOuter = netpkt.UDPFrameOverhead + netpkt.VXLANHeaderLen
	// flowsPerClient is each client's flow-set size (sport/size variety
	// for RSS spread).
	flowsPerClient = 6
	// tcpStampOff is the ordinal's home in a TCP-framed echo frame: the
	// first payload bytes behind Eth(14) + IPv4(20) + TCP(20).
	tcpStampOff = tcp.FrameOverhead
	// rpcStampOff is the ordinal's home on the rpc path: the RPC
	// correlation ID inside the frame header, which the kv server echoes
	// into its response.
	rpcStampOff = tcp.FrameOverhead + rpc.IDOffset
	// rpcFrameMin is the smallest rpc request the flow builder emits:
	// headers plus an 8-byte key and room for a value.
	rpcFrameMin = 96
)

// Violation is one failed global invariant.
type Violation struct {
	Invariant string // stable name the shrinker matches on
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Result is one scenario run's outcome: the violations (empty on a clean
// run), the telemetry fingerprint, and the headline counters the report
// and the shrinker's progress lines print.
type Result struct {
	Spec       Spec
	Violations []Violation
	// Hash is the SHA-256 of the final telemetry snapshot — the whole
	// run's deterministic fingerprint.
	Hash string

	Sent, Lost, Dups        int64
	RDMASent, RDMADelivered int64
	TCPSent, TCPDelivered   int64
	Injected                faults.Counts
	TailDrops               int64
	// SupEpisodes counts closed supervision-ladder recovery episodes
	// across every host driver (from the telemetry tree).
	SupEpisodes int64
}

// Violated reports whether the result carries the named violation.
func (r *Result) Violated(invariant string) bool {
	for _, v := range r.Violations {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// client is one echo client's bookkeeping.
type client struct {
	host      *flexdriver.Host
	port      *swdriver.EthPort
	frames    [][]byte
	sent      int64
	delivered int64
	recv      map[int64]int64
	ghosts    int64
	short     int64
	// leaks counts replies carrying a foreign tenant's UDP source port
	// (tenant scenarios only; the zero-tolerance isolation invariant).
	leaks int64
}

// tenantBasePort numbers tenant T<i>'s service port tenantBasePort+i.
// Clients bind to tenants round-robin and every reply's source port
// must name the client's own tenant.
const tenantBasePort = 7801

// tenantRun is the managed-mode counterpart of the flat server data
// path: the node's TenantManager plus the tenant naming the clients,
// the watchdog and the invariants key off.
type tenantRun struct {
	tm    *flexdriver.TenantManager
	names []string
	ports []uint16
}

// port returns the service port of client ci's tenant.
func (t *tenantRun) port(ci int) uint16 { return t.ports[ci%len(t.ports)] }

// tenancyDesired builds the version-v desired state: one single-core VF
// slice per tenant, quotas sized to the runtime's fixed footprint (2
// CQs + the RQ) plus the one echo tx queue. Version 1 alternates DRR
// weights 1/2 across tenants; version 2 flips them — a bandwidth-only
// reshape the reconciler still applies through a live drain →
// reconfigure → undrain episode per tenant.
func tenancyDesired(s Spec, version int) flexdriver.TenancySpec {
	spec := flexdriver.TenancySpec{Version: version}
	for i := 0; i < s.Tenants; i++ {
		w := 1 + i%2
		if version >= 2 {
			w = 2 - i%2
		}
		spec.Tenants = append(spec.Tenants, flexdriver.TenantSpec{
			Name: fmt.Sprintf("T%d", i), VFs: 1, Cores: 1, SQs: 1, RQs: 1, CQs: 2, Weight: w})
	}
	return spec
}

// setupTenants puts the server under control-plane management and
// applies the version-1 spec. Wire ingress is steered per tenant by
// destination port into the tenant's own RQs (see
// TenantManager.SteerByPort); every tenant core runs the header-swapping
// echo, and a draining tenant stops receiving new frames (eSwitch-missed
// frames count as reasoned drops, and the cutoff is what lets a drain
// complete under open-loop load).
func setupTenants(cl *flexdriver.Cluster, srv *flexdriver.Innova, s Spec, echoSendFails *int64) *tenantRun {
	t := &tenantRun{tm: cl.ManageTenants(srv, s.Seed)}
	for i := 0; i < s.Tenants; i++ {
		t.names = append(t.names, fmt.Sprintf("T%d", i))
		t.ports = append(t.ports, tenantBasePort+uint16(i))
	}
	var t0Echoed int64
	t.tm.SteerByPort(t.names, t.ports, func(name string, rt *flexdriver.Runtime) {
		var tamper func(out []byte)
		if s.PlantLeakNth > 0 && name == t.names[0] {
			tamper = func(out []byte) {
				if t0Echoed++; t0Echoed%s.PlantLeakNth == 0 {
					// The planted defect: tenant 0's pipeline claims
					// tenant 1's identity on the wire — the isolation
					// violation the tenant-leak invariant must catch.
					binary.BigEndian.PutUint16(out[34:], t.ports[1])
				}
			}
		}
		installEcho(rt.FLD(), echoSendFails, tamper)
	})
	if err := cl.Apply(tenancyDesired(s, 1)); err != nil {
		panic(err)
	}
	return t
}

// installEcho makes f a header-swapping echo server. Sends the FLD
// refuses (credit stalls under fault storms) are counted into fails, so
// open-loop loss stays accounted for; tamper, when set, may rewrite each
// reply before it is sent.
func installEcho(f *flexdriver.FLD, fails *int64, tamper func(out []byte)) {
	f.SetHandler(flexdriver.HandlerFunc(func(data []byte, md flexdriver.Metadata) {
		out := append([]byte(nil), data...)
		netpkt.SwapEcho(out)
		if tamper != nil {
			tamper(out)
		}
		if err := f.Send(0, out, md); err != nil {
			*fails++
		}
	}))
}

// rdmaPattern builds (and rdmaVerify checks) a sidecar message: the send
// ordinal in the first 8 bytes, then an ordinal-keyed byte pattern, so a
// delivered message proves byte-exact end-to-end transport.
func rdmaPattern(seq int64, n int) []byte {
	msg := make([]byte, n)
	binary.BigEndian.PutUint64(msg, uint64(seq))
	for i := 8; i < n; i++ {
		msg[i] = byte(int64(i)*7 + seq)
	}
	return msg
}

func rdmaVerify(msg []byte) (seq int64, ok bool) {
	if len(msg) < 8 {
		return 0, false
	}
	seq = int64(binary.BigEndian.Uint64(msg))
	for i := 8; i < len(msg); i++ {
		if msg[i] != byte(int64(i)*7+seq) {
			return seq, false
		}
	}
	return seq, true
}

// tcpEchoFrame builds a TCP-framed frame of size bytes on the wire whose
// payload carries the send ordinal at tcpStampOff — the proto=tcp
// workload shape. The sequence fields are inert (the server echoes by
// header swap, it does not terminate the stream).
func tcpEchoFrame(src, dst *flexdriver.NIC, sport, dport uint16, size int) []byte {
	seg := tcp.Segment{SrcPort: sport, DstPort: dport,
		Flags: tcp.FlagAck | tcp.FlagPsh, Window: 0xffff, Epoch: 1}
	return tcp.BuildFrame(src.MAC, dst.MAC, src.IP, dst.IP, seg,
		make([]byte, size-tcp.FrameOverhead))
}

// rpcReqFrame builds a TCP-framed RPC request of size bytes: an 8-byte
// key naming the flow and a value filling the rest. Even flows PUT their
// key, odd flows GET the preceding flow's key, so the kv stores see both
// ops (hits once the PUT landed, misses before). OnSend stamps the
// correlation ID at rpcStampOff.
func rpcReqFrame(src, dst *flexdriver.NIC, sport, dport uint16, size, fi int) []byte {
	if size < rpcFrameMin {
		size = rpcFrameMin
	}
	op, keyFlow := uint8(rpc.OpPut), fi
	if fi%2 == 1 {
		op, keyFlow = rpc.OpGet, fi-1
	}
	key := binary.BigEndian.AppendUint64(nil, uint64(sport)<<16|uint64(keyFlow))
	val := make([]byte, size-tcp.FrameOverhead-rpc.HeaderLen-len(key))
	for i := range val {
		val[i] = byte(i*3 + fi)
	}
	seg := tcp.Segment{SrcPort: sport, DstPort: dport,
		Flags: tcp.FlagAck | tcp.FlagPsh, Window: 0xffff, Epoch: 1}
	return tcp.BuildFrame(src.MAC, dst.MAC, src.IP, dst.IP, seg,
		rpc.Frame{Op: op, Key: key, Val: val}.Marshal(nil))
}

// tcpMsg builds (and tcpMsgVerify checks) one TCP-sidecar message: an
// rpc-framed record whose ID is the send ordinal and whose value is an
// ordinal-keyed byte pattern, so a decoded frame proves byte-exact
// stream transport through retransmission and recovery.
func tcpMsg(seq int64, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(int64(i)*7 + seq)
	}
	return rpc.Frame{Op: rpc.OpPut, ID: uint64(seq), Val: v}.Marshal(nil)
}

func tcpMsgVerify(f rpc.Frame) bool {
	for i, b := range f.Val {
		if b != byte(int64(i)*7+int64(f.ID)) {
			return false
		}
	}
	return true
}

// Run executes one scenario to quiescence and checks every global
// invariant. The run is a pure function of the Spec: identical specs
// produce identical Results, including the telemetry hash.
func Run(s Spec) *Result {
	res := &Result{Spec: s}
	window := sim.Duration(s.WindowUs) * sim.Microsecond

	reg := flexdriver.NewRegistry()
	opts := []flexdriver.Option{flexdriver.WithTelemetry(reg), flexdriver.WithWorkers(s.Workers)}
	var plan *faults.Plan
	if s.Faults != "" {
		cfg, err := faults.ParseSpec(s.Faults)
		if err != nil {
			res.Violations = append(res.Violations, Violation{"spec-parse", err.Error()})
			return res
		}
		// Probabilistic faults fire only inside the window; warmup and
		// drain stay clean so every recovery completes before the
		// invariants are judged (the chaos experiment's phasing).
		cfg.Start, cfg.Stop = warmup, warmup+window
		plan = faults.NewPlan(s.Seed, cfg)
		opts = append(opts, flexdriver.WithFaults(plan))
	}

	cl := flexdriver.NewCluster(opts...).
		SwitchRate(sim.BitRate(s.RateGbps) * sim.Gbps).
		SwitchQueueFrames(s.QueueFrames)

	// Server: one Innova. With Tenants set, the FLD cores and NIC queues
	// are carved into per-tenant VF slices by the managed control plane;
	// otherwise FLDCores cores sit behind one flat RSS TIR. Either way
	// every core runs the header-swapping echo, and send failures (credit
	// stalls under fault storms) are counted so open-loop loss stays
	// accounted for.
	srv := cl.AddInnova("server")
	rts := []*flexdriver.Runtime{srv.RT}
	var echoSendFails int64
	var kvs []*kv.AFU // per-core key-value servers (proto=rpc only)
	var tn *tenantRun
	if s.Tenants > 0 {
		tn = setupTenants(cl, srv, s, &echoSendFails)
	} else {
		rts = srv.ServeFLDs(s.FLDCores, func(rt *flexdriver.Runtime) {
			f := rt.FLD()
			if s.Proto == "rpc" {
				// The serving path: each core answers GET/PUT from its
				// private store; its send failures and parse rejections
				// join the loss budget like echo send failures do.
				kvs = append(kvs, kv.New(f))
				return
			}
			installEcho(f, &echoSendFails, nil)
		})
		if s.Path == "vxlan" {
			vxport := uint16(netpkt.VXLANPort)
			srv.NIC.ESwitch().AddRule(0, flexdriver.Rule{
				Match:  flexdriver.Match{DstPort: &vxport},
				Action: flexdriver.Action{Decap: true, ToTIR: flexdriver.RSS(rts)}})
		} else {
			srv.NIC.ESwitch().AddRule(0, flexdriver.Rule{
				Action: flexdriver.Action{ToTIR: flexdriver.RSS(rts)}})
		}
	}

	// Clients: per-client flow sets (random sports and sizes), sequence
	// stamping for per-frame conservation, steering on own IP. The stamp
	// rides at the *inner* offset on the VXLAN path, so replies (which
	// come back decapped) always carry it at seqOff.
	stampOff := seqOff
	switch {
	case s.Path == "vxlan":
		stampOff = vxlanOuter + seqOff
	case s.Proto == "tcp":
		stampOff = tcpStampOff
	case s.Proto == "rpc":
		stampOff = rpcStampOff
	}
	// Replies carry the stamp where the request put it: decapped VXLAN
	// frames at seqOff, TCP echoes at the payload offset, and rpc
	// responses echo the correlation ID in their own header.
	recvOff := seqOff
	switch s.Proto {
	case "tcp":
		recvOff = tcpStampOff
	case "rpc":
		recvOff = rpcStampOff
	}
	stop := warmup + window

	// hookRecv installs the reply-side bookkeeping shared by discrete and
	// aggregated client hosts: short-frame and foreign-tenant screening,
	// the planted-loss defect, and the per-ordinal conservation ledger.
	hookRecv := func(c *client, myPort uint16) {
		plant := s.PlantLossNth
		c.port.OnReceive = func(fr []byte, _ swdriver.RxMeta) {
			if len(fr) < recvOff+8 {
				c.short++
				return
			}
			if myPort != 0 && uint16(fr[34])<<8|uint16(fr[35]) != myPort {
				c.leaks++
			}
			if s.Proto == "rpc" && fr[tcp.FrameOverhead+2] == rpc.StatusBadReq {
				// A BadReq response carries no request ID; screening it
				// keeps a rejected request out of the per-ordinal ledger
				// (its loss is the server's Malformed count).
				c.short++
				return
			}
			c.delivered++
			if plant > 0 && c.delivered%plant == 0 {
				// The planted defect: a delivered frame vanishes before
				// the bookkeeping — a drop with no drop reason anywhere.
				return
			}
			seq := int64(binary.BigEndian.Uint64(fr[recvOff:]))
			if seq < 0 || seq >= c.sent {
				c.ghosts++
				return
			}
			c.recv[seq]++
		}
	}

	// clientFlows draws global client gi's flow set — sports and sizes off
	// the client's own flow stream (Seed*7919+gi), built against the
	// carrying host's NIC. Folding clients onto fewer hosts never
	// reshuffles which flows a client owns, only which NIC carries them.
	clientFlows := func(h *flexdriver.Host, gi int, dport uint16) (flows [][]byte, avgBits float64) {
		frng := sim.NewRand(s.Seed*7919 + int64(gi))
		for fi := 0; fi < flowsPerClient; fi++ {
			sport := uint16(4000 + frng.Intn(20000))
			size := s.FrameMin
			if s.FrameMax > s.FrameMin {
				size += frng.Intn(s.FrameMax - s.FrameMin + 1)
			}
			var f []byte
			switch s.Proto {
			case "tcp":
				f = tcpEchoFrame(h.NIC, srv.NIC, sport, dport, size)
			case "rpc":
				f = rpcReqFrame(h.NIC, srv.NIC, sport, dport, size, fi)
			default:
				f = netpkt.UDPFrame(h.NIC.MAC, srv.NIC.MAC, h.NIC.IP, srv.NIC.IP, sport, dport,
					make([]byte, size-netpkt.UDPFrameOverhead))
				if s.Path == "vxlan" {
					// The outer envelope between the same NICs: the shape
					// the server's decap rule strips back to the inner frame.
					f = netpkt.UDPFrame(h.NIC.MAC, srv.NIC.MAC, h.NIC.IP, srv.NIC.IP, sport, netpkt.VXLANPort,
						append(netpkt.VXLAN{VNI: 42}.Marshal(nil), f...))
				}
			}
			flows = append(flows, f)
			avgBits += float64(len(f) * 8)
		}
		return flows, avgBits / flowsPerClient
	}

	clients := make([]*client, 0, s.Clients)
	if s.AggClients > 0 {
		// Hundred-node mode: AggClients modeled clients fold onto AggHosts
		// event-driven sources. Each client keeps the arrival stream
		// (Seed*1000+gi) and flow stream it would own as a discrete host;
		// conservation bookkeeping moves to host granularity — OnSend
		// stamps the host-level ordinal, so the per-sequence ledger spans
		// every client the host carries.
		flexdriver.SplitClients(s.AggClients, s.AggHosts, func(hi, b, k int) {
			c := &client{recv: make(map[int64]int64)}
			src := cl.AddAggregatedClients(fmt.Sprintf("client%d", hi), flexdriver.AggregatedClientsConfig{
				Clients:    k,
				StreamSeed: s.Seed*1000 + int64(b),
				Stop:       stop,
				Setup: func(h *flexdriver.Host, ci int, rng *sim.Rand) flexdriver.ClientSetup {
					flows, avgBits := clientFlows(h, b+ci, 7777)
					set := flexdriver.ClientSetup{
						Flows: flows,
						Mean:  sim.Duration(avgBits / (s.PerClientGbps * 1e9) * float64(sim.Second)),
					}
					if s.Pattern == "bursty" {
						set.Burst = 8 + rng.Intn(25)
					}
					return set
				},
				OnSend: func(_ int, f []byte) {
					binary.BigEndian.PutUint64(f[stampOff:], uint64(c.sent))
					c.sent++
				},
			})
			c.host, c.port = src.Host, src.Port
			hookRecv(c, 0)
			clients = append(clients, c)
		})
	}
	for ci := 0; s.AggClients == 0 && ci < s.Clients; ci++ {
		h, port := cl.AddClient(fmt.Sprintf("client%d", ci))
		c := &client{host: h, port: port, recv: make(map[int64]int64)}
		// In tenant mode each client belongs to one tenant (round-robin)
		// and addresses it by destination port; every reply's source port
		// must then name that same tenant, or the reply leaked across an
		// isolation domain.
		dport, myPort := uint16(7777), uint16(0)
		if tn != nil {
			dport = tn.port(ci)
			myPort = dport
		}
		c.frames, _ = clientFlows(h, ci, dport)
		hookRecv(c, myPort)
		clients = append(clients, c)
	}

	// Every host driver gets a supervision ladder, kicked from the same
	// watchdog cadence an OS driver's health check would run at. The
	// ladder is what turns a device/node crash (rings errored, process
	// restarted, device FLRed) back into Ready queues; its seed stream is
	// independent of the workload's so backoff jitter never perturbs
	// traffic draws. RDMA hosts get one too, but with no reconnect hook —
	// QP reconnection takes both shards, so it stays in the Control
	// barrier below.
	var sups []*swdriver.Supervisor
	superviseHost := func(h *flexdriver.Host, ord int64) {
		sup := flexdriver.NewSupervisor(h.Drv, s.Seed*8191+ord)
		sup.SetTelemetry(reg.Scope(h.Name()).Scope("supervisor"))
		sups = append(sups, sup)
	}
	for ci, c := range clients {
		superviseHost(c.host, int64(ci))
	}

	// RDMA sidecar: a host pair on the same switch running a reliable
	// message stream, so the go-back-N transport shares the fabric (and
	// its faults) with the echo traffic. The receive callback runs on
	// rdma1's shard while the send ordinal lives on rdma0's, so delivered
	// ordinals are collected raw and judged against the final send count
	// after the run — shards must not read each other's bookkeeping.
	var epA, epB *swdriver.RDMAEndpoint
	var rdmaSent, rdmaDelivered, rdmaBad int64
	var rdmaSeqs []int64 // delivered ordinals, judged against rdmaSent post-run
	rrng := sim.NewRand(s.Seed * 31337)
	var rdmaEng *flexdriver.Engine
	if s.RDMA {
		ra := cl.AddHost("rdma0")
		rb := cl.AddHost("rdma1")
		rdmaEng = ra.Engine()
		cfg := swdriver.RDMAConfig{SendEntries: 64, RecvEntries: 64, MaxMsgBytes: 32 << 10, MTU: 1024}
		epA = ra.Drv.NewRDMAEndpoint(cfg)
		epB = rb.Drv.NewRDMAEndpoint(cfg)
		nic.ConnectQPs(epA.QP, epB.QP)
		epB.OnMessage = func(data []byte) {
			rdmaDelivered++
			seq, ok := rdmaVerify(data)
			if !ok {
				rdmaBad++
			}
			rdmaSeqs = append(rdmaSeqs, seq)
		}
		superviseHost(ra, 100)
		superviseHost(rb, 101)
	}

	// TCP sidecar: with any Proto set, a host pair runs the reliable
	// byte-stream transport (internal/tcp) with rpc-framed messages over
	// the same switch and fault plan — the go-back-N counterpart of the
	// RDMA sidecar, exercising retransmission, zero-window handling and
	// the retry-exceeded -> reconnect escalation under the full fault
	// mix. Delivered IDs are collected raw and judged post-run for the
	// same shard-discipline reason as the RDMA ordinals. The modest
	// stream window makes a stalled connection overflow into queued
	// (flushable) messages quickly — what the planted ack-drop defect
	// needs to surface as lost deliveries.
	var tepA, tepB *swdriver.TCPEndpoint
	var tcpSent, tcpDelivered, tcpBad int64
	var tcpSeqs []int64
	var tdec rpc.Decoder
	trng := sim.NewRand(s.Seed * 52711)
	var tcpEng *flexdriver.Engine
	if s.Proto != "" {
		ta := cl.AddHost("tcp0")
		tb := cl.AddHost("tcp1")
		tcpEng = ta.Engine()
		mk := func(sport, dport uint16) tcp.Config {
			return tcp.Config{SrcPort: sport, DstPort: dport, Window: 8192}
		}
		tepA = ta.Drv.NewTCPEndpoint(swdriver.TCPConfig{Conn: mk(9100, 9101)})
		tepB = tb.Drv.NewTCPEndpoint(swdriver.TCPConfig{Conn: mk(9101, 9100)})
		tepA.DropAcksAfterN = s.PlantAckDropNth
		tepB.Conn.OnDeliver = func(p []byte) {
			for _, fr := range tdec.Feed(p) {
				tcpDelivered++
				if !tcpMsgVerify(fr) {
					tcpBad++
				}
				tcpSeqs = append(tcpSeqs, int64(fr.ID))
			}
			tepB.Conn.Consume(len(p))
		}
		// A reconnect starts a fresh stream incarnation; the decoder must
		// drop its partial frame or it would splice bytes across epochs.
		tepB.OnReconnect = func() { tdec.Reset() }
		swdriver.ConnectTCPEndpoints(tepA, tepB)
		superviseHost(ta, 102)
		superviseHost(tb, 103)
	}

	// The FDB is programmed statically (every MAC pinned to its port) so
	// no frame ever floods to a foreign NIC: per-sequence conservation
	// then has no benign flood copies to excuse.
	cl.PinFDB()

	// Spec v2 (flipped DRR weights) lands mid-window as a cluster-wide
	// barrier action, so the reconciler drains and reshapes every tenant
	// while traffic and the fault plan are live.
	if tn != nil && s.Reconfig {
		cl.Control(warmup+window/2, func() {
			if err := cl.Apply(tenancyDesired(s, 2)); err != nil {
				panic(err)
			}
		})
	}

	// Open-loop load: Poisson clients draw i.i.d. exponential gaps;
	// bursty clients send fixed back-to-back trains at the same mean
	// rate, stressing the switch queues and RQ refill paths. Aggregated
	// hosts drive themselves (the source scheduled every client's first
	// tick at construction), so the loop is empty in hundred-node mode.
	for ci, c := range clients {
		if s.AggClients > 0 {
			break
		}
		rng := sim.NewRand(s.Seed*1000 + int64(ci))
		var avgBits float64
		for _, f := range c.frames {
			avgBits += float64(len(f) * 8)
		}
		avgBits /= float64(len(c.frames))
		mean := sim.Duration(avgBits / (s.PerClientGbps * 1e9) * float64(sim.Second))
		burst := 1
		if s.Pattern == "bursty" {
			burst = 8 + rng.Intn(25)
		}
		gap := mean * sim.Duration(burst)
		c := c
		ceng := c.host.Engine()
		var tick func()
		tick = func() {
			if ceng.Now() >= stop {
				return
			}
			for b := 0; b < burst; b++ {
				f := append([]byte(nil), c.frames[int(c.sent)%len(c.frames)]...)
				binary.BigEndian.PutUint64(f[stampOff:], uint64(c.sent))
				c.sent++
				c.port.Send(f)
			}
			ceng.After(rng.Exp(gap), tick)
		}
		ceng.After(rng.Exp(gap), tick)
	}
	if s.RDMA {
		msgBytes := 1024 << rrng.Intn(3) // 1, 2 or 4 KiB messages
		interval := sim.Duration(float64(msgBytes*8) / 1.5e9 * float64(sim.Second))
		var mtick func()
		mtick = func() {
			if rdmaEng.Now() >= stop {
				return
			}
			epA.Send(rdmaPattern(rdmaSent, msgBytes))
			rdmaSent++
			rdmaEng.After(rrng.Exp(interval), mtick)
		}
		rdmaEng.After(rrng.Exp(interval), mtick)
	}
	if s.Proto != "" {
		valBytes := 64 << trng.Intn(3) // 64, 128 or 256 B values
		interval := sim.Duration(float64((valBytes+16)*8) / 1.5e9 * float64(sim.Second))
		var ttick func()
		ttick = func() {
			if tcpEng.Now() >= stop {
				return
			}
			tepA.Send(tcpMsg(tcpSent, valBytes))
			tcpSent++
			tcpEng.After(trng.Exp(interval), ttick)
		}
		tcpEng.After(trng.Exp(interval), ttick)
	}

	// Watchdog: poll-mode drivers and the FLD runtimes notice Error-state
	// queues even when the CQE announcing the error was itself lost; a QP
	// pair stuck in Error is reconnected (modify-QP cycle). It sweeps
	// every node, so it runs as a cluster control: all shards quiesced
	// and advanced to the tick before it touches their queues.
	cl.RunWatched(warmup, 20*sim.Microsecond, stop+drain, func() {
		for _, sup := range sups {
			sup.Kick()
		}
		for _, c := range clients {
			c.port.Poll()
		}
		for _, rt := range rts {
			rt.Recover()
		}
		if tn != nil {
			tn.tm.Recover()
		}
		if epA != nil {
			epA.Poll()
			epB.Poll()
			if epA.QP.State() != nic.QueueReady || epB.QP.State() != nic.QueueReady {
				swdriver.ReconnectEndpoints(epA, epB)
			}
		}
		if tepA != nil {
			tepA.Poll()
			tepB.Poll()
			if tepA.Conn.State() == tcp.StateError || tepB.Conn.State() == tcp.StateError {
				swdriver.ReconnectTCPEndpoints(tepA, tepB)
			}
		}
	})

	// --- gather ---------------------------------------------------------
	for _, c := range clients {
		res.Sent += c.sent
		for seq := int64(0); seq < c.sent; seq++ {
			switch n := c.recv[seq]; {
			case n == 0:
				res.Lost++
			case n > 1:
				res.Dups += n - 1
			}
		}
	}
	if plan != nil {
		res.Injected = plan.Injected
	}
	for _, p := range cl.Switch().Ports() {
		res.TailDrops += p.Counters.TailDrops
	}
	res.RDMASent, res.RDMADelivered = rdmaSent, rdmaDelivered
	// A ghost is an ordinal the sender never issued. rdmaSent only grows,
	// so judging against its final value post-run is equivalent to the
	// at-delivery check without reading across shards mid-run.
	var rdmaGhosts int64
	for _, seq := range rdmaSeqs {
		if seq < 0 || seq >= rdmaSent {
			rdmaGhosts++
		}
	}
	res.TCPSent, res.TCPDelivered = tcpSent, tcpDelivered
	var tcpGhosts int64
	for _, seq := range tcpSeqs {
		if seq < 0 || seq >= tcpSent {
			tcpGhosts++
		}
	}
	// The kv servers' reasoned losses (credit-stall drops, parse
	// rejections) join the conservation budget like echo send failures.
	var kvDrops, kvMalformed int64
	for _, a := range kvs {
		kvDrops += a.Dropped
		kvMalformed += a.Malformed
	}

	checkInvariants(res, &runState{
		spec: s, cl: cl, reg: reg, plan: plan, rts: rts, tn: tn,
		clients: clients, sups: sups, epA: epA, epB: epB,
		rdmaBad: rdmaBad, rdmaGhosts: rdmaGhosts,
		echoSendFails: echoSendFails,
		tepA:          tepA, tepB: tepB,
		tcpBad: tcpBad, tcpGhosts: tcpGhosts,
		kvDrops: kvDrops, kvMalformed: kvMalformed,
	})
	return res
}

// Check runs the scenario twice and adds the replay-determinism
// invariant: both runs must produce byte-identical telemetry. It returns
// the first run's result (augmented with any determinism violation).
func Check(s Spec) *Result {
	r1 := Run(s)
	r2 := Run(s)
	if r1.Hash != r2.Hash {
		r1.Violations = append(r1.Violations, Violation{"replay-determinism",
			fmt.Sprintf("back-to-back runs diverged: %s vs %s", r1.Hash, r2.Hash)})
	}
	return r1
}
