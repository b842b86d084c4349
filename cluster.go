package flexdriver

import (
	"runtime"

	"flexdriver/internal/ethswitch"
	"flexdriver/internal/pcie"
	"flexdriver/internal/sim"
	"flexdriver/internal/swdriver"
)

// Facade re-exports for the switched fabric.
type (
	// EthSwitch is the ToR switch model (internal/ethswitch).
	EthSwitch = ethswitch.Switch
	// SwitchPort is one switch port plus its cable segment.
	SwitchPort = ethswitch.Port
	// SwitchConfig sets the switch's uniform port parameters.
	SwitchConfig = ethswitch.Config
)

// Cluster is the N-node switched testbed: any number of plain hosts and
// Innova nodes racked behind one ToR switch — the topology the paper's
// §9 scaling regime (many clients, multiple FLD cores behind RSS)
// needs. Options fold once at NewCluster and apply to every node;
// telemetry registers each node under its name plus the switch under
// "switch", and a fault plan attaches to every layer of every node and
// to every switch-port link.
//
// Each node owns a private shard engine; the switch fabric is a shard of
// its own, and the only cross-shard paths are the port conduits, whose
// propagation delay is the scheduler's lookahead. Run and RunUntil drive
// all shards through the group's conservative parallel scheduler —
// byte-identical to the sequential schedule at any worker count.
type Cluster struct {
	Hosts   []*Host
	Innovas []*Innova

	group  *sim.Group
	o      Options
	swCfg  ethswitch.Config
	sw     *ethswitch.Switch
	ports  map[*NIC]*ethswitch.Port
	shared *sim.Engine // the single engine under WithColocated

	// Tenancy control plane: per-node managers plus the cluster's
	// current desired-state spec (see tenancy.go).
	tms     []*TenantManager
	tenancy TenancySpec
}

// NewCluster starts an empty topology; add nodes with AddHost/AddInnova.
func NewCluster(opts ...Option) *Cluster {
	c := &Cluster{
		group: sim.NewGroup(),
		o:     buildOptions(opts),
		ports: make(map[*NIC]*ethswitch.Port),
	}
	// Lookahead = the per-segment switch latency (ethswitch's default
	// until SwitchLatency overrides it): no frame crosses shards faster
	// than one segment's propagation delay.
	c.group.SetLookahead(500 * Nanosecond)
	// The group clock is the cluster's time authority. Bind is
	// first-wins, so binding here keeps any node's per-shard clock from
	// claiming the registry.
	if c.o.Telemetry != nil {
		c.o.Telemetry.Bind(c.group.Now)
	}
	return c
}

// SwitchRate sets the switch's per-port line rate (default 25 Gbps).
func (c *Cluster) SwitchRate(r BitRate) *Cluster {
	c.swCfg.Rate = r
	if c.sw != nil {
		c.sw.SetRate(r)
	}
	return c
}

// SwitchLatency sets the per-segment propagation delay (default 500 ns)
// and with it the scheduler's lookahead.
func (c *Cluster) SwitchLatency(d Duration) *Cluster {
	c.swCfg.Latency = d
	if d == 0 {
		d = 500 * Nanosecond // ethswitch treats 0 as "use the default"
	}
	c.group.SetLookahead(d)
	if c.sw != nil {
		c.sw.SetLatency(c.swCfg.Latency)
	}
	return c
}

// SwitchQueueFrames bounds each output queue in frames (default 64).
func (c *Cluster) SwitchQueueFrames(n int) *Cluster {
	c.swCfg.QueueFrames = n
	if c.sw != nil {
		c.sw.SetQueueFrames(n)
	}
	return c
}

// shardEngine returns the engine for the next node or the switch: a
// fresh shard normally, the cluster's one shared engine under
// WithColocated (conduits between identical engines degenerate to
// direct scheduling, so a fully colocated cluster has no cross-shard
// paths at all and the group runs it monolithically).
func (c *Cluster) shardEngine() *sim.Engine {
	if !c.o.Colocate {
		return c.group.NewEngine()
	}
	if c.shared == nil {
		c.shared = c.group.NewEngine()
	}
	return c.shared
}

// Switch returns the ToR switch, creating it (and its shard engine) on
// first use.
func (c *Cluster) Switch() *EthSwitch {
	if c.sw == nil {
		c.sw = ethswitch.New(c.shardEngine(), c.swCfg)
		if c.o.Telemetry != nil {
			c.sw.SetTelemetry(c.o.Telemetry.Scope("switch"))
		}
		if c.o.Faults != nil {
			c.o.Faults.AttachSwitchReboot(c.sw.Engine(), c.sw)
		}
	}
	return c.sw
}

// PortOf returns the switch port a node's NIC hangs off.
func (c *Cluster) PortOf(n *NIC) *SwitchPort { return c.ports[n] }

// Telemetry returns the registry the cluster was built with, or nil.
func (c *Cluster) Telemetry() *Registry { return c.o.Telemetry }

// Group exposes the underlying scheduler group — the escape hatch for
// invariant sweeps (per-shard Pending/Bufs) and scheduler tuning.
func (c *Cluster) Group() *sim.Group { return c.group }

// Engines returns every shard engine in creation order (nodes, then the
// switch if one exists).
func (c *Cluster) Engines() []*Engine { return c.group.Engines() }

// Now returns the cluster's virtual time: exact after Run/RunUntil
// return, when every shard has synchronized.
func (c *Cluster) Now() Time { return c.group.Now() }

// Control schedules fn at cluster time t on the coordinator: every
// shard is quiesced past t and advanced to t before fn runs, so fn may
// read or mutate any node. Controls are the cluster-wide analogue of
// Engine.At; per-node work belongs on the node's own engine.
func (c *Cluster) Control(t Time, fn func()) { c.group.Control(t, fn) }

// Pending returns the number of undelivered events across all shards,
// in-flight cross-shard frames included.
func (c *Cluster) Pending() int { return c.group.Pending() }

// Run drives every shard until the cluster is idle.
func (c *Cluster) Run() {
	c.prepare()
	c.group.Run()
}

// RunUntil drives every shard through deadline (inclusive), then
// advances all clocks to it.
func (c *Cluster) RunUntil(deadline Time) {
	c.prepare()
	c.group.RunUntil(deadline)
}

// RunWatched is a run under a recovery watchdog: sweep runs as a
// Control (every shard quiesced at the tick, so it may touch any node) at
// start and then every period until deadline, and the cluster runs
// through deadline. It then drains to quiescence, gives sweep one final
// pass in case an error surfaced after its last tick, and drains
// whatever that pass scheduled.
func (c *Cluster) RunWatched(start Time, period Duration, deadline Time, sweep func()) {
	var tick func()
	tick = func() {
		sweep()
		if c.Now() < deadline {
			c.Control(c.Now()+period, tick)
		}
	}
	c.Control(start, tick)
	c.RunUntil(deadline)
	c.Run()
	sweep()
	c.Run()
}

// prepare resolves the worker count just before a run: 0 means one
// worker per CPU; the TLP flight recorder — a single unlocked ring
// buffer — forces the (identical) sequential schedule.
func (c *Cluster) prepare() {
	w := c.o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if c.o.Telemetry != nil && c.o.Telemetry.Recorder() != nil {
		w = 1
	}
	c.group.SetWorkers(w)
}

// AddHost builds a plain host on its own shard and racks it behind the
// switch.
func (c *Cluster) AddHost(name string) *Host {
	h := c.buildHost(name)
	c.join(h.NIC)
	return h
}

// AddInnova builds an Innova node on its own shard and racks it behind
// the switch.
func (c *Cluster) AddInnova(name string) *Innova {
	inn := c.buildInnova(name)
	c.join(inn.NIC)
	return inn
}

// AddClient racks a plain host carrying one raw-Ethernet port (512-entry
// rings) that its eSwitch steers frames addressed to the host's own IP
// into; flooded frames meant for other nodes miss.
func (c *Cluster) AddClient(name string) (*Host, *EthPort) {
	h := c.AddHost(name)
	port := h.Drv.NewEthPort(swdriver.EthPortConfig{TxEntries: 512, RxEntries: 512})
	ip := h.NIC.IP
	h.NIC.ESwitch().AddRule(0, Rule{Match: Match{DstIP: &ip}, Action: Action{ToRQ: port.RQ()}})
	return h, port
}

// PinFDB programs the switch's forwarding table statically — every
// host's MAC, then every Innova's, pinned to its port — so no frame ever
// floods: loss accounting stays exact, and a dead node's traffic is
// dropped at its own port rather than delivered as flood copies.
func (c *Cluster) PinFDB() {
	sw := c.Switch()
	for _, h := range c.Hosts {
		sw.Program(h.NIC.MAC, c.ports[h.NIC])
	}
	for _, inn := range c.Innovas {
		sw.Program(inn.NIC.MAC, c.ports[inn.NIC])
	}
}

// PCIeMismatches counts the PCIe ports, across every node, whose
// telemetry byte counters (<node>/pcie/<dev>/{up,down}/bytes in snap)
// disagree with the fabric's independent Port.{Up,Down}Bytes
// accounting: zero when telemetry reconciles byte-exactly.
func (c *Cluster) PCIeMismatches(snap Snapshot) int {
	m := 0
	count := func(node string, fab *pcie.Fabric) {
		for _, p := range fab.Ports() {
			dev := p.Device().PCIeName()
			if snap.Get(node+"/pcie/"+dev+"/up/bytes") != p.UpBytes ||
				snap.Get(node+"/pcie/"+dev+"/down/bytes") != p.DownBytes {
				m++
			}
		}
	}
	for _, inn := range c.Innovas {
		count(inn.name, inn.Fab)
	}
	for _, h := range c.Hosts {
		count(h.name, h.Fab)
	}
	return m
}

// buildHost constructs a node on a fresh shard without cabling it;
// NewRemotePair instead colocates its two nodes via buildHostOn.
func (c *Cluster) buildHost(name string) *Host {
	return c.buildHostOn(c.shardEngine(), name)
}

func (c *Cluster) buildHostOn(eng *Engine, name string) *Host {
	h := newHost(eng, name, c.o)
	h.cl = c
	c.Hosts = append(c.Hosts, h)
	return h
}

func (c *Cluster) buildInnova(name string) *Innova {
	return c.buildInnovaOn(c.shardEngine(), name)
}

func (c *Cluster) buildInnovaOn(eng *Engine, name string) *Innova {
	inn := newInnova(eng, name, c.o)
	inn.cl = c
	c.Innovas = append(c.Innovas, inn)
	return inn
}

// join cables a NIC to the next switch port and extends the fault plan
// to the new link — one stream per direction, each on the shard whose
// hooks consume it.
func (c *Cluster) join(n *NIC) {
	port := c.Switch().Connect(n)
	c.ports[n] = port
	if c.o.Faults != nil {
		c.o.Faults.AttachLink(port.Link(), port.EndpointEngine(), c.sw.Engine())
	}
}
