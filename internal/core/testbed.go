package core

import (
	"fmt"
	"os"

	"repro/internal/cost"
	"repro/internal/cpu"
	"repro/internal/multicore"
	"repro/internal/nic"
	"repro/internal/pcap"
	"repro/internal/pkt"
	"repro/internal/ptnet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/switches/switchdef"
	"repro/internal/tgen"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/vhost"
	"repro/internal/vm"

	// Register the seven evaluated switches.
	_ "repro/internal/switches/bess"
	_ "repro/internal/switches/fastclick"
	_ "repro/internal/switches/ovs"
	_ "repro/internal/switches/snabb"
	_ "repro/internal/switches/t4p4s"
	_ "repro/internal/switches/vale"
	_ "repro/internal/switches/vpp"
)

// Testbed parameters mirroring the measurement platform (§5.1).
const (
	bufSize        = 2048
	genRingSize    = 4096 // generator-side NIC rings never drop
	defaultNICRing = 512
	valeITR        = 50 * units.Microsecond // NIC interrupt moderation for netmap
	ptnetNotify    = 3 * units.Microsecond  // ptnet doorbell→host wakeup
	guestIdleStep  = 400 * units.Nanosecond // guest core poll granularity when idle
	swStampNoise   = 2 * units.Microsecond  // software timestamping inaccuracy

	// Container-mode virtio parameters (virtio-user: no VM exits).
	containerScale  = 0.8
	containerNotify = 3 * units.Microsecond
)

// orOne resolves the per-direction vhost scale fallback chain.
func orOne(v ...float64) float64 {
	for _, x := range v {
		if x != 0 {
			return x
		}
	}
	return 1
}

// testbed is one assembled simulation.
type testbed struct {
	cfg   Config
	info  switchdef.Info
	sched *sim.Scheduler // partition 0 (SUT side); == scheds[0]
	rng   *sim.RNG
	model *cost.Model

	// Conservative-parallel engine state (SimWorkers > 1 with a usable
	// wire cut): one scheduler per partition plus the coordinating
	// runner. par == nil means sequential — every helper below
	// degenerates to tb.sched and the single shared pools.
	scheds []*sim.Scheduler
	cut    *topo.Cut
	par    *sim.PartitionedScheduler

	sw        switchdef.Switch
	fleet     *multicore.Fleet // non-nil when SUTCores > 1 (then sw == fleet)
	graph     *topo.Graph
	sutPolls  []*cpu.PollCore
	sutIRQ    *cpu.IRQCore
	portCount int

	hostPool *pkt.Pool
	// genPools holds one generator pool per partition: generators on
	// different partitions allocate concurrently, so they cannot share a
	// free list. Sequential runs use a single entry (partition 0),
	// preserving the old one-pool-for-all-generators behaviour. Which Go
	// allocation backs a frame's bytes is not simulation state, so the
	// split cannot move any output.
	genPools map[int]*pkt.Pool
	// pools tracks every packet pool the testbed created so Run can
	// release their free lists once the measurement is collected: a
	// saturating cell's pools grow to the high-water mark of in-flight
	// frames, and a campaign holds many cells' worth of testbeds between
	// GC cycles.
	pools []*pkt.Pool
	// poolParts records which partition owns each pool (missing = 0);
	// the owner runs its Reclaim hook at every dispatch window.
	poolParts map[*pkt.Pool]int

	gens     []*tgen.Generator
	sinks    []*tgen.Sink
	monitors []*vm.Monitor
	// controller is the control-plane churn actor (nil unless the graph
	// declares one).
	controller *ruleController

	guestCores []*cpu.PollCore

	// dirRx returns, per direction, the delivered-frame counter.
	dirRx []func() stats.Counter
	// hists are the latency histograms in use.
	hists []*stats.Histogram
	// dropFns report loss points.
	dropFns []func() int64
	// copyFns report host-side guest-memory copy counts (vhost devices).
	copyFns []func() int64
}

// newPool creates a packet pool registered for end-of-run release.
func (tb *testbed) newPool(bufSize int) *pkt.Pool {
	p := pkt.NewPool(bufSize)
	tb.pools = append(tb.pools, p)
	return p
}

// releasePools drops every pool's free list so the GC can reclaim the
// cell's buffer high-water mark as soon as the measurement is done. That
// mark is mostly headers: backing bytes are carved only for buffers that
// were ever materialized.
// Single-threaded by the time it runs (all partition workers joined);
// Trim reclaims remotely freed buffers first.
func (tb *testbed) releasePools() {
	for _, p := range tb.pools {
		p.Trim(0)
	}
}

// partOf returns the partition holding the named topology node.
func (tb *testbed) partOf(name string) int {
	if tb.cut == nil {
		return 0
	}
	return tb.cut.Of[name]
}

// schedOf returns the scheduler driving the given partition.
func (tb *testbed) schedOf(part int) *sim.Scheduler {
	if tb.par == nil {
		return tb.sched
	}
	return tb.scheds[part]
}

// genPoolOf returns (creating on first use) the generator pool owned by
// the given partition.
func (tb *testbed) genPoolOf(part int) *pkt.Pool {
	if p, ok := tb.genPools[part]; ok {
		return p
	}
	p := tb.newPool(bufSize)
	tb.genPools[part] = p
	if part != 0 {
		tb.poolParts[p] = part
	}
	return p
}

// run advances the whole simulation to time to on whichever engine the
// testbed was built for.
func (tb *testbed) run(to units.Time) {
	if tb.par != nil {
		tb.par.RunUntil(to)
	} else {
		tb.sched.RunUntil(to)
	}
}

// steps returns the dispatched-step count aggregated across partitions.
func (tb *testbed) steps() uint64 {
	if tb.par != nil {
		return tb.par.Steps()
	}
	return tb.sched.Steps()
}

// partitions returns how many partitions the parallel engine runs on, or
// 0 for the sequential engine (keeping sequential Results bit-equal to
// their JSON round trip — the campaign cache relies on that).
func (tb *testbed) partitions() int {
	if tb.par != nil {
		return tb.par.Parts()
	}
	return 0
}

// sutPorts tracks what was attached to the switch, in port-index order.
type sutPort struct {
	dev     switchdef.DevPort
	nicPort *nic.Port     // non-nil for phys
	vdev    *vhost.Device // non-nil for vhost
	pdev    *ptnet.Port   // non-nil for ptnet
}

// build assembles the testbed for cfg.
func build(cfg Config) (*testbed, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	info, err := switchdef.Lookup(cfg.Switch)
	if err != nil {
		return nil, err
	}
	if cfg.Scenario == Loopback && !cfg.Containers && info.MaxLoopbackVNFs > 0 && cfg.Chain > info.MaxLoopbackVNFs {
		return nil, fmt.Errorf("%w: %s supports at most %d loopback VNFs", ErrChainTooLong, info.Display, info.MaxLoopbackVNFs)
	}

	tb := &testbed{
		cfg:       cfg,
		info:      info,
		rng:       sim.NewRNG(cfg.Seed),
		model:     cost.Default(),
		genPools:  make(map[int]*pkt.Pool),
		poolParts: make(map[*pkt.Pool]int),
	}

	// Partition discovery must precede assembly: endpoints are registered
	// on their partition's scheduler as they are wired. Interrupt-mode
	// switches (VALE) are excluded — a cut wire cannot deliver the IRQ
	// side effects arrive() charges at send time — and graphs without a
	// phys wire (v2v) have no positive-lookahead edge; both fall back to
	// the sequential engine.
	g, err := cfg.Graph()
	if err != nil {
		return nil, err
	}
	tb.graph = g
	parts := 1
	if cfg.SimWorkers > 1 && info.IOMode == switchdef.PollMode {
		tb.cut = topo.Partition(g, cfg.SimWorkers)
		parts = tb.cut.Parts
	}
	tb.scheds = make([]*sim.Scheduler, parts)
	for i := range tb.scheds {
		tb.scheds[i] = sim.NewScheduler()
	}
	tb.sched = tb.scheds[0]
	if parts > 1 {
		tb.par = sim.NewPartitioned(tb.scheds)
	}

	tb.hostPool = tb.newPool(bufSize)

	if cfg.SUTCores > 1 {
		if info.IOMode == switchdef.InterruptMode {
			return nil, fmt.Errorf("%w: interrupt-driven %s runs its data plane in one kernel context", ErrNoMultiCore, info.Display)
		}
		// Multi-core: one private switch instance per worker core behind
		// the fleet facade, so wiring fans out to every instance.
		fleet, err := multicore.New(multicore.Options{
			Cores:    cfg.SUTCores,
			Dispatch: cfg.Dispatch,
			Policy:   cfg.RSSPolicy,
			NUMA:     cost.DefaultNUMA(),
			QueueCap: tb.nicRing(),
			NewInstance: func(k int) (switchdef.Switch, error) {
				return switchdef.New(cfg.Switch, switchdef.Env{
					Model: tb.model,
					RNG:   tb.rng.Derive(fmt.Sprintf("mc-inst%d", k)),
					Pool:  tb.hostPool,
				})
			},
		})
		if err != nil {
			return nil, err
		}
		tb.sw = fleet
		tb.fleet = fleet
		tb.dropFns = append(tb.dropFns, fleet.Drops)
	} else {
		sw, err := switchdef.New(cfg.Switch, switchdef.Env{
			Model: tb.model,
			RNG:   tb.rng,
			Pool:  tb.hostPool,
		})
		if err != nil {
			return nil, err
		}
		tb.sw = sw
		// Interrupt-driven SUTs need their core before wiring (devices
		// bind their IRQ lines to it); poll-mode cores are created after
		// wiring.
		if info.IOMode == switchdef.InterruptMode {
			meter := cost.NewMeter(tb.model, tb.rng.Derive("sut"))
			tb.sutIRQ = cpu.NewIRQCore(tb.sched, "sut", meter, sw.Poll)
		}
	}

	if err := tb.wire(); err != nil {
		return nil, err
	}

	if tb.par != nil {
		// Buffers routinely cross the cut (frames travel, sinks free on
		// the far side), so every pool takes the shared-free path; each
		// owner reclaims its remote returns at its window edges.
		for _, p := range tb.pools {
			p.MarkShared()
			part := tb.poolParts[p]
			tb.par.OnWindow(part, p.Reclaim)
		}
	}

	if info.IOMode == switchdef.PollMode {
		if tb.fleet == nil {
			meter := cost.NewMeter(tb.model, tb.rng.Derive("sut"))
			c := cpu.NewPollCore(tb.sched, "sut", meter, tb.sw.Poll)
			c.Start(0)
			tb.sutPolls = append(tb.sutPolls, c)
		} else {
			for _, cp := range tb.fleet.Polls() {
				meter := cost.NewMeter(tb.model, tb.rng.Derive(cp.Name))
				c := cpu.NewPollCore(tb.sched, cp.Name, meter, cp.Fn)
				c.Start(0)
				tb.sutPolls = append(tb.sutPolls, c)
			}
		}
	}
	return tb, nil
}

// attach hands a SUT port to the switch and returns its port index.
func (tb *testbed) attach(sp *sutPort) int {
	tb.portCount++
	return tb.sw.AddPort(sp.dev)
}

// nicRing returns the SUT-side descriptor ring size (Table 2 tunings).
func (tb *testbed) nicRing() int {
	if tb.info.RxRingOverride > 0 {
		return tb.info.RxRingOverride
	}
	return defaultNICRing
}

// addPhysPair creates a SUT NIC port wired to a generator-side NIC port.
func (tb *testbed) addPhysPair(name string) (*sutPort, *nic.Port) {
	itr := units.Time(0)
	if tb.info.IOMode == switchdef.InterruptMode {
		itr = valeITR
	}
	sutNIC := nic.NewPort(nic.Config{
		Name:   "sut-" + name,
		TxRing: tb.nicRing(), RxRing: tb.nicRing(),
		ITR: itr,
	})
	genNIC := nic.NewPort(nic.Config{
		Name:   "gen-" + name,
		TxRing: genRingSize, RxRing: genRingSize,
		HWTimestamp: true,
	})
	nic.Connect(sutNIC, genNIC)
	if tb.sutIRQ != nil {
		sutNIC.BindIRQ(tb.sutIRQ)
	}
	if part := tb.partOf(name); part != 0 {
		tb.cutWire(sutNIC, genNIC, part)
	}
	tb.dropFns = append(tb.dropFns,
		func() int64 { return sutNIC.Stats.RxDropsFull + sutNIC.Stats.TxDropsFull },
		func() int64 { return genNIC.Stats.RxDropsFull + genNIC.Stats.TxDropsFull },
	)
	queues := 0
	if tb.graph != nil {
		if n := tb.graph.Node(name); n != nil {
			queues = n.Queues
		}
	}
	sp := &sutPort{
		dev: &switchdef.PhysPort{
			Port:     sutNIC,
			Unpriced: tb.info.IOMode == switchdef.InterruptMode,
			Queues:   queues,
		},
		nicPort: sutNIC,
	}
	return sp, genNIC
}

// cutWire severs the phys wire between a SUT NIC and its generator-side
// NIC into two cross-partition handoff queues — both directions, always:
// the wire is the partition boundary, and cutting only the loaded
// direction would leave the other partition without an inbound clock
// bound, letting it race arbitrarily far ahead and flood the queues. Each
// direction's lookahead (TxLatency + RxLatency) becomes the receiver's
// window bound; each receiver drains its queue at its window edges.
func (tb *testbed) cutWire(sutNIC, genNIC *nic.Port, genPart int) {
	toSUT := nic.CutWire(genNIC, 0)
	toGen := nic.CutWire(sutNIC, 0)
	tb.par.Link(genPart, 0, nic.WireLookahead(genNIC))
	tb.par.Link(0, genPart, nic.WireLookahead(sutNIC))
	tb.par.OnWindow(0, toSUT.Drain)
	tb.par.OnWindow(genPart, toGen.Drain)
}

// addGuestIf creates one guest interface pair (host DevPort + guest NetIf)
// of the kind the switch uses.
func (tb *testbed) addGuestIf(name string) (*sutPort, vm.NetIf) {
	if tb.info.VirtualIface == "ptnet" {
		dev := ptnet.New(ptnet.Config{Name: name, NotifyDelay: ptnetNotify})
		if tb.sutIRQ != nil {
			dev.BindHostIRQ(tb.sutIRQ)
		}
		tb.dropFns = append(tb.dropFns, dev.Drops)
		return &sutPort{dev: &switchdef.PtnetPort{Dev: dev}, pdev: dev}, &vm.PtnetIf{Dev: dev}
	}
	vcfg := vhost.Config{
		Name:      name,
		CostScale: tb.info.VhostCostScale,
		EnqScale:  tb.info.VhostEnqScale,
		DeqScale:  tb.info.VhostDeqScale,
	}
	if tb.cfg.Containers {
		// Container networking (virtio-user) skips the VM exit path:
		// cheaper crossings and faster notification.
		vcfg.EnqScale = containerScale * orOne(vcfg.EnqScale, vcfg.CostScale)
		vcfg.DeqScale = containerScale * orOne(vcfg.DeqScale, vcfg.CostScale)
		vcfg.GuestNotifyDelay = containerNotify
	}
	dev := vhost.New(vcfg)
	tb.dropFns = append(tb.dropFns, func() int64 { return dev.RxDrops() + dev.TxDrops() })
	tb.copyFns = append(tb.copyFns, func() int64 { return dev.HostCopies })
	return &sutPort{dev: &switchdef.VhostPort{Dev: dev}, vdev: dev}, &vm.VirtioIf{Dev: dev}
}

// guestCore starts a poll-mode guest vCPU running fn.
func (tb *testbed) guestCore(name string, fn cpu.PollFunc) *cpu.PollCore {
	m := cost.NewMeter(tb.model, tb.rng.Derive(name))
	c := cpu.NewPollCore(tb.sched, name, m, fn)
	c.IdleStep = guestIdleStep
	tb.guestCores = append(tb.guestCores, c)
	c.Start(0)
	return c
}

// frameSpec builds the synthetic single-flow template for a direction whose
// traffic enters the SUT on port `in` and must leave on port `out`.
func (tb *testbed) frameSpec(in, out int) pkt.FrameSpec {
	return pkt.FrameSpec{
		SrcMAC:   switchdef.PortMAC(in),
		DstMAC:   switchdef.PortMAC(out),
		SrcIP:    [4]byte{10, 0, byte(in), 1},
		DstIP:    [4]byte{10, 0, byte(out), 2},
		SrcPort:  1000 + uint16(in),
		DstPort:  2000 + uint16(out),
		FrameLen: tb.cfg.FrameLen,
	}
}

// nicGenerator starts a MoonGen TX thread on a generator NIC port. The
// actor registers on its topology node's partition (the generator side of
// its phys pair's wire) and draws frames from that partition's pool.
func (tb *testbed) nicGenerator(name string, port *nic.Port, spec pkt.FrameSpec, probes bool) *tgen.Generator {
	part := tb.partOf(name)
	cfg := tgen.Config{
		Name:  name,
		Port:  port,
		Pool:  tb.genPoolOf(part),
		Spec:  spec,
		Rate:  tb.cfg.Rate,
		Flows: tb.cfg.Flows,
		IMIX:  tb.cfg.IMIX,
	}
	if tb.cfg.ZipfSkew > 0 {
		cfg.ZipfSkew = tb.cfg.ZipfSkew
		cfg.RNG = tb.rng.Derive("zipf-" + name)
	}
	if probes && tb.cfg.ProbeEvery > 0 {
		cfg.ProbeEvery = tb.cfg.ProbeEvery
	}
	g := tgen.NewGenerator(tb.schedOf(part), cfg)
	g.Start(0)
	tb.gens = append(tb.gens, g)
	return g
}

// nicSink starts a MoonGen RX / monitor thread on a generator NIC port and
// registers it as the delivery endpoint of one direction; like the
// generator, it runs on its node's partition.
func (tb *testbed) nicSink(name string, port *nic.Port) *tgen.Sink {
	s := tgen.NewSink(tb.schedOf(tb.partOf(name)), name, port)
	s.Start(0)
	tb.sinks = append(tb.sinks, s)
	tb.dirRx = append(tb.dirRx, func() stats.Counter { return s.Rx })
	tb.hists = append(tb.hists, &s.Hist)
	return s
}

// guestMonitor starts FloWatcher/pkt-gen-RX on a guest interface and
// registers it as a direction endpoint.
func (tb *testbed) guestMonitor(name string, ifc vm.NetIf) *vm.Monitor {
	mo := &vm.Monitor{If: ifc, SWStampNoise: swStampNoise, RNG: tb.rng.Derive(name)}
	tb.monitors = append(tb.monitors, mo)
	tb.guestCore(name, mo.Poll)
	tb.dirRx = append(tb.dirRx, func() stats.Counter { return mo.Rx })
	tb.hists = append(tb.hists, &mo.Hist)
	return mo
}

// guestGenerator starts MoonGen/pkt-gen TX inside a VM. MoonGen's port
// profile caps virtio guests at 10 Gbps; pkt-gen over ptnet is unlimited.
func (tb *testbed) guestGenerator(name string, ifc vm.NetIf, pool *pkt.Pool, spec pkt.FrameSpec, probes bool) *vm.Generator {
	g := &vm.Generator{
		If:   ifc,
		Pool: pool,
		Spec: spec,
	}
	if tb.info.VirtualIface != "ptnet" {
		g.VirtualRate = units.TenGigE
	}
	if tb.cfg.Rate > 0 {
		g.VirtualRate = tb.cfg.Rate
	}
	if probes && tb.cfg.ProbeEvery > 0 {
		g.ProbeEvery = tb.cfg.ProbeEvery
	}
	m := cost.NewMeter(tb.model, tb.rng.Derive(name))
	vm.StartGenerator(tb.sched, name, g, m, 0)
	return g
}

// attachCapture dumps frames delivered to the first NIC sink (or guest
// monitor) into a pcap file; the returned function closes it.
func (tb *testbed) attachCapture(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := pcap.NewWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	hook := func(at units.Time, b *pkt.Buf) { _ = w.WritePacket(at, b) }
	switch {
	case len(tb.sinks) > 0:
		tb.sinks[0].Capture = hook
	case len(tb.monitors) > 0:
		tb.monitors[0].Capture = hook
	default:
		f.Close()
		return nil, fmt.Errorf("core: no measurement endpoint to capture")
	}
	return func() { f.Close() }, nil
}
