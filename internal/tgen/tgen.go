// Package tgen models the traffic generation and measurement tools of the
// paper's testbed: MoonGen as TX/RX on the NUMA-node-1 NIC (with hardware
// PTP timestamping for p2p/loopback latency), and the counting sinks.
//
// Generators run on dedicated node-1 cores, so — as the paper argues for
// its single-server methodology — they consume no SUT resources; their
// cost accounting is pacing only.
package tgen

import (
	"math"

	"repro/internal/nic"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// DefaultBurst is MoonGen's TX burst size.
const DefaultBurst = 32

// imixSizes is the classic IMIX cycle: 7×64B, 4×570B, 1×1518B.
var imixSizes = []int{64, 570, 64, 570, 64, 1518, 64, 570, 64, 570, 64, 64}

// Config describes one generator (one TX port).
type Config struct {
	Name string
	Port *nic.Port
	Pool *pkt.Pool
	Spec pkt.FrameSpec
	// Rate is the offered load; 0 means saturate the line.
	Rate units.BitRate
	// Burst is the TX burst size (default 32).
	Burst int
	// ProbeEvery injects a PTP latency probe at this interval (0 = none).
	ProbeEvery units.Time
	// Flows cycles the synthetic traffic across this many flows
	// (distinct source MAC + UDP source port); 0/1 = the paper's
	// single-flow traffic.
	Flows int
	// ZipfSkew, when > 0 (with Flows > 1 and an RNG), draws each
	// frame's flow from a Zipf distribution with this exponent instead
	// of the round-robin cycle: flow k carries weight 1/(k+1)^skew, the
	// heavy-tailed mix of real traces. 0 keeps the cycle byte-identical.
	ZipfSkew float64
	// RNG drives the Zipf draw (required only when ZipfSkew > 0).
	RNG *sim.RNG
	// IMIX cycles frame sizes through the classic Internet mix
	// (7×64B : 4×570B : 1×1518B) instead of Spec.FrameLen.
	IMIX bool
	// SWTimestamp stamps probes at generation time instead of leaving
	// them for NIC hardware timestamping.
	SWTimestamp bool
}

// Generator is a MoonGen TX thread.
type Generator struct {
	cfg   Config
	sched *sim.Scheduler
	task  *sim.Task

	seq       uint64
	nextProbe units.Time
	nextDue   units.Time // rate-mode pacing

	// tmpls caches one pre-serialized frame image per (frameLen, flow),
	// built on first use: a dense per-flow table for each frame length
	// in play (one, or IMIX's three). Emitted buffers reference the
	// image lazily instead of being built.
	tmpls []tmplTable

	// zipf is the precomputed flow sampler when ZipfSkew is active; nil
	// keeps the round-robin path untouched.
	zipf *zipfTable

	// Sent counts emitted frames; SentProbes the probe subset.
	Sent       int64
	SentProbes int64
}

// tmplTable holds the frame images of one frame length, indexed by flow.
type tmplTable struct {
	frameLen int
	byFlow   []*pkt.Template
}

// NewGenerator registers a generator with the scheduler (idle until Start).
func NewGenerator(s *sim.Scheduler, cfg Config) *Generator {
	if cfg.Burst == 0 {
		cfg.Burst = DefaultBurst
	}
	g := &Generator{cfg: cfg, sched: s}
	if cfg.ZipfSkew > 0 && cfg.Flows > 1 && cfg.RNG != nil {
		g.zipf = newZipfTable(cfg.Flows, cfg.ZipfSkew)
	}
	g.task = s.Register(cfg.Name, g)
	return g
}

// zipfTable is an inverse-CDF sampler for a Zipf distribution over n
// flows: flow k has weight 1/(k+1)^s. An explicit CDF keeps the draw
// exact, allocation-free, and — unlike rejection-based samplers —
// consuming exactly one RNG value per frame, so the random stream's
// alignment is a pure function of the frame index.
//
// The inversion uses a Chen–Asau guide table: guide[j] is the first flow
// whose CDF value, scaled by len(cdf), reaches j. For a draw u with
// int(u*len(cdf)) == j every earlier flow has cdf < u (float rounding is
// monotone), so a forward scan from guide[j] while cdf[i] < u finds the
// same flow as a binary search (sort.SearchFloat64s), in O(1) expected
// steps.
type zipfTable struct {
	cdf   []float64
	guide []int // len(cdf)+1: u*len(cdf) may round up to len(cdf)
}

func newZipfTable(n int, s float64) *zipfTable {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	m := float64(n)
	guide := make([]int, n+1)
	i := 0
	for j := range guide {
		for i < n && cdf[i]*m < float64(j) {
			i++
		}
		guide[j] = i
	}
	return &zipfTable{cdf: cdf, guide: guide}
}

// flow maps a uniform draw u in [0, 1) to its flow index: the first i
// with cdf[i] >= u.
func (z *zipfTable) flow(u float64) int {
	i := z.guide[int(u*float64(len(z.cdf)))]
	for i < len(z.cdf) && z.cdf[i] < u {
		i++
	}
	return i
}

// Start schedules the first burst.
func (g *Generator) Start(at units.Time) {
	g.nextDue = at
	g.nextProbe = at + g.cfg.ProbeEvery
	g.sched.WakeAt(g.task, at)
}

// template returns the cached frame image for (frameLen, flow).
func (g *Generator) template(frameLen, flow int) *pkt.Template {
	var tab *tmplTable
	for i := range g.tmpls {
		if g.tmpls[i].frameLen == frameLen {
			tab = &g.tmpls[i]
			break
		}
	}
	if tab == nil {
		g.tmpls = append(g.tmpls, tmplTable{frameLen, make([]*pkt.Template, max(g.cfg.Flows, 1))})
		tab = &g.tmpls[len(g.tmpls)-1]
	}
	t := tab.byFlow[flow]
	if t == nil {
		spec := g.cfg.Spec
		spec.FrameLen = frameLen
		t = spec.Template(flow)
		tab.byFlow[flow] = t
	}
	return t
}

// emitOne builds and transmits one frame stamped at time at, reporting
// whether the burst should continue (false: TX ring full). Ordering of the
// sequence counter, IMIX size cycle, flow assignment, and probe marking is
// load-bearing: it fixes the exact byte content and metadata of frame
// g.seq+1 and must not change.
func (g *Generator) emitOne(at units.Time) bool {
	port := g.cfg.Port
	if port.TxFree(at) == 0 {
		return false
	}
	frameLen := g.cfg.Spec.FrameLen
	if g.cfg.IMIX {
		frameLen = imixSizes[g.seq%uint64(len(imixSizes))]
	}
	g.seq++
	flow := 0
	if g.zipf != nil {
		flow = g.zipf.flow(g.cfg.RNG.Float64())
	} else if g.cfg.Flows > 1 {
		flow = int(g.seq) % g.cfg.Flows
	}
	b := g.cfg.Pool.Get(frameLen)
	b.SetTemplate(g.template(frameLen, flow))
	b.Seq = g.seq
	if g.cfg.ProbeEvery > 0 && at >= g.nextProbe {
		var ts units.Time // 0: the NIC stamps on the wire
		if g.cfg.SWTimestamp {
			ts = at
		}
		pkt.MarkProbe(b, g.seq, ts)
		g.nextProbe = at + g.cfg.ProbeEvery
		g.SentProbes++
	}
	if !port.SendAt(at, b) {
		b.Free()
		return false
	}
	g.Sent++
	return true
}

// Step implements sim.Actor: emit one burst (saturating mode) or one
// CBR-spaced batch (rate mode, as MoonGen paces) and reschedule.
func (g *Generator) Step(now units.Time) (units.Time, bool) {
	port := g.cfg.Port
	if g.cfg.Rate <= 0 {
		// Saturating mode keeps the TX ring topped up so the wire never
		// idles on the doorbell latency (MoonGen queues descriptors
		// ahead of the NIC).
		for i := 0; i < 4*g.cfg.Burst; i++ {
			if !g.emitOne(now) {
				break
			}
		}
		// Return before the queued frames drain so the ring never empties.
		next := now + units.Time(g.cfg.Burst)*port.Rate().WireTime(g.cfg.Spec.FrameLen)/2
		if until := port.BusyUntil(); until > now && until-now < next-now {
			// Ring nearly empty: catch up immediately.
			next = until
		}
		if next <= now {
			next = now + units.Nanosecond
		}
		return next, true
	}
	// Rate mode: constant bit rate. One scheduler step emits up to Burst
	// frames, each stamped with its own CBR due time via SendAt, never past
	// the dispatch deadline: this is bit-identical to one step per frame
	// because the unbatched engine dispatched the generator at exactly
	// these instants (the TX port is touched only by its generator, and
	// everything downstream keys off the frame's stamp, not the clock).
	deadline := g.sched.Deadline()
	for i := 0; i < g.cfg.Burst; i++ {
		due := g.nextDue
		if i > 0 && due > deadline {
			break
		}
		g.emitOne(due)
		g.nextDue += g.cfg.Rate.WireTime(g.cfg.Spec.FrameLen)
		if g.nextDue <= due {
			g.nextDue = due + units.Nanosecond
		}
	}
	return g.nextDue, true
}

// Sink is the RX/measurement side (MoonGen RX thread or FloWatcher): it
// drains a NIC port, counts frames, and records probe round-trip times.
type Sink struct {
	Port *nic.Port

	sched *sim.Scheduler
	task  *sim.Task
	every units.Time

	// Rx counts everything the sink consumed; Hist collects probe RTTs.
	Rx   stats.Counter
	Hist stats.Histogram
	// Capture, when set, observes every consumed frame (pcap dumps).
	Capture func(at units.Time, b *pkt.Buf)
}

// SinkPollInterval is how often the sink drains its port; with a 4096-deep
// ring this never drops at line rate.
const SinkPollInterval = 2 * units.Microsecond

// NewSink registers a sink with the scheduler (idle until Start).
func NewSink(s *sim.Scheduler, name string, port *nic.Port) *Sink {
	k := &Sink{Port: port, sched: s, every: SinkPollInterval}
	k.task = s.Register(name, k)
	return k
}

// Start schedules the first poll.
func (k *Sink) Start(at units.Time) { k.sched.WakeAt(k.task, at) }

// Step implements sim.Actor.
func (k *Sink) Step(now units.Time) (units.Time, bool) {
	var burst [256]*pkt.Buf
	for {
		n := k.Port.RxBurst(now, burst[:])
		if n == 0 {
			break
		}
		for _, b := range burst[:n] {
			k.Rx.Add(1, int64(b.Len()))
			if k.Capture != nil {
				k.Capture(b.Ingress, b)
			}
			if b.Probe {
				if _, tx, ok := pkt.ProbeInfo(b); ok && tx > 0 {
					k.Hist.Add(b.Ingress - tx)
				} else if b.TxStamp > 0 {
					k.Hist.Add(b.Ingress - b.TxStamp)
				}
			}
			b.Free()
		}
		if n < len(burst) {
			break
		}
	}
	return now + k.every, true
}
