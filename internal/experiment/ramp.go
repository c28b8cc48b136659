// The ramp harness: the one way this package measures a throughput
// ceiling. A ramp offers an open-loop Poisson stream at each rate of a
// ladder against a fresh deployment, warms up, measures one window, and
// judges the step by one sustained rule. The peak is the highest sustained
// rate. Loadmax, shardmax and livemax are configurations of this harness;
// what differs between them is the target a step runs on:
//
//   - simTarget: virtual time on the simulator, single group or sharded;
//   - liveTarget: goroutines over TCP loopback with a wall clock, on the
//     optimized or the legacy hot path.
//
// The target also decides how a ramp walks its rates. Virtual-time steps
// are share-nothing, so every step of every target fans across the sweep
// pool. Wall-clock steps must not share the machine, so they run one at a
// time and stop after two misses in a row.
package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/live"
	"aqua/internal/netsim"
	"aqua/internal/shard"
	"aqua/internal/sim"
	"aqua/internal/tcpnet"
	"aqua/internal/workload"
)

// RampConfig is the run of fields every ramp shares. Each experiment's
// config embeds it, so its fields keep their place in the artifact JSON.
// The omitempty fields belong to one kind of ramp only, and the other kind
// pins them to zero in its setDefaults: UpdateBytes and ArrivalCoalesce
// are livemax's, SeqCostBase and SeqCostPerReq the sim ramps'.
type RampConfig struct {
	// Primaries counts serving primaries (the sequencer is extra, as in
	// Fig4Config); Secondaries the secondary group.
	Primaries   int
	Secondaries int
	// LUI is the lazy update interval.
	LUI time.Duration

	// Clients is the simulated open-loop population.
	Clients int
	// ReadFraction is the read share of the offered stream.
	ReadFraction float64
	// Staleness is the read staleness bound a (0: sequential).
	Staleness int
	// UpdateBytes pads update payloads to this size (0 keeps the tiny
	// "key=<seq>" payloads).
	UpdateBytes int `json:",omitempty"`

	// Deadline is the per-read deadline; P99Bound the sustained criterion
	// on windowed p99 read latency (default = Deadline); MaxFailureRate
	// the bound on the windowed timing-failure rate.
	Deadline       time.Duration
	P99Bound       time.Duration
	MaxFailureRate float64

	// Rates is the offered-rate ramp in requests/second.
	Rates []float64
	// Warmup elapses before the measurement window of each step; the
	// window lasts StepDuration. Every step is an independent deployment.
	Warmup       time.Duration
	StepDuration time.Duration

	// SeqCostBase/SeqCostPerReq model the sequencer ordering pipeline:
	// each broadcast occupies it for base + n·perReq, which is what makes
	// per-request broadcasts saturate and amortized batches not.
	SeqCostBase   time.Duration `json:",omitempty"`
	SeqCostPerReq time.Duration `json:",omitempty"`
	// AssignBatch/AssignBatchWindow configure batched GSN assignment.
	AssignBatch       int
	AssignBatchWindow time.Duration

	// ArrivalCoalesce quantizes the generator's arrival timers (0: one
	// timer per arrival). At tens of kilorequests/second on the live
	// runtime one timer per arrival would make the generator the
	// bottleneck.
	ArrivalCoalesce time.Duration `json:",omitempty"`
}

// rampDefaults are the defaults the ramps share; each ramp overrides the
// few it tunes, its rate ladder above all.
func rampDefaults() RampConfig {
	return RampConfig{
		Primaries:         3,
		Secondaries:       2,
		LUI:               100 * time.Millisecond,
		Clients:           10000,
		ReadFraction:      0.5,
		Deadline:          25 * time.Millisecond,
		MaxFailureRate:    0.01,
		Warmup:            500 * time.Millisecond,
		StepDuration:      2 * time.Second,
		SeqCostBase:       150 * time.Microsecond,
		SeqCostPerReq:     2 * time.Microsecond,
		AssignBatch:       256,
		AssignBatchWindow: time.Millisecond,
	}
}

// fill sets every zero field of c from d; P99Bound then defaults to the
// deadline.
func (c *RampConfig) fill(d RampConfig) {
	orDefault(&c.Primaries, d.Primaries)
	orDefault(&c.Secondaries, d.Secondaries)
	orDefault(&c.LUI, d.LUI)
	orDefault(&c.Clients, d.Clients)
	orDefault(&c.ReadFraction, d.ReadFraction)
	orDefault(&c.Staleness, d.Staleness)
	orDefault(&c.UpdateBytes, d.UpdateBytes)
	orDefault(&c.Deadline, d.Deadline)
	orDefault(&c.MaxFailureRate, d.MaxFailureRate)
	if len(c.Rates) == 0 {
		c.Rates = d.Rates
	}
	orDefault(&c.Warmup, d.Warmup)
	orDefault(&c.StepDuration, d.StepDuration)
	orDefault(&c.SeqCostBase, d.SeqCostBase)
	orDefault(&c.SeqCostPerReq, d.SeqCostPerReq)
	orDefault(&c.AssignBatch, d.AssignBatch)
	orDefault(&c.AssignBatchWindow, d.AssignBatchWindow)
	orDefault(&c.ArrivalCoalesce, d.ArrivalCoalesce)
	orDefault(&c.P99Bound, c.Deadline)
}

func orDefault[T comparable](v *T, d T) {
	var zero T
	if *v == zero {
		*v = d
	}
}

// RampWindow is the run of fields every ramp point reports about its
// measurement window.
type RampWindow struct {
	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
	Expired   uint64 `json:"expired"`

	UpdatesPerSec float64 `json:"updates_per_sec"`
	ReadsPerSec   float64 `json:"reads_per_sec"`

	ReadP50MS   float64 `json:"read_p50_ms"`
	ReadP99MS   float64 `json:"read_p99_ms"`
	UpdateP99MS float64 `json:"update_p99_ms"`
	// FailureRate is timing failures over reads resolved in the window
	// (completions plus expiries: the open-loop denominator the bound is
	// judged against).
	FailureRate float64 `json:"failure_rate"`
}

// RampPeak is a ramp's highest offered rate whose step met every bound,
// with that step's completed throughput split by kind. All zero if no step
// was sustained.
type RampPeak struct {
	PeakRate          float64 `json:"peak_rate"`
	PeakUpdatesPerSec float64 `json:"peak_updates_per_sec"`
	PeakReadsPerSec   float64 `json:"peak_reads_per_sec"`
}

// RampSpeedup compares one peak with a baseline's: SpeedupUpdates on peak
// sustained updates/sec, SpeedupRate on peak offered rate (0 when the
// baseline has no peak).
type RampSpeedup struct {
	SpeedupUpdates float64 `json:"speedup_updates"`
	SpeedupRate    float64 `json:"speedup_rate"`
}

// over returns p's speedup over base.
func (p RampPeak) over(base RampPeak) RampSpeedup {
	var s RampSpeedup
	if base.PeakUpdatesPerSec > 0 {
		s.SpeedupUpdates = p.PeakUpdatesPerSec / base.PeakUpdatesPerSec
	}
	if base.PeakRate > 0 {
		s.SpeedupRate = p.PeakRate / base.PeakRate
	}
	return s
}

// rampStep is one measured step, before an experiment shapes it into its
// own point type.
type rampStep struct {
	rate float64
	RampWindow
	// fastServed counts frontier fast-path reads across serving replicas,
	// flushes sequencer assign-batch flushes, perShard completions per
	// shard: all whole-run counts, not just the window.
	fastServed uint64
	flushes    uint64
	perShard   []uint64
	sustained  bool
}

// peakOf folds a ramp's steps into its peak.
func peakOf(steps []rampStep) RampPeak {
	var pk RampPeak
	for _, s := range steps {
		if s.sustained && s.rate > pk.PeakRate {
			pk = RampPeak{PeakRate: s.rate, PeakUpdatesPerSec: s.UpdatesPerSec, PeakReadsPerSec: s.ReadsPerSec}
		}
	}
	return pk
}

// rampShape is the deployment every target builds: shards independent
// deployments of one service config, driven by one engine.
type rampShape struct {
	shards int
	// keys > 0 runs the engine in multi-shard mode over a uniform keyspace
	// of that size (even at one shard); 0 sends everything to shard 0 as
	// a single service.
	keys int
	// unbatched keeps per-request GSN broadcasts and no frontier fast
	// reads: loadmax's baseline.
	unbatched bool
}

// deploy stands up one step: the service as sh.shards deployments on
// svcRT and the engine offering rate, registered as "load", on genRT.
func (c RampConfig) deploy(sh rampShape, svcRT, genRT core.Runtime, rate float64) (*core.ShardedDeployment, *workload.Engine) {
	svc := core.ServiceConfig{
		Primaries:     c.Primaries + 1, // + sequencer
		Secondaries:   c.Secondaries,
		LazyInterval:  c.LUI,
		Group:         group.DefaultConfig(),
		NewApp:        func() app.Application { return apps.NewKVStore() },
		SeqCostBase:   c.SeqCostBase,
		SeqCostPerReq: c.SeqCostPerReq,
	}
	if !sh.unbatched {
		svc.AssignBatch = c.AssignBatch
		svc.AssignBatchWindow = c.AssignBatchWindow
		svc.FastReads = true
	}
	sd, err := core.DeployShards(svcRT, svc, sh.shards, nil)
	if err != nil {
		panic(fmt.Sprintf("experiment: ramp deploy: %v", err)) // static config bug
	}
	ecfg := workload.EngineConfig{
		Clients:         c.Clients,
		Arrivals:        workload.Poisson{Rate: rate},
		ArrivalCoalesce: c.ArrivalCoalesce,
		UpdatePad:       c.UpdateBytes,
		ReadFraction:    c.ReadFraction,
		Staleness:       c.Staleness,
		Deadline:        c.Deadline,
	}
	if sh.keys > 0 {
		ecfg.Shards = sd.Infos
		ecfg.ShardOf = shard.NewUniform(sh.shards).Owner
		ecfg.Keys = &workload.UniformKeys{N: sh.keys}
	} else {
		ecfg.Service = sd.Infos[0]
	}
	eng := workload.NewEngine(ecfg)
	genRT.Register("load", eng)
	return sd, eng
}

// window warms up and measures one window, passing time with wait.
func (c RampConfig) window(eng *workload.Engine, wait func(time.Duration)) workload.EngineMetrics {
	wait(c.Warmup)
	before := eng.Metrics()
	wait(c.StepDuration)
	return eng.Metrics().Sub(before)
}

// step turns a measured window into a step and judges it: sustained means
// no shed, failure rate and read p99 inside their bounds, and both reads
// and updates completing.
func (c RampConfig) step(rate float64, w workload.EngineMetrics, sd *core.ShardedDeployment, eng *workload.Engine) rampStep {
	secs := c.StepDuration.Seconds()
	s := rampStep{rate: rate, RampWindow: RampWindow{
		Issued:        w.Issued,
		Completed:     w.Completed,
		Shed:          w.Shed,
		Expired:       w.Expired,
		UpdatesPerSec: float64(w.UpdatesDone) / secs,
		ReadsPerSec:   float64(w.ReadsDone) / secs,
		ReadP50MS:     durMS(w.ReadLatency.Quantile(0.50)),
		ReadP99MS:     durMS(w.ReadLatency.Quantile(0.99)),
		UpdateP99MS:   durMS(w.UpdateLatency.Quantile(0.99)),
	}}
	if denom := w.ReadsDone + w.Expired; denom > 0 {
		s.FailureRate = float64(w.TimingFailures) / float64(denom)
	}
	for _, d := range sd.Shards {
		for _, id := range d.ServingPrimaries {
			s.fastServed += d.Replicas[id].FastServed()
		}
		flushes, _ := d.Replicas[d.Sequencer].AssignBatchStats()
		s.flushes += flushes
	}
	_, s.perShard = eng.ShardCounts()
	s.sustained = w.Shed == 0 &&
		s.FailureRate <= c.MaxFailureRate &&
		s.ReadP99MS <= durMS(c.P99Bound) &&
		w.ReadsDone > 0 && w.UpdatesDone > 0
	return s
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sweepRamp runs c.Rates on every virtual-time target, every step of every
// target fanned across the sweep pool (steps are share-nothing), and
// returns each target's steps in rate order.
func sweepRamp(c RampConfig, targets ...simTarget) [][]rampStep {
	type job struct {
		target int
		rate   float64
	}
	var jobs []job
	for i := range targets {
		for _, r := range c.Rates {
			jobs = append(jobs, job{i, r})
		}
	}
	steps := runPoints(jobs, func(j job) rampStep { return targets[j.target].run(c, j.rate) })
	runs := make([][]rampStep, len(targets))
	for k, j := range jobs {
		runs[j.target] = append(runs[j.target], steps[k])
	}
	return runs
}

// walkRamp walks c.Rates on the wall-clock target one step at a time, so
// no two steps share the machine, and stops after two misses in a row
// (overload only gets worse with offered rate, so the tail would be dead
// time). Progress counts this walk's steps; an early stop completes it.
func walkRamp(c RampConfig, t liveTarget) []rampStep {
	var steps []rampStep
	misses := 0
	for i, r := range c.Rates {
		s := t.run(c, r)
		steps = append(steps, s)
		if s.sustained {
			misses = 0
		} else {
			misses++
		}
		if misses == 2 {
			reportProgress(len(c.Rates), len(c.Rates))
			break
		}
		reportProgress(i+1, len(c.Rates))
	}
	return steps
}

// simTarget runs steps in virtual time: one scheduler per step, seeded
// with seed plus the offered rate, over a 0.2–1ms uniform network. One
// shard with no keyspace is the single-group target.
type simTarget struct {
	rampShape
	seed int64
}

func (t simTarget) run(c RampConfig, rate float64) rampStep {
	s := sim.NewScheduler(t.seed + int64(rate))
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.UniformDelay{
		Min: 200 * time.Microsecond,
		Max: time.Millisecond,
	}))
	sd, eng := c.deploy(t.rampShape, rt, rt, rate)
	rt.Start()
	w := c.window(eng, func(d time.Duration) { s.RunFor(d) })
	return c.step(rate, w, sd, eng)
}

// liveTarget runs steps for real: the service on one live runtime, the
// engine on another, TCP loopback between them, wall-clock windows.
// legacy selects the pre-optimization hot path (live.WithLegacyHotPath +
// tcpnet.WithLegacyInbound) on both sides.
type liveTarget struct {
	rampShape
	seed      int64
	sendQueue int
	legacy    bool
}

func (t liveTarget) run(c RampConfig, rate float64) rampStep {
	liveOpts := []live.Option{live.WithSeed(t.seed)}
	trOpts := []tcpnet.Option{tcpnet.WithSendQueue(t.sendQueue)}
	if t.legacy {
		liveOpts = append(liveOpts, live.WithLegacyHotPath())
		trOpts = append(trOpts, tcpnet.WithLegacyInbound())
	}
	rtS := live.NewRuntime(liveOpts...) // serving process
	rtC := live.NewRuntime(liveOpts...) // generator process
	trS, err := tcpnet.New(rtS, "127.0.0.1:0", nil, trOpts...)
	if err != nil {
		panic(fmt.Sprintf("experiment: live ramp listen: %v", err))
	}
	trC, err := tcpnet.New(rtC, "127.0.0.1:0", nil, trOpts...)
	if err != nil {
		panic(fmt.Sprintf("experiment: live ramp listen: %v", err))
	}
	sd, eng := c.deploy(t.rampShape, rtS, rtC, rate)

	// Address wiring: the generator reaches every replica at the serving
	// process's listener; replicas reach the engine at the generator's.
	for _, d := range sd.Shards {
		for _, id := range d.PrimaryGroup {
			trC.AddPeer(id, trS.Addr())
		}
		for _, id := range d.Secondaries {
			trC.AddPeer(id, trS.Addr())
		}
	}
	trS.AddPeer("load", trC.Addr())
	rtS.SetRemote(trS.Send)
	rtC.SetRemote(trC.Send)
	rtS.Start()
	rtC.Start()

	w := c.window(eng, time.Sleep)

	rtC.Stop()
	rtS.Stop()
	trC.Close()
	trS.Close()
	return c.step(rate, w, sd, eng)
}

// rampPoint is an experiment's point type, seen as a table row.
type rampPoint interface{ row() rampStep }

// rampCols selects the optional table columns.
type rampCols struct{ expired, fast bool }

// writeRamp renders one ramp: its label, a row per step, and the peak line
// (suffix ends it).
func writeRamp[P rampPoint](w io.Writer, label string, cols rampCols, points []P, pk RampPeak, suffix string) {
	fmt.Fprintf(w, "%s\n", label)
	fmt.Fprintf(w, "%-12s %10s %10s %8s", "offered/s", "upd/s", "reads/s", "shed")
	if cols.expired {
		fmt.Fprintf(w, " %8s", "expired")
	}
	fmt.Fprintf(w, " %10s %10s %10s", "p50(ms)", "p99(ms)", "failRate")
	if cols.fast {
		fmt.Fprintf(w, " %9s", "fast")
	}
	fmt.Fprintf(w, " %5s\n", "ok")
	for _, p := range points {
		s := p.row()
		fmt.Fprintf(w, "%-12.0f %10.0f %10.0f %8d", s.rate, s.UpdatesPerSec, s.ReadsPerSec, s.Shed)
		if cols.expired {
			fmt.Fprintf(w, " %8d", s.Expired)
		}
		fmt.Fprintf(w, " %10.2f %10.2f %10.4f", s.ReadP50MS, s.ReadP99MS, s.FailureRate)
		if cols.fast {
			fmt.Fprintf(w, " %9d", s.fastServed)
		}
		fmt.Fprintf(w, " %5v\n", s.sustained)
	}
	fmt.Fprintf(w, "peak: %.0f offered/s (%.0f upd/s, %.0f reads/s)%s\n\n",
		pk.PeakRate, pk.PeakUpdatesPerSec, pk.PeakReadsPerSec, suffix)
}

// bounds renders the sustained rule for a table's title line.
func (c RampConfig) bounds() string {
	return fmt.Sprintf("bounds: read p99 <= %.1fms, failure rate <= %.3f, no shed",
		durMS(c.P99Bound), c.MaxFailureRate)
}

// writeJSON writes v as indented JSON (the BENCH_*.json layout).
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
