// Livemax: the heavy-traffic ramp of loadmax, run for real — goroutine
// parallelism instead of the virtual-time scheduler, TCP loopback sockets
// instead of the simulated network, wall-clock measurement windows instead
// of simulated time. It exists to load-test the serving stack itself: the
// live mailbox hot path, the zero-copy inbound decoder, the batched
// enqueue, and the vectored writer flush. Each run measures the
// pre-optimization hot path (live.WithLegacyHotPath +
// tcpnet.WithLegacyInbound) and the optimized one in the same invocation —
// the same same-run-baseline discipline as the wire-vs-gob benchmark — and
// also runs the virtual-time loadmax ramp so the sim-predicted ceiling and
// the measured live ceiling sit in one artifact.
//
// Caveat (see EXPERIMENTS.md): these are wall-clock numbers over loopback
// on whatever machine runs the benchmark, competing with the generator for
// the same cores. They measure the serving stack's efficiency, not the
// protocol's intrinsic latency; the virtual-time tables remain the
// controlled-model results.
package experiment

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// LivemaxConfig parameterizes the live offered-load ramp.
//
// Defaults differ from the sim ramps where every hop being a real socket
// round trip competing for real cores demands it: 2 primaries (+
// sequencer) and 1 secondary, 512 clients, 1024-byte update values (the
// sim ramps keep their tiny payloads, which is part of why live and sim
// ceilings differ), a 50ms deadline that absorbs scheduler and GC noise
// the simulator does not have, rates ×1.5 from 1000 to ~26000/s (finer
// than the sim's ×2 ladder so the peak ratio is not quantized to powers of
// two), arrival timers coalesced to 10ms (even so, measured issuance runs
// a few percent under the offered rate, which is why points report issued
// counts), and no modelled sequencer cost. Both modes run batched: the
// baseline here is the runtime/transport hot path, not the ordering
// protocol.
type LivemaxConfig struct {
	Seed int64

	// Shards is the number of independent shard deployments hosted by the
	// serving process (default 1). All shards share the process — the
	// point of the parallel node runtime is that they actually run
	// concurrently on its goroutines.
	Shards int

	RampConfig

	// SendQueue is the per-peer transport ring capacity (default 8192) —
	// sized so bursts ride the ring instead of shedding onto the
	// retransmit path.
	SendQueue int

	// SimCompare runs the virtual-time loadmax ramp (batched mode, same
	// seed) in the same invocation and reports its predicted ceiling next
	// to the measured live one (Quick turns it off).
	SimCompare bool
	// SimRates overrides the sim comparison ramp (default: the loadmax
	// defaults).
	SimRates []float64
}

func (c *LivemaxConfig) setDefaults() {
	orDefault(&c.Shards, 1)
	orDefault(&c.SendQueue, 8192)
	d := rampDefaults()
	d.Primaries = 2
	d.Secondaries = 1
	d.Clients = 512
	d.UpdateBytes = 1024
	d.Deadline = 50 * time.Millisecond
	d.Rates = []float64{1000, 1500, 2250, 3400, 5100, 7700, 11500, 17000, 26000}
	d.ArrivalCoalesce = 10 * time.Millisecond
	c.fill(d)
	c.SeqCostBase, c.SeqCostPerReq = 0, 0 // the sim ramps', not settable here
}

// Quick shrinks the ramp to CI scale: two low rates, short wall-clock
// windows, no sim comparison. The point is that the live plumbing (two
// runtimes, loopback sockets, engine, shard deployment, teardown) works,
// not where the ceiling is.
func (c LivemaxConfig) Quick() LivemaxConfig {
	c.Rates = []float64{500, 2000}
	c.Warmup = 100 * time.Millisecond
	c.StepDuration = 300 * time.Millisecond
	c.SimCompare = false
	return c
}

// target is the live loopback target on the optimized or legacy hot path.
// Sharded deployments route per key over 1024 uniform keys.
func (c LivemaxConfig) target(legacy bool) liveTarget {
	sh := rampShape{shards: c.Shards}
	if c.Shards > 1 {
		sh.keys = 1024
	}
	return liveTarget{sh, c.Seed, c.SendQueue, legacy}
}

// LivemaxPoint is one measured step of the live ramp.
type LivemaxPoint struct {
	OfferedRate float64 `json:"offered_rate"`
	Legacy      bool    `json:"legacy"`
	RampWindow

	// FastServed counts frontier fast-path reads across serving replicas
	// (whole run).
	FastServed uint64 `json:"fast_served"`

	Sustained bool `json:"sustained"`
}

func (p LivemaxPoint) row() rampStep {
	return rampStep{rate: p.OfferedRate, RampWindow: p.RampWindow, sustained: p.Sustained}
}

func livemaxPoint(legacy bool, s rampStep) LivemaxPoint {
	return LivemaxPoint{
		OfferedRate: s.rate,
		Legacy:      legacy,
		RampWindow:  s.RampWindow,
		FastServed:  s.fastServed,
		Sustained:   s.sustained,
	}
}

// RunLivemaxPoint runs one live step at rate on the chosen hot path.
func RunLivemaxPoint(cfg LivemaxConfig, rate float64, legacy bool) LivemaxPoint {
	cfg.setDefaults()
	return livemaxPoint(legacy, cfg.target(legacy).run(cfg.RampConfig, rate))
}

// LivemaxResult is one hot-path mode's ramp with its peak sustained point.
type LivemaxResult struct {
	Legacy bool           `json:"legacy"`
	Points []LivemaxPoint `json:"points"`
	RampPeak
}

func livemaxResult(legacy bool, steps []rampStep) LivemaxResult {
	res := LivemaxResult{Legacy: legacy, RampPeak: peakOf(steps)}
	for _, s := range steps {
		res.Points = append(res.Points, livemaxPoint(legacy, s))
	}
	return res
}

// LivemaxHotpath is the serving-stack isolation stage of the report: both
// modes' pump runs (livehotpath.go) and their updates/s ratio. The full
// service ramp saturates on replication-protocol CPU, so this is where
// the runtime/transport optimizations are actually visible.
type LivemaxHotpath struct {
	Baseline  HotpathResult `json:"baseline"`
	Optimized HotpathResult `json:"optimized"`
	Speedup   float64       `json:"speedup"`
}

// LivemaxReport is the whole artifact: the legacy-hot-path baseline and the
// optimized ramp from the same invocation, the optimized ramp's speedup
// over the baseline, the hot-path pump stage, and the sim-predicted
// loadmax ceiling for the model-vs-reality row.
type LivemaxReport struct {
	Config LivemaxConfig `json:"config"`

	// GOMAXPROCS records the benchmark host's parallelism. The parallel
	// node runtime's wins are contention wins — fewer wakeups, fewer
	// lock handoffs, fewer allocations fighting for the same GC — so on
	// a single-core host both modes serialize onto one CPU and the
	// separation compresses toward the pure instruction-count saving
	// (see EXPERIMENTS.md). Floor tests must read this before judging
	// the speedup.
	GOMAXPROCS int `json:"gomaxprocs"`

	Baseline  LivemaxResult `json:"baseline"`
	Optimized LivemaxResult `json:"optimized"`
	RampSpeedup

	// Hotpath is the closed-loop pump stage over the same serving stack.
	Hotpath LivemaxHotpath `json:"hotpath"`

	// Sim* carry the virtual-time loadmax prediction (batched mode) when
	// SimCompare is set; LiveVsSimUpdates is measured-live over
	// sim-predicted peak updates/sec.
	SimPeakRate          float64 `json:"sim_peak_rate,omitempty"`
	SimPeakUpdatesPerSec float64 `json:"sim_peak_updates_per_sec,omitempty"`
	LiveVsSimUpdates     float64 `json:"live_vs_sim_updates,omitempty"`
}

// RunLivemax measures both hot paths in one invocation — legacy first, then
// optimized, for the full-service ramp and then the hot-path pump — and
// attaches the sim-predicted loadmax ceiling as one more sim arm when
// configured.
func RunLivemax(cfg LivemaxConfig) LivemaxReport {
	cfg.setDefaults()
	rep := LivemaxReport{Config: cfg, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	rep.Baseline = livemaxResult(true, walkRamp(cfg.RampConfig, cfg.target(true)))
	rep.Optimized = livemaxResult(false, walkRamp(cfg.RampConfig, cfg.target(false)))
	rep.RampSpeedup = rep.Optimized.over(rep.Baseline.RampPeak)
	rep.Hotpath.Baseline = RunHotpathPoint(cfg, true)
	reportProgress(1, 2)
	rep.Hotpath.Optimized = RunHotpathPoint(cfg, false)
	reportProgress(2, 2)
	if rep.Hotpath.Baseline.UpdatesPerSec > 0 {
		rep.Hotpath.Speedup = rep.Hotpath.Optimized.UpdatesPerSec / rep.Hotpath.Baseline.UpdatesPerSec
	}
	if cfg.SimCompare {
		simCfg := LoadmaxConfig{Seed: cfg.Seed}
		simCfg.Rates = cfg.SimRates
		simCfg.setDefaults()
		sim := peakOf(sweepRamp(simCfg.RampConfig, simCfg.target(true))[0])
		rep.SimPeakRate = sim.PeakRate
		rep.SimPeakUpdatesPerSec = sim.PeakUpdatesPerSec
		rep.LiveVsSimUpdates = rep.Optimized.over(sim).SpeedupUpdates
	}
	return rep
}

// WriteLivemaxTable renders both live ramps and the sim comparison row.
func WriteLivemaxTable(w io.Writer, rep LivemaxReport) {
	fmt.Fprintln(w, "Livemax — peak sustained live throughput over TCP loopback, optimized hot path vs pre-optimization baseline")
	fmt.Fprintf(w, "(wall-clock; %s; %d shard(s), %d+1 primaries, %d secondaries)\n\n",
		rep.Config.bounds(), rep.Config.Shards, rep.Config.Primaries, rep.Config.Secondaries)
	for _, res := range []LivemaxResult{rep.Baseline, rep.Optimized} {
		mode := "optimized (batched mailbox, zero-copy inbound, vectored flush)"
		if res.Legacy {
			mode = "baseline (legacy mailbox + per-frame inbound)"
		}
		writeRamp(w, mode, rampCols{expired: true}, res.Points, res.RampPeak, "")
	}
	fmt.Fprintf(w, "speedup: %.2fx peak sustained updates/sec, %.2fx peak offered rate (host GOMAXPROCS=%d)\n",
		rep.SpeedupUpdates, rep.SpeedupRate, rep.GOMAXPROCS)
	if rep.SimPeakUpdatesPerSec > 0 {
		fmt.Fprintf(w, "sim-predicted loadmax ceiling: %.0f offered/s (%.0f upd/s); live/sim = %.2f\n",
			rep.SimPeakRate, rep.SimPeakUpdatesPerSec, rep.LiveVsSimUpdates)
	}
	fmt.Fprintf(w, "\nhot-path pump (closed loop, raw-socket generator, unreplicated store on the serving runtime)\n")
	fmt.Fprintf(w, "%-10s %12s %12s %10s %10s %5s\n",
		"mode", "upd/s", "reads/s", "p50(ms)", "p99(ms)", "ok")
	for _, h := range []HotpathResult{rep.Hotpath.Baseline, rep.Hotpath.Optimized} {
		mode := "optimized"
		if h.Legacy {
			mode = "baseline"
		}
		fmt.Fprintf(w, "%-10s %12.0f %12.0f %10.2f %10.2f %5v\n",
			mode, h.UpdatesPerSec, h.ReadsPerSec, h.ReadP50MS, h.ReadP99MS, h.Sustained)
	}
	fmt.Fprintf(w, "hot-path speedup: %.2fx updates/sec\n", rep.Hotpath.Speedup)
}

// WriteLivemaxJSON writes the report as indented JSON (BENCH_livemax.json).
func WriteLivemaxJSON(w io.Writer, rep LivemaxReport) error {
	return writeJSON(w, struct {
		Experiment string `json:"experiment"`
		LivemaxReport
	}{Experiment: "livemax", LivemaxReport: rep})
}
