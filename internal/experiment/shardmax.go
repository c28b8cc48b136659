package experiment

import (
	"fmt"
	"io"
	"time"
)

// ShardmaxConfig parameterizes the scale-out sweep: the loadmax open-loop
// ramp repeated at increasing shard counts, with the keyspace partitioned
// uniformly across independent sequencer/publisher deployments. Every shard
// count runs the identical ramp (same rates, same batching config), so the
// peak-sustained-throughput ratio between N shards and 1 isolates the
// scale-out win. The sequencer pipeline cost is tuned so a single ordering
// pipeline saturates inside the ramp — sharding moves the ceiling because
// each shard brings its own pipeline, not because any one gets faster.
//
// Defaults are loadmax's, except rates ×2 from 16000 to 256000/s and an
// 8µs/request pipeline cost, so one sequencer saturates well before the
// top. Batched GSN assignment is always on: shardmax measures scale-out
// beyond what batching alone buys.
type ShardmaxConfig struct {
	Seed int64

	// Shards is the ladder of shard counts to sweep (default 1, 2, 4).
	Shards []int
	// Keys is the partitioned keyspace size (default 4096); requests draw
	// keys uniformly so shards see balanced load.
	Keys int

	RampConfig
}

func (c *ShardmaxConfig) setDefaults() {
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4}
	}
	orDefault(&c.Keys, 4096)
	d := rampDefaults()
	d.SeqCostPerReq = 8 * time.Microsecond
	d.Rates = []float64{16000, 32000, 64000, 128000, 256000}
	c.fill(d)
	c.UpdateBytes, c.ArrivalCoalesce = 0, 0 // livemax's, not settable here
}

// Quick shrinks the sweep for smoke runs. It still spans the single
// sequencer pipeline's saturation point (~105k/s at 150µs+8µs cost), so
// the 4-shard ramp demonstrably outlasts the 1-shard one.
func (c ShardmaxConfig) Quick() ShardmaxConfig {
	c.Shards = []int{1, 4}
	c.Clients = 2000
	c.Rates = []float64{16000, 128000}
	c.Warmup = 200 * time.Millisecond
	c.StepDuration = 500 * time.Millisecond
	return c
}

// target is the sharded sim target at n shards. The engine runs in
// multi-shard mode even at one shard, so every point of the sweep takes
// the identical request path; the N=1 pin test holds that path
// byte-identical to a plain unsharded deployment.
func (c ShardmaxConfig) target(n int) simTarget {
	return simTarget{rampShape{shards: n, keys: c.Keys}, c.Seed + 1_000_003*int64(n)}
}

// ShardmaxPoint is one measured step: one shard count at one offered rate.
type ShardmaxPoint struct {
	Shards      int     `json:"shards"`
	OfferedRate float64 `json:"offered_rate"`
	RampWindow

	// PerShardCompleted is the whole-run completion count per shard — the
	// balance evidence that the partition actually spreads the load.
	PerShardCompleted []uint64 `json:"per_shard_completed"`

	Sustained bool `json:"sustained"`
}

func (p ShardmaxPoint) row() rampStep {
	return rampStep{rate: p.OfferedRate, RampWindow: p.RampWindow, sustained: p.Sustained}
}

// ShardmaxResult is one shard count's full ramp with its peak and its
// speedup over the first (1-shard) ladder entry: 1.0 for that row, 0 if it
// has no peak.
type ShardmaxResult struct {
	Shards int             `json:"shards"`
	Points []ShardmaxPoint `json:"points"`
	RampPeak
	RampSpeedup
}

// ShardmaxReport is the full sweep across shard counts.
type ShardmaxReport struct {
	Config  ShardmaxConfig   `json:"config"`
	Results []ShardmaxResult `json:"results"`
}

// RunShardmax runs the full sweep, every shard count × every rate fanned
// across the package worker pool, and reports per-shard-count peaks with
// speedups relative to the first ladder entry.
func RunShardmax(cfg ShardmaxConfig) ShardmaxReport {
	cfg.setDefaults()
	targets := make([]simTarget, len(cfg.Shards))
	for i, n := range cfg.Shards {
		targets[i] = cfg.target(n)
	}
	rep := ShardmaxReport{Config: cfg}
	for i, steps := range sweepRamp(cfg.RampConfig, targets...) {
		res := ShardmaxResult{Shards: cfg.Shards[i], RampPeak: peakOf(steps)}
		for _, s := range steps {
			res.Points = append(res.Points, ShardmaxPoint{
				Shards:            res.Shards,
				OfferedRate:       s.rate,
				RampWindow:        s.RampWindow,
				PerShardCompleted: s.perShard,
				Sustained:         s.sustained,
			})
		}
		rep.Results = append(rep.Results, res)
	}
	for i := range rep.Results {
		rep.Results[i].RampSpeedup = rep.Results[i].over(rep.Results[0].RampPeak)
	}
	return rep
}

// WriteShardmaxTable renders the sweep, one ramp per shard count.
func WriteShardmaxTable(w io.Writer, rep ShardmaxReport) {
	fmt.Fprintln(w, "Shardmax — peak sustained throughput vs shard count (batched GSN assignment)")
	fmt.Fprintf(w, "(%s)\n\n", rep.Config.bounds())
	for _, res := range rep.Results {
		writeRamp(w, fmt.Sprintf("%d shard(s)", res.Shards), rampCols{}, res.Points, res.RampPeak,
			fmt.Sprintf(", speedup %.2fx updates, %.2fx rate", res.SpeedupUpdates, res.SpeedupRate))
	}
}

// WriteShardmaxJSON writes the report as indented JSON (BENCH_shardmax.json).
func WriteShardmaxJSON(w io.Writer, rep ShardmaxReport) error {
	return writeJSON(w, struct {
		Experiment string `json:"experiment"`
		ShardmaxReport
	}{Experiment: "shardmax", ShardmaxReport: rep})
}
