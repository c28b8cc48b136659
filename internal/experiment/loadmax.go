package experiment

import (
	"fmt"
	"io"
	"time"
)

// LoadmaxConfig parameterizes the heavy-traffic load ramp: an open-loop
// engine offers an increasing arrival rate against a single-group
// deployment whose sequencer pays a modelled ordering-pipeline cost per
// broadcast, and the experiment reports the highest offered rate the
// service sustains. Running the same ramp with and without batched GSN
// assignment (same seeds, same arrival streams) isolates the group-commit
// win.
//
// Defaults: 3 primaries (+ sequencer), 2 secondaries, 10000 clients, 50%
// reads, 25ms deadline, rates ×2 from 1000 to 64000/s, 500ms warm-up and
// 2s windows, a 150µs + 2µs/request sequencer pipeline, batches of 256
// requests or 1ms.
type LoadmaxConfig struct {
	Seed int64
	RampConfig
}

func (c *LoadmaxConfig) setDefaults() {
	d := rampDefaults()
	d.Rates = []float64{1000, 2000, 4000, 8000, 16000, 32000, 64000}
	c.fill(d)
	c.UpdateBytes, c.ArrivalCoalesce = 0, 0 // livemax's, not settable here
}

// Quick shrinks the ramp for smoke runs. It still spans the unbatched
// sequencer's saturation point (~4k/s at 150µs+2µs pipeline cost), so the
// batched ramp demonstrably outlasts the baseline.
func (c LoadmaxConfig) Quick() LoadmaxConfig {
	c.Clients = 2000
	c.Rates = []float64{1000, 4000, 16000}
	c.Warmup = 200 * time.Millisecond
	c.StepDuration = 500 * time.Millisecond
	return c
}

// target is the single-group sim target for one mode; each step's
// scheduler is seeded with Seed plus its offered rate.
func (c LoadmaxConfig) target(batched bool) simTarget {
	return simTarget{rampShape{shards: 1, unbatched: !batched}, c.Seed}
}

// LoadmaxPoint is one measured step of the ramp.
type LoadmaxPoint struct {
	OfferedRate float64 `json:"offered_rate"`
	Batched     bool    `json:"batched"`
	RampWindow

	// FastServed counts frontier fast-path reads across serving replicas
	// (whole run, not just the window).
	FastServed uint64 `json:"fast_served"`
	// AssignFlushes counts sequencer batch flushes (whole run).
	AssignFlushes uint64 `json:"assign_flushes"`

	Sustained bool `json:"sustained"`
}

func (p LoadmaxPoint) row() rampStep {
	return rampStep{rate: p.OfferedRate, RampWindow: p.RampWindow, fastServed: p.FastServed, sustained: p.Sustained}
}

// LoadmaxResult is one mode's full ramp with its peak sustained point.
type LoadmaxResult struct {
	Batched bool           `json:"batched"`
	Points  []LoadmaxPoint `json:"points"`
	RampPeak
}

func loadmaxResult(batched bool, steps []rampStep) LoadmaxResult {
	res := LoadmaxResult{Batched: batched, RampPeak: peakOf(steps)}
	for _, s := range steps {
		res.Points = append(res.Points, LoadmaxPoint{
			OfferedRate:   s.rate,
			Batched:       batched,
			RampWindow:    s.RampWindow,
			FastServed:    s.fastServed,
			AssignFlushes: s.flushes,
			Sustained:     s.sustained,
		})
	}
	return res
}

// LoadmaxPair is the same-run baseline comparison: identical ramp, seeds,
// and arrival streams, with only the sequencer's assignment mode (and the
// frontier read fast path) switched. The speedup is batched over baseline.
type LoadmaxPair struct {
	Config   LoadmaxConfig `json:"config"`
	Baseline LoadmaxResult `json:"baseline"`
	Batched  LoadmaxResult `json:"batched"`
	RampSpeedup
}

// RunLoadmaxPair runs the baseline (unbatched, per-request broadcasts) and
// batched ramps as one sweep, every step of both modes fanned across the
// same worker pool, and reports the peak-throughput ratio.
func RunLoadmaxPair(cfg LoadmaxConfig) LoadmaxPair {
	cfg.setDefaults()
	runs := sweepRamp(cfg.RampConfig, cfg.target(false), cfg.target(true))
	pair := LoadmaxPair{
		Config:   cfg,
		Baseline: loadmaxResult(false, runs[0]),
		Batched:  loadmaxResult(true, runs[1]),
	}
	pair.RampSpeedup = pair.Batched.over(pair.Baseline.RampPeak)
	return pair
}

// WriteLoadmaxTable renders both ramps side by side.
func WriteLoadmaxTable(w io.Writer, pair LoadmaxPair) {
	fmt.Fprintln(w, "Loadmax — peak sustained throughput, batched GSN assignment vs per-request")
	fmt.Fprintf(w, "(%s)\n\n", pair.Config.bounds())
	for _, res := range []LoadmaxResult{pair.Baseline, pair.Batched} {
		mode := "baseline (unbatched)"
		if res.Batched {
			mode = "batched + fast reads"
		}
		writeRamp(w, mode, rampCols{fast: true}, res.Points, res.RampPeak, "")
	}
	fmt.Fprintf(w, "speedup: %.2fx peak sustained updates/sec, %.2fx peak offered rate\n",
		pair.SpeedupUpdates, pair.SpeedupRate)
}

// WriteLoadmaxJSON writes the pair as indented JSON (BENCH_loadmax.json).
func WriteLoadmaxJSON(w io.Writer, pair LoadmaxPair) error {
	return writeJSON(w, struct {
		Experiment string `json:"experiment"`
		LoadmaxPair
	}{Experiment: "loadmax", LoadmaxPair: pair})
}
