// Command aquaperf is the repository's benchmark. It deploys AQuA
// in-process, drives it from the same process, checks the outputs and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// wrapper installed. With --trace 1 a separate, traced run wraps every
// layer's public seam, keeps spans in memory, writes them to --spans-dir
// when the run ends and reports the per-layer metrics. See README.md.
//
// Usage:
//
//	go build -o aquaperf . && ./aquaperf --workload live-qos-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Printed holds every figure the run produced, Metrics included; the
	// "#" lines show it.
	Printed map[string]metric `json:"-"`
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	fault    bool
	spansDir string
	workDir  string
}

var workloads = []string{"live-qos-read", "live-durable-write", "sim-fig4"}

// endToEndNames are the end-to-end metrics the final JSON line carries
// (BENCHMARK.json end_to_end). The other end-to-end figures are printed as
// "#" lines only: on a shared 2-vCPU host their run-to-run spread was wider
// than any bound worth checking (README.md has the numbers).
var endToEndNames = []string{
	"read_p99_ms", "read_miss_ratio", "replicas_per_read", "cpu_us_per_op", "setup_s", "peak_rss_mb",
}

func main() {
	var cfg config
	var trace int
	var fault string
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny run for the benchmark's own tests")
	flag.StringVar(&fault, "fault", "", `"reorder" arms the planted commit-reorder fault on one serving primary (the checks must fail)`)
	flag.StringVar(&cfg.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "where the traced run writes its spans")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build", "scratch directory for WAL files and the disk probe")
	flag.Parse()
	cfg.trace = trace == 1
	switch fault {
	case "":
	case "reorder":
		cfg.fault = true
	default:
		fmt.Fprintf(os.Stderr, "aquaperf: unknown fault %q\n", fault)
		os.Exit(2)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "aquaperf: --trace must be 0 or 1")
		os.Exit(2)
	}

	res, problems, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aquaperf: %v\n", err)
		os.Exit(1)
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Printf("# check failed: %s\n", strings.ReplaceAll(p, "\n", "\n#   "))
	}
	names := make([]string, 0, len(res.Printed))
	for n := range res.Printed {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if _, ok := res.Metrics[n]; !ok {
			note = "  (printed only)"
		}
		fmt.Printf("# %-28s %14.4f %s%s\n", n, res.Printed[n].Value, res.Printed[n].Unit, note)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aquaperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload in the mode cfg selects.
func run(cfg config) (*result, []string, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, nil, err
	}
	fsyncUS, err := fsyncProbe(filepath.Join(cfg.workDir, fmt.Sprintf("fsync-probe-%d", os.Getpid())), 200)
	if err != nil {
		return nil, nil, fmt.Errorf("disk probe: %w", err)
	}
	var res *result
	var problems []string
	if w, ok := liveWorkloads[cfg.workload]; ok {
		res, problems, err = runLiveWorkload(cfg, w, fsyncUS)
	} else if cfg.workload == "sim-fig4" {
		res, problems, err = runSimWorkload(cfg, fsyncUS)
	} else {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, nil, err
	}
	res.Printed = res.Metrics
	if !cfg.trace {
		res.Metrics = make(map[string]metric, len(endToEndNames))
		for _, n := range endToEndNames {
			res.Metrics[n] = res.Printed[n]
		}
	}
	return res, problems, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// liveSetups is how many times a live run deploys the system; setup_s is
// the median.
const liveSetups = 15

func runLiveWorkload(cfg config, w liveWorkload, fsyncUS float64) (*result, []string, error) {
	S := cfg.seconds
	setups := liveSetups
	if cfg.smoke {
		setups = 2
	}
	base := liveOpts{seed: cfg.seed, fault: cfg.fault, walRoot: cfg.workDir}
	if !cfg.trace {
		o := base
		o.warmup = seconds(minF(1, S/10))
		o.openFor = seconds(S) - o.warmup
		r, err := runLive(w, o, setups)
		if err != nil {
			return nil, nil, err
		}
		setupS := make([]float64, len(r.setups))
		for i, d := range r.setups {
			setupS[i] = d.Seconds()
		}
		res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{
			"read_p50_ms":       {durQuantileMS(r.readLat, 0.50), "ms"},
			"read_p99_ms":       {durQuantileMS(r.readLat, 0.99), "ms"},
			"update_p50_ms":     {durQuantileMS(r.updLat, 0.50), "ms"},
			"update_p99_ms":     {durQuantileMS(r.updLat, 0.99), "ms"},
			"read_miss_ratio":   {ratio(float64(r.missed), float64(r.reads)), "ratio"},
			"replicas_per_read": {r.replicasPerRead, "count"},
			"cpu_us_per_op":     {float64(r.cpuPerOp) / 1e3, "us"},
			"setup_s":           {median(setupS), "s"},
			"peak_rss_mb":       {r.peakRSS, "MB"},
			"fail_ratio":        {ratio(float64(r.failed), float64(r.attempted)), "ratio"},
			"gen.lag_p99_ms":    {durQuantileMS(r.lags, 0.99), "ms"},
			"disk.fsync_us":     {fsyncUS, "us"},
		}}
		fmt.Printf("# workload %s seed %d: %d open-loop reads, %d updates measured\n", cfg.workload, cfg.seed, len(r.readLat), len(r.updLat))
		return res, r.problems, nil
	}

	// Traced: an untraced reference open loop of the same length first,
	// for the overhead; CPU per request grows over a run, so the two must
	// match in length.
	ref := base
	ref.warmup = seconds(minF(1, S/10))
	ref.openFor = seconds(0.45*S) - ref.warmup
	rr, err := runLive(w, ref, 1)
	if err != nil {
		return nil, nil, err
	}
	o := ref
	o.traced = true
	r, err := runLive(w, o, 1)
	if err != nil {
		return nil, nil, err
	}
	if err := writeSpans(filepath.Join(cfg.spansDir, cfg.workload+".tsv"), []*tracer{r.tr}); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	ops := float64(r.attempted - r.failed)
	in := layerInput{
		sum:         r.sum,
		obs:         r.reg.Snapshot(),
		ops:         ops,
		updates:     float64(r.updates),
		walAppends:  float64(r.walAppends),
		walBytes:    float64(r.walBytes),
		walSyncs:    float64(r.walSyncs),
		timers:      r.timers,
		lags:        r.lags,
		fsyncUS:     fsyncUS,
		overheadPct: 100 * ratio(float64(r.cpuPerOp-rr.cpuPerOp), float64(rr.cpuPerOp)),
	}
	for ro := role(0); ro < numRoles; ro++ {
		in.busy[ro] = r.sum.busyFrac(ro, r.window)
	}
	problems := append(rr.problems, r.problems...)
	return &result{Attempted: r.attempted + rr.attempted, Failed: r.failed + rr.failed, Metrics: layerMetrics(in)}, problems, nil
}

// Sim-fig4 sizing: requests per client per point, and the set-up trials.
const (
	simRequests        = 100
	simSmokeRequests   = 10
	simSetups          = 15
	simSweepsPerSecond = 1
	simSeedStride      = 1_000_003 // separates the seeds of successive sweeps
)

func runSimWorkload(cfg config, fsyncUS float64) (*result, []string, error) {
	requests := simRequests
	setups := simSetups
	if cfg.smoke {
		requests, setups = simSmokeRequests, 2
	}
	workers := runtime.NumCPU()
	var problems []string
	problems = append(problems, simPin(cfg.seed, requests)...)

	first := simPoints(cfg.seed)[0]
	setupS := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		setupS = append(setupS, runSimPoint(first, simOpts{requests: requests, firstReply: true, fault: cfg.fault}).wall.Seconds())
	}

	o := simOpts{requests: requests, fault: cfg.fault}
	var attempted, failed int64
	account := func(sr sweepResult) {
		for _, p := range sr.points {
			attempted += int64(p.ops)
			failed += int64(p.failed)
			problems = append(problems, p.problems...)
		}
	}

	if cfg.trace {
		// Untraced reference sweeps for three quarters of the time, then
		// one traced sweep of the same seed, which must match them.
		var refWalls []float64
		var ref sweepResult
		for i := 0; i < simSweeps(0.75*cfg.seconds, 2); i++ {
			ref = runSweep(cfg.seed, o, workers)
			account(ref)
			refWalls = append(refWalls, ref.wall.Seconds())
		}
		to := o
		to.traced = true
		traced := runSweep(cfg.seed, to, workers)
		account(traced)
		if string(traced.table) != string(ref.table) {
			problems = append(problems, "traced sweep differs from the untraced sweep of the same seed")
		}
		in := layerInput{sum: &summary{}, ops: float64(sweepOps(traced)), fsyncUS: fsyncUS}
		var walls time.Duration
		var events uint64
		var trs []*tracer
		for _, p := range traced.points {
			in.sum.merge(p.sum)
			walls += p.wall
			in.updates += float64(p.updates)
			in.walAppends += float64(p.walAppends)
			in.walBytes += float64(p.walBytes)
			in.walSyncs += float64(p.walSyncs)
			in.obs = append(in.obs, p.obs...)
			trs = append(trs, p.tr)
		}
		for _, p := range ref.points {
			events += p.events
		}
		for ro := role(0); ro < numRoles; ro++ {
			in.busy[ro] = in.sum.busyFrac(ro, walls/time.Duration(len(traced.points)))
		}
		refWall := median(refWalls)
		in.eventsPerS = float64(events) / refWall
		in.overheadPct = 100 * ratio(traced.wall.Seconds()-refWall, traced.wall.Seconds())
		if err := writeSpans(filepath.Join(cfg.spansDir, cfg.workload+".tsv"), trs); err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
		return &result{Attempted: attempted, Failed: failed, Metrics: layerMetrics(in)}, problems, nil
	}

	// Untraced: a fixed number of sweeps set by --seconds. The first seed
	// is swept twice and the two sweeps must match byte for byte; every
	// other sweep takes a fresh seed. Virtual-time figures pool the
	// distinct seeds; figure_s is the median sweep wall time.
	n := simSweeps(cfg.seconds, 3)
	var sweeps []sweepResult
	var walls, cpus []float64
	for i := 0; i < n; i++ {
		seed := cfg.seed + int64(i-1)*simSeedStride
		if i == 0 {
			seed = cfg.seed
		}
		cpu0 := cpuTime()
		sr := runSweep(seed, o, workers)
		cpus = append(cpus, float64(cpuTime()-cpu0)/1e3/float64(sweepOps(sr)))
		account(sr)
		walls = append(walls, sr.wall.Seconds())
		if i == 1 {
			if string(sr.table) != string(sweeps[0].table) {
				problems = append(problems, fmt.Sprintf("two sweeps of seed %d differ", seed))
			}
			continue
		}
		sweeps = append(sweeps, sr)
	}
	var readLat, updLat []time.Duration
	var reads, misses int
	var selected float64
	for _, sr := range sweeps {
		for _, p := range sr.points {
			readLat = append(readLat, p.readLat...)
			updLat = append(updLat, p.updLat...)
			reads += p.fig4.Reads
			misses += p.fig4.TimingFailures
			selected += p.fig4.AvgSelected * float64(p.fig4.Reads)
		}
	}
	figureS := median(walls)
	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{
		"read_p50_ms":       {durQuantileMS(readLat, 0.50), "ms"},
		"read_p99_ms":       {durQuantileMS(readLat, 0.99), "ms"},
		"update_p50_ms":     {durQuantileMS(updLat, 0.50), "ms"},
		"update_p99_ms":     {durQuantileMS(updLat, 0.99), "ms"},
		"read_miss_ratio":   {ratio(float64(misses), float64(reads)), "ratio"},
		"replicas_per_read": {ratio(selected, float64(reads)), "count"},
		"saturated_ops_s":   {float64(sweepOps(sweeps[0])) / figureS, "ops/s"},
		"cpu_us_per_op":     {median(cpus), "us"},
		"setup_s":           {median(setupS), "s"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
		"fail_ratio":        {ratio(float64(failed), float64(attempted)), "ratio"},
		"figure_s":          {figureS, "s"},
		"disk.fsync_us":     {fsyncUS, "us"},
	}}
	fmt.Printf("# workload sim-fig4 seed %d: %d sweeps of %d points, %d requests per client per point\n",
		cfg.seed, len(walls), len(sweeps[0].points), requests)
	fmt.Printf("# latencies are virtual time; Figure 4 tables of seed %d:\n", cfg.seed)
	for _, l := range strings.Split(strings.TrimRight(string(sweeps[0].table), "\n"), "\n") {
		fmt.Printf("#   %s\n", l)
	}
	return res, problems, nil
}

// simSweeps is how many sweeps fill secs, but no fewer than floor.
func simSweeps(secs float64, floor int) int {
	if n := int(secs*simSweepsPerSecond + 0.5); n > floor {
		return n
	}
	return floor
}

func sweepOps(sr sweepResult) int {
	n := 0
	for _, p := range sr.points {
		n += p.ops
	}
	return n
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
