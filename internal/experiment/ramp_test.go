package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/shard"
	"aqua/internal/sim"
	"aqua/internal/workload"
)

// Tests of the ramp harness and its three configurations: loadmax (sim
// single group, batched vs per-request ordering), shardmax (sim sharded)
// and livemax (live loopback, optimized vs legacy hot path). The quick
// configs are the CLI's -quick ramps.

func TestLoadmaxBatchingSpeedup(t *testing.T) {
	pair := RunLoadmaxPair(LoadmaxConfig{Seed: 41}.Quick())

	var buf bytes.Buffer
	WriteLoadmaxTable(&buf, pair)
	t.Logf("\n%s", buf.String())

	if pair.Baseline.PeakRate == 0 {
		t.Fatal("baseline sustained nothing, even at the lowest rate")
	}
	if pair.Baseline.PeakRate >= pair.Config.Rates[len(pair.Config.Rates)-1] {
		t.Fatalf("baseline sustained the top rate %.0f — the ramp never found its ceiling", pair.Baseline.PeakRate)
	}
	if pair.Batched.PeakRate <= pair.Baseline.PeakRate {
		t.Fatalf("batched peak %.0f not above baseline peak %.0f", pair.Batched.PeakRate, pair.Baseline.PeakRate)
	}
	if pair.SpeedupUpdates < 2.5 {
		t.Fatalf("speedup %.2fx below 2.5x even on the smoke ramp", pair.SpeedupUpdates)
	}
	for _, p := range pair.Batched.Points {
		if p.Sustained && p.AssignFlushes == 0 {
			t.Fatalf("batched point at %.0f/s recorded no assign-batch flushes", p.OfferedRate)
		}
		if p.Sustained && p.FastServed == 0 {
			t.Fatalf("batched point at %.0f/s served no reads on the fast path", p.OfferedRate)
		}
	}
	for _, p := range pair.Baseline.Points {
		if p.FastServed != 0 {
			t.Fatalf("baseline point at %.0f/s used the fast path (%d)", p.OfferedRate, p.FastServed)
		}
	}
}

// The loadmax sweep must render byte-identically at any worker-pool
// parallelism: each step is share-nothing, so scheduling order cannot leak
// into results.
func TestLoadmaxParallelismDeterminism(t *testing.T) {
	cfg := LoadmaxConfig{Seed: 41}.Quick()
	cfg.Rates = []float64{2000, 8000}
	cfg.StepDuration = 300 * time.Millisecond

	render := func(par int) []byte {
		old := Parallelism()
		SetParallelism(par)
		defer SetParallelism(old)
		pair := RunLoadmaxPair(cfg)
		var buf bytes.Buffer
		WriteLoadmaxTable(&buf, pair)
		if err := WriteLoadmaxJSON(&buf, pair); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	one := render(1)
	for _, par := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := render(par); !bytes.Equal(got, one) {
			t.Fatalf("loadmax output diverged between parallelism 1 and %d", par)
		}
	}
}

// BENCH_loadmax.json at the repo root is the committed artifact of the full
// ramp (scripts/bench.sh regenerates it). Guard its shape and the headline
// claim: batched GSN assignment sustains at least 3x the baseline's peak
// updates/sec in the same run.
func TestBenchLoadmaxJSONWellFormed(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_loadmax.json")
	if err != nil {
		t.Skipf("BENCH_loadmax.json not present: %v", err)
	}
	var doc struct {
		Experiment string `json:"experiment"`
		LoadmaxPair
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_loadmax.json is not valid JSON: %v", err)
	}
	if doc.Experiment != "loadmax" {
		t.Fatalf("experiment = %q, want loadmax", doc.Experiment)
	}
	if len(doc.Baseline.Points) == 0 || len(doc.Batched.Points) == 0 {
		t.Fatal("missing ramp points")
	}
	if doc.Baseline.PeakUpdatesPerSec <= 0 || doc.Batched.PeakUpdatesPerSec <= 0 {
		t.Fatalf("non-positive peaks: baseline %.0f, batched %.0f",
			doc.Baseline.PeakUpdatesPerSec, doc.Batched.PeakUpdatesPerSec)
	}
	if doc.SpeedupUpdates < 3 {
		t.Fatalf("speedup_updates = %.2f, want >= 3", doc.SpeedupUpdates)
	}
}

// TestBenchLoadmaxJSONRegenerates is the byte-identity contract for the
// checked-in artifact: rerunning the pair from the config recorded in
// BENCH_loadmax.json must render the file byte for byte.
func TestBenchLoadmaxJSONRegenerates(t *testing.T) {
	if testing.Short() {
		t.Skip("full loadmax pair in -short mode")
	}
	raw, err := os.ReadFile("../../BENCH_loadmax.json")
	if err != nil {
		t.Skipf("BENCH_loadmax.json not present: %v", err)
	}
	var doc struct {
		Experiment string `json:"experiment"`
		LoadmaxPair
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_loadmax.json is not valid JSON: %v", err)
	}
	old := Parallelism()
	SetParallelism(0)
	defer SetParallelism(old)
	var buf bytes.Buffer
	if err := WriteLoadmaxJSON(&buf, RunLoadmaxPair(doc.Config)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("regenerated loadmax JSON differs from BENCH_loadmax.json " +
			"(diff it against: aquabench -experiment loadmax -json FILE)")
	}
}

// TestFig4ShardedSingleIsByteIdentical is the byte-identity pin promised in
// Fig4Config: Sharded == 1 deploys through core.DeployShards and fronts the
// clients with shard routers, yet must reproduce the unsharded sweep exactly
// — same node IDs, same rand streams, same event order, same tables.
func TestFig4ShardedSingleIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4 sweep in -short mode")
	}
	render := func(sharded int) ([]Fig4Result, []byte) {
		var results []Fig4Result
		for _, deadline := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
			results = append(results, RunFig4Point(Fig4Config{
				Seed:         77,
				Deadline:     deadline,
				MinProb:      0.05,
				Requests:     60,
				RequestDelay: 100 * time.Millisecond,
				Sharded:      sharded,
			}))
		}
		var buf bytes.Buffer
		WriteFig4aTable(&buf, results)
		WriteFig4bTable(&buf, results)
		return results, buf.Bytes()
	}

	plain, plainTab := render(0)
	single, singleTab := render(1)
	if !reflect.DeepEqual(plain, single) {
		t.Fatalf("Sharded=1 results diverged from unsharded:\n%+v\nvs\n%+v", plain, single)
	}
	if !bytes.Equal(plainTab, singleTab) {
		t.Fatalf("Sharded=1 tables diverged from unsharded:\n--- plain ---\n%s\n--- sharded=1 ---\n%s",
			plainTab, singleTab)
	}
}

// shardPinService mirrors the shardmax service config.
func shardPinService() core.ServiceConfig {
	return core.ServiceConfig{
		Primaries:         4,
		Secondaries:       2,
		LazyInterval:      100 * time.Millisecond,
		Group:             group.DefaultConfig(),
		NewApp:            func() app.Application { return apps.NewKVStore() },
		SeqCostBase:       150 * time.Microsecond,
		SeqCostPerReq:     8 * time.Microsecond,
		AssignBatch:       256,
		AssignBatchWindow: time.Millisecond,
		FastReads:         true,
	}
}

// TestShardmaxSingleShardMatchesUnsharded pins the shardmax half of the N=1
// contract at the engine level: the multi-shard request path over one shard
// must draw the same rands and send the same messages as the single-service
// path with the same key distribution, making every metric — including the
// full latency histograms — byte-identical.
func TestShardmaxSingleShardMatchesUnsharded(t *testing.T) {
	run := func(sharded bool) workload.EngineMetrics {
		s := sim.NewScheduler(99)
		rt := sim.NewRuntime(s, sim.WithDelay(netsim.UniformDelay{
			Min: 200 * time.Microsecond,
			Max: time.Millisecond,
		}))
		ecfg := workload.EngineConfig{
			Keys:         &workload.UniformKeys{N: 4096},
			Clients:      2000,
			Arrivals:     workload.Poisson{Rate: 8000},
			ReadFraction: 0.5,
			Deadline:     25 * time.Millisecond,
		}
		if sharded {
			sd, err := core.DeployShards(rt, shardPinService(), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			ecfg.Shards = sd.Infos
			ecfg.ShardOf = shard.NewUniform(1).Owner
		} else {
			d, err := core.Deploy(rt, shardPinService(), nil)
			if err != nil {
				t.Fatal(err)
			}
			ecfg.Service = d.Info
		}
		eng := workload.NewEngine(ecfg)
		rt.Register("load", eng)
		rt.Start()
		s.RunFor(time.Second)
		return eng.Metrics()
	}

	sharded, unsharded := run(true), run(false)
	if sharded.Completed == 0 {
		t.Fatal("pin run completed nothing")
	}
	if !reflect.DeepEqual(sharded, unsharded) {
		t.Fatalf("one-shard engine metrics diverged from unsharded:\n%+v\nvs\n%+v", sharded, unsharded)
	}
}

func TestShardmaxSmokeScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("shardmax ramp in -short mode")
	}
	rep := RunShardmax(ShardmaxConfig{Seed: 43}.Quick())

	var buf bytes.Buffer
	WriteShardmaxTable(&buf, rep)
	t.Logf("\n%s", buf.String())

	one, four := rep.Results[0], rep.Results[1]
	if one.PeakRate == 0 {
		t.Fatal("one shard sustained nothing, even at the lowest rate")
	}
	if one.PeakRate >= rep.Config.Rates[len(rep.Config.Rates)-1] {
		t.Fatalf("one shard sustained the top rate %.0f — the ramp never found its ceiling", one.PeakRate)
	}
	if four.PeakRate <= one.PeakRate {
		t.Fatalf("4-shard peak %.0f not above 1-shard peak %.0f", four.PeakRate, one.PeakRate)
	}
	if four.SpeedupUpdates < 2.5 {
		t.Fatalf("4-shard speedup %.2fx below 2.5x even on the smoke ramp", four.SpeedupUpdates)
	}
	for _, p := range four.Points {
		if !p.Sustained {
			continue
		}
		if len(p.PerShardCompleted) != 4 {
			t.Fatalf("point at %.0f/s reports %d shards", p.OfferedRate, len(p.PerShardCompleted))
		}
		for i, c := range p.PerShardCompleted {
			if c == 0 {
				t.Fatalf("point at %.0f/s: shard %d completed nothing", p.OfferedRate, i)
			}
		}
	}
}

// TestShardmaxHotShardZipf is the hot-shard scenario: a Zipf key stream
// concentrates load on the shard owning the hottest keys, and the per-shard
// counters expose the skew while every shard still makes progress.
func TestShardmaxHotShardZipf(t *testing.T) {
	s := sim.NewScheduler(17)
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.UniformDelay{
		Min: 200 * time.Microsecond,
		Max: time.Millisecond,
	}))
	const shards = 4
	sd, err := core.DeployShards(rt, shardPinService(), shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := shard.NewUniform(shards)
	eng := workload.NewEngine(workload.EngineConfig{
		Shards:  sd.Infos,
		ShardOf: m.Owner,
		// 256 keys: enough that every shard owns a slice of the keyspace
		// (short sequential keys hash unevenly), while the Zipf head still
		// dominates the draw stream.
		Keys:         &workload.ZipfKeys{N: 256},
		Clients:      2000,
		Arrivals:     workload.Poisson{Rate: 8000},
		ReadFraction: 0.5,
		Deadline:     25 * time.Millisecond,
	})
	rt.Register("load", eng)
	rt.Start()
	s.RunFor(2 * time.Second)

	issued, completed := eng.ShardCounts()
	hot := m.Owner("k0")
	var total, min, max uint64
	min = issued[0]
	for i := 0; i < shards; i++ {
		total += issued[i]
		if issued[i] < min {
			min = issued[i]
		}
		if issued[i] > max {
			max = issued[i]
		}
		if completed[i] == 0 {
			t.Fatalf("shard %d completed nothing under the hot-key stream", i)
		}
	}
	if issued[hot] != max {
		t.Fatalf("shard %d owns the hottest key but shard counts are %v", hot, issued)
	}
	if issued[hot] <= total/shards {
		t.Fatalf("hot shard issued %d of %d — no skew above fair share", issued[hot], total)
	}
	if max < min*3/2 {
		t.Fatalf("skew too shallow: max %d vs min %d", max, min)
	}
	var done uint64
	for _, c := range completed {
		done += c
	}
	if done != eng.Metrics().Completed {
		t.Fatalf("per-shard completions %d != engine total %d", done, eng.Metrics().Completed)
	}
}

// TestShardmaxParallelismDeterminism mirrors the loadmax guarantee for the
// sharded sweep: byte-identical output at any worker-pool parallelism.
func TestShardmaxParallelismDeterminism(t *testing.T) {
	cfg := ShardmaxConfig{Seed: 43}.Quick()
	cfg.Shards = []int{1, 2}
	cfg.Rates = []float64{8000, 32000}
	cfg.StepDuration = 300 * time.Millisecond

	render := func(par int) []byte {
		old := Parallelism()
		SetParallelism(par)
		defer SetParallelism(old)
		rep := RunShardmax(cfg)
		var buf bytes.Buffer
		WriteShardmaxTable(&buf, rep)
		if err := WriteShardmaxJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	one := render(1)
	if got := render(4); !bytes.Equal(got, one) {
		t.Fatal("shardmax output diverged between parallelism 1 and 4")
	}
}

// BENCH_shardmax.json at the repo root is the committed artifact of the full
// sweep (scripts/bench.sh regenerates it). Guard its shape and the headline
// claim: 4 shards sustain at least 2.5x the 1-shard peak updates/sec under
// the same batching config.
func TestBenchShardmaxJSONWellFormed(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_shardmax.json")
	if err != nil {
		t.Skipf("BENCH_shardmax.json not present: %v", err)
	}
	var doc struct {
		Experiment string `json:"experiment"`
		ShardmaxReport
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_shardmax.json is not valid JSON: %v", err)
	}
	if doc.Experiment != "shardmax" {
		t.Fatalf("experiment = %q, want shardmax", doc.Experiment)
	}
	var one, four *ShardmaxResult
	for i := range doc.Results {
		res := &doc.Results[i]
		if len(res.Points) == 0 {
			t.Fatalf("%d-shard ramp has no points", res.Shards)
		}
		switch res.Shards {
		case 1:
			one = res
		case 4:
			four = res
		}
	}
	if one == nil || four == nil {
		t.Fatal("missing the 1-shard or 4-shard ramp")
	}
	if one.PeakUpdatesPerSec <= 0 || four.PeakUpdatesPerSec <= 0 {
		t.Fatalf("non-positive peaks: 1-shard %.0f, 4-shard %.0f",
			one.PeakUpdatesPerSec, four.PeakUpdatesPerSec)
	}
	if four.SpeedupUpdates < 2.5 {
		t.Fatalf("speedup_updates = %.2f at 4 shards, want >= 2.5", four.SpeedupUpdates)
	}
}

func TestLivemaxSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark smoke")
	}
	cfg := LivemaxConfig{Seed: 41}.Quick()
	p := RunLivemaxPoint(cfg, cfg.Rates[0], false)
	if p.Issued == 0 || p.Completed == 0 {
		t.Fatalf("live point issued %d, completed %d — nothing flowed", p.Issued, p.Completed)
	}
	if p.UpdatesPerSec <= 0 || p.ReadsPerSec <= 0 {
		t.Fatalf("live point rates: %.0f upd/s, %.0f reads/s", p.UpdatesPerSec, p.ReadsPerSec)
	}
	if p.FastServed == 0 {
		t.Fatal("no reads served on the frontier fast path")
	}
}

func TestLivemaxSmokeLegacyMode(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark smoke")
	}
	cfg := LivemaxConfig{Seed: 41}.Quick()
	p := RunLivemaxPoint(cfg, cfg.Rates[0], true)
	if p.Completed == 0 {
		t.Fatal("legacy hot path completed nothing — baseline mode is broken")
	}
}

func TestLivemaxSmokeSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark smoke")
	}
	cfg := LivemaxConfig{Seed: 41}.Quick()
	cfg.Shards = 2
	p := RunLivemaxPoint(cfg, cfg.Rates[0], false)
	if p.Completed == 0 {
		t.Fatal("two-shard live deployment completed nothing")
	}
}

func TestHotpathPumpSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark smoke")
	}
	cfg := LivemaxConfig{Seed: 41}.Quick()
	for _, legacy := range []bool{true, false} {
		h := RunHotpathPoint(cfg, legacy)
		if h.UpdatesPerSec <= 0 {
			t.Fatalf("legacy=%v: pump pushed no updates", legacy)
		}
		if h.ReadsPerSec <= 0 {
			t.Fatalf("legacy=%v: no read probes answered", legacy)
		}
	}
}

// The shared config block carries fields only one kind of ramp uses; the
// other kind pins them to zero, so they are not options there.
func TestRampConfigPinsForeignFields(t *testing.T) {
	lm := LoadmaxConfig{RampConfig: RampConfig{UpdateBytes: 64, ArrivalCoalesce: time.Millisecond}}
	lm.setDefaults()
	sm := ShardmaxConfig{RampConfig: lm.RampConfig}
	sm.UpdateBytes, sm.ArrivalCoalesce = 64, time.Millisecond
	sm.setDefaults()
	for name, c := range map[string]RampConfig{"loadmax": lm.RampConfig, "shardmax": sm.RampConfig} {
		if c.UpdateBytes != 0 || c.ArrivalCoalesce != 0 {
			t.Errorf("%s: UpdateBytes=%d ArrivalCoalesce=%v, want both 0", name, c.UpdateBytes, c.ArrivalCoalesce)
		}
	}
	lv := LivemaxConfig{RampConfig: RampConfig{SeqCostBase: time.Millisecond, SeqCostPerReq: time.Microsecond}}
	lv.setDefaults()
	if lv.SeqCostBase != 0 || lv.SeqCostPerReq != 0 {
		t.Errorf("livemax: SeqCostBase=%v SeqCostPerReq=%v, want both 0", lv.SeqCostBase, lv.SeqCostPerReq)
	}
}

func TestLivemaxTableRenders(t *testing.T) {
	var rep LivemaxReport
	rep.Config.setDefaults()
	rep.GOMAXPROCS = 1
	var buf bytes.Buffer
	WriteLivemaxTable(&buf, rep)
	if err := WriteLivemaxJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

// BENCH_livemax.json at the repo root is the committed artifact of the
// full live ramp plus the hot-path pump (scripts/bench.sh regenerates
// it). Guard its shape and the headline claim.
//
// The floor is conditional on the recorded host parallelism, because the
// optimized runtime's wins are contention wins: one wakeup per mailbox
// batch instead of per message, zero-copy decode instead of per-frame
// allocation pressure on a shared GC, one vectored writev instead of
// per-frame scheduling. On GOMAXPROCS>=4 those multiply and the pump
// must clear 3x. On a single-core host everything serializes onto one
// CPU, kernel TCP and the store apply dominate the profile as shared
// serial cost, and the honest separation compresses to the pure
// instruction-count saving — we require >=1.25x there rather than
// inventing a multicore number the machine cannot produce (see
// EXPERIMENTS.md, "livemax").
func TestBenchLivemaxJSONWellFormed(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_livemax.json")
	if err != nil {
		t.Skipf("BENCH_livemax.json not present: %v", err)
	}
	var doc struct {
		Experiment string `json:"experiment"`
		LivemaxReport
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_livemax.json is not valid JSON: %v", err)
	}
	if doc.Experiment != "livemax" {
		t.Fatalf("experiment = %q, want livemax", doc.Experiment)
	}
	if doc.GOMAXPROCS < 1 {
		t.Fatalf("gomaxprocs = %d — artifact does not record host parallelism", doc.GOMAXPROCS)
	}
	if len(doc.Baseline.Points) == 0 || len(doc.Optimized.Points) == 0 {
		t.Fatal("missing live ramp points")
	}
	if doc.Baseline.PeakUpdatesPerSec <= 0 || doc.Optimized.PeakUpdatesPerSec <= 0 {
		t.Fatalf("non-positive ramp peaks: baseline %.0f, optimized %.0f",
			doc.Baseline.PeakUpdatesPerSec, doc.Optimized.PeakUpdatesPerSec)
	}
	if doc.SimPeakUpdatesPerSec <= 0 || doc.LiveVsSimUpdates <= 0 {
		t.Fatal("missing sim-vs-live comparison row")
	}
	hp := doc.Hotpath
	if hp.Baseline.UpdatesPerSec <= 0 || hp.Optimized.UpdatesPerSec <= 0 {
		t.Fatalf("non-positive pump throughput: baseline %.0f, optimized %.0f",
			hp.Baseline.UpdatesPerSec, hp.Optimized.UpdatesPerSec)
	}
	if !hp.Baseline.Sustained || !hp.Optimized.Sustained {
		t.Fatal("pump read p99 blew its bound — throughput was bought with unbounded latency")
	}
	floor := 1.25
	if doc.GOMAXPROCS >= 4 {
		floor = 3.0
	}
	if hp.Speedup < floor {
		t.Fatalf("hotpath speedup = %.2f, want >= %.2f at gomaxprocs=%d",
			hp.Speedup, floor, doc.GOMAXPROCS)
	}
}
