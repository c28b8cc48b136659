// Package aqua's root benchmarks regenerate the paper's evaluation, one
// bench per table/figure (see EXPERIMENTS.md for the mapping):
//
//	BenchmarkFig3SelectionOverhead  — Figure 3 (selection overhead, µs)
//	BenchmarkFig4aReplicasSelected  — Figure 4a (avg replicas selected)
//	BenchmarkFig4bTimingFailures    — Figure 4b (timing-failure probability)
//	BenchmarkAblationSelectors      — selector-baseline ablation
//	BenchmarkAblationFailover       — crash-injection ablation
//
// Figure 4 benches run a full virtual-time experiment per iteration and
// report the measured series via b.ReportMetric; absolute numbers are
// machine-independent because the runs use the simulator's virtual clock.
//
//	go test -bench=. -benchmem
package aqua_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aqua/internal/consistency"
	"aqua/internal/experiment"
	"aqua/internal/group"
	"aqua/internal/live"
	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/obs"
	"aqua/internal/qos"
	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/sim"
	"aqua/internal/stats"
	"aqua/internal/tcpnet"
)

func seededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// benchRequests keeps full-scale runs affordable inside testing.B; the
// aquabench CLI runs the paper's full 1000-request experiments.
const benchRequests = 200

// BenchmarkFig3SelectionOverhead measures the probabilistic selection
// algorithm exactly as Figure 3 does: distribution computation plus
// Algorithm 1, against a warmed repository, per (replica count, window).
func BenchmarkFig3SelectionOverhead(b *testing.B) {
	// The paper's grid stops at 10 replicas; 16 extends the series to the
	// scale the optimization work is benchmarked against.
	counts := append(experiment.DefaultFig3ReplicaCounts(), 16)
	for _, window := range experiment.DefaultFig3Windows() {
		for _, replicas := range counts {
			name := fmt.Sprintf("replicas=%d/window=%d", replicas, window)
			b.Run(name, func(b *testing.B) {
				rng := seededRand(42)
				now := time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC)
				repo := repository.New(window)
				prim, sec := experiment.SeedRepository(repo, replicas, window, rng, now)
				model := selection.Model{BinWidth: 2 * time.Millisecond, LazyInterval: 4 * time.Second}
				spec := qos.Spec{Staleness: 2, Deadline: 150 * time.Millisecond, MinProb: 0.9}
				sel := selection.Algorithm1{}

				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					in := model.Evaluate(repo, prim, sec, "seq", spec, now)
					sel.Select(in)
				}
			})
		}
	}
}

// BenchmarkFig4aReplicasSelected regenerates the Figure 4a series; the
// reported custom metric "replicas/read" is the figure's y-axis.
func BenchmarkFig4aReplicasSelected(b *testing.B) {
	benchFig4(b, func(b *testing.B, r experiment.Fig4Result) {
		b.ReportMetric(r.AvgSelected, "replicas/read")
	})
}

// BenchmarkFig4bTimingFailures regenerates the Figure 4b series; the
// reported custom metric "failureProb" is the figure's y-axis.
func BenchmarkFig4bTimingFailures(b *testing.B) {
	benchFig4(b, func(b *testing.B, r experiment.Fig4Result) {
		b.ReportMetric(r.FailureProb, "failureProb")
	})
}

func benchFig4(b *testing.B, report func(*testing.B, experiment.Fig4Result)) {
	configs := []struct {
		prob float64
		lui  time.Duration
	}{
		{0.9, 4 * time.Second},
		{0.5, 4 * time.Second},
		{0.9, 2 * time.Second},
		{0.5, 2 * time.Second},
	}
	deadlines := []time.Duration{80 * time.Millisecond, 140 * time.Millisecond, 220 * time.Millisecond}
	for _, cfg := range configs {
		for _, d := range deadlines {
			name := fmt.Sprintf("prob=%.1f/lui=%ds/deadline=%dms",
				cfg.prob, int(cfg.lui/time.Second), d/time.Millisecond)
			b.Run(name, func(b *testing.B) {
				var last experiment.Fig4Result
				for i := 0; i < b.N; i++ {
					last = experiment.RunFig4Point(experiment.Fig4Config{
						Seed:     2002 + int64(i),
						Deadline: d,
						MinProb:  cfg.prob,
						LUI:      cfg.lui,
						Requests: benchRequests,
					})
				}
				report(b, last)
			})
		}
	}
}

// BenchmarkAblationSelectors compares Algorithm 1 with the baseline
// selectors at the middle of the Figure 4 operating range.
func BenchmarkAblationSelectors(b *testing.B) {
	for _, sel := range []selection.Selector{
		selection.Algorithm1{},
		selection.Stateless{},
		selection.All{},
		selection.Single{},
		selection.CDFGreedy{},
	} {
		b.Run(sel.Name(), func(b *testing.B) {
			var last experiment.Fig4Result
			for i := 0; i < b.N; i++ {
				last = experiment.RunFig4Point(experiment.Fig4Config{
					Seed:     77 + int64(i),
					Deadline: 140 * time.Millisecond,
					MinProb:  0.9,
					LUI:      2 * time.Second,
					Requests: benchRequests,
					Selector: sel,
				})
			}
			b.ReportMetric(last.FailureProb, "failureProb")
			b.ReportMetric(last.AvgSelected, "replicas/read")
		})
	}
}

// BenchmarkAblationFailover measures QoS under mid-run crashes of a serving
// primary, the sequencer, and the lazy publisher.
func BenchmarkAblationFailover(b *testing.B) {
	for _, crash := range []string{"none", "p01", "sequencer", "publisher"} {
		b.Run("crash="+crash, func(b *testing.B) {
			var last experiment.Fig4Result
			for i := 0; i < b.N; i++ {
				cfg := experiment.Fig4Config{
					Seed:     13 + int64(i),
					Deadline: 140 * time.Millisecond,
					MinProb:  0.9,
					LUI:      2 * time.Second,
					Requests: benchRequests,
				}
				if crash != "none" {
					cfg.Crash = crash
					cfg.CrashAt = 30 * time.Second
				}
				last = experiment.RunFig4Point(cfg)
			}
			b.ReportMetric(last.FailureProb, "failureProb")
			if !last.Done {
				b.Fatalf("workload stalled under crash=%s", crash)
			}
		})
	}
}

// BenchmarkEvaluateSteadyState measures repeated model evaluation against an
// unchanging repository — the cache-hit path a read takes when it arrives
// between performance broadcasts, which Figure 3 (always re-deriving the
// distributions) does not isolate. The allocs/op column is the contract:
// the steady-state hot path must not allocate.
func BenchmarkEvaluateSteadyState(b *testing.B) {
	for _, replicas := range []int{8, 16} {
		b.Run(fmt.Sprintf("replicas=%d/window=20", replicas), func(b *testing.B) {
			rng := seededRand(42)
			now := time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC)
			repo := repository.New(20)
			prim, sec := experiment.SeedRepository(repo, replicas, 20, rng, now)
			model := selection.Model{BinWidth: 2 * time.Millisecond, LazyInterval: 4 * time.Second}
			spec := qos.Spec{Staleness: 2, Deadline: 150 * time.Millisecond, MinProb: 0.9}

			var in selection.Input
			model.EvaluateInto(&in, repo, prim, sec, "seq", spec, now) // warm caches
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.EvaluateInto(&in, repo, prim, sec, "seq", spec, now)
			}
		})
	}
}

// ---- Substrate micro-benchmarks (beyond the paper's figures) ----

// BenchmarkPMFConvolve measures the discrete convolution at the heart of the
// response-time model (Section 5.2), per window size.
func BenchmarkPMFConvolve(b *testing.B) {
	for _, window := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			rng := seededRand(1)
			mk := func() stats.PMF {
				samples := make([]time.Duration, window)
				for i := range samples {
					samples[i] = time.Duration(rng.Intn(200)) * time.Millisecond
				}
				return stats.FromSamples(samples)
			}
			s, w := mk(), mk()
			g := stats.Point(2 * time.Millisecond)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := s.Convolve(w).Bin(2 * time.Millisecond).Convolve(g)
				_ = p.CDF(140 * time.Millisecond)
			}
		})
	}
}

// wireBenchFrame is the representative hot frame of the live deployment: a
// client request wrapped by the group substrate's sequenced link layer.
func wireBenchFrame() (node.ID, node.ID, node.Message) {
	return "c00", "p01", group.DataMsg{
		SrcEpoch: 0xfeedface, Gen: 1, Seq: 12345,
		Payload: consistency.Request{
			ID:      consistency.RequestID{Client: "c00", Seq: 12345},
			Method:  "Set",
			Payload: []byte("user:4711=profile-blob-0123456789abcdef"),
		},
	}
}

// BenchmarkWireCodec compares the hand-rolled binary wire codec against the
// gob stream it replaced, on the transport's hot frame. The encode variant
// is the steady-state writer path (reused buffer, zero allocs); the
// roundtrip variants add the decode side as the read loop performs it.
func BenchmarkWireCodec(b *testing.B) {
	tcpnet.RegisterProtocolTypes()
	from, to, msg := wireBenchFrame()

	b.Run("wire/encode", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = tcpnet.AppendFrame(buf[:0], from, to, msg)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("wire/roundtrip", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		var dec tcpnet.FrameDecoder // persistent, as in the read loop
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = tcpnet.AppendFrame(buf[:0], from, to, msg)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, _, err := dec.Decode(buf[4:]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gob/roundtrip", func(b *testing.B) {
		// Persistent encoder/decoder over one buffer — the streaming setup
		// the old transport used, which amortizes gob's type descriptors.
		var stream bytes.Buffer
		enc := gob.NewEncoder(&stream)
		dec := gob.NewDecoder(&stream)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(tcpnet.Frame{From: from, To: to, Payload: msg}); err != nil {
				b.Fatal(err)
			}
			var f tcpnet.Frame
			if err := dec.Decode(&f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTCPThroughput pushes the hot frame through real loopback TCP,
// two runtimes per variant, and reports ns per delivered frame (frames/sec
// = 1e9/ns_per_op; scripts/bench.sh derives it into BENCH_wire.json).
//
//	wire — the live Transport: binary codec, per-peer writer goroutine,
//	       batched flushes.
//	gob  — the replaced design, reproduced inline: per-frame gob.Encode
//	       straight onto the connection, gob decode loop on the receiver.
//
// On the single-core benchmark container compare frames/sec and allocs/op;
// ns/op is indicative only.
func BenchmarkTCPThroughput(b *testing.B) {
	tcpnet.RegisterProtocolTypes()
	from, to, msg := wireBenchFrame()

	// Receiver-side terminal node shared by both variants: counts
	// deliveries and wakes the sender every 256 frames so backpressure
	// blocks on a channel instead of busy-yielding (which would burn the
	// whole benchmark container's single core in the scheduler).
	newSink := func() (*atomic.Int64, chan struct{}, node.Node) {
		got := new(atomic.Int64)
		wake := make(chan struct{}, 1)
		return got, wake, &node.FuncNode{
			OnRecv: func(node.ID, node.Message) {
				if got.Add(1)&255 == 0 {
					select {
					case wake <- struct{}{}:
					default:
					}
				}
			},
		}
	}
	drain := func(got *atomic.Int64, n int64) {
		for got.Load() < n {
			runtime.Gosched()
		}
	}

	b.Run("wire", func(b *testing.B) {
		rtB := live.NewRuntime()
		got, wake, sink := newSink()
		rtB.Register(to, sink)
		rtB.Start()
		defer rtB.Stop()
		trB, err := tcpnet.New(rtB, "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		defer trB.Close()
		trA, err := tcpnet.New(live.NewRuntime(), "127.0.0.1:0", map[node.ID]string{to: trB.Addr()})
		if err != nil {
			b.Fatal(err)
		}
		defer trA.Close()

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Backpressure well inside the ring capacity so no frame is
			// shed: the bench measures throughput, not the drop path.
			for int64(i)-got.Load() >= tcpnet.DefaultSendQueue/2 {
				<-wake
			}
			trA.Send(from, to, msg)
		}
		drain(got, int64(b.N))
	})

	b.Run("gob", func(b *testing.B) {
		rtB := live.NewRuntime()
		got, _, sink := newSink()
		rtB.Register(to, sink)
		rtB.Start()
		defer rtB.Stop()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			dec := gob.NewDecoder(conn)
			for {
				var f tcpnet.Frame
				if err := dec.Decode(&f); err != nil {
					return
				}
				rtB.Inject(f.From, f.To, f.Payload)
			}
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		enc := gob.NewEncoder(conn)

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// One Encode per frame onto the socket — the old transport's
			// per-Send write (TCP itself applies the backpressure).
			if err := enc.Encode(tcpnet.Frame{From: from, To: to, Payload: msg}); err != nil {
				b.Fatal(err)
			}
		}
		drain(got, int64(b.N))
	})
}

// BenchmarkCommitBuffer measures the primary's commit-in-GSN-order pipeline
// under in-order and reversed arrival.
func BenchmarkCommitBuffer(b *testing.B) {
	const batch = 64
	b.Run("in-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cb := consistency.NewCommitBuffer()
			for g := uint64(1); g <= batch; g++ {
				id := consistency.RequestID{Client: "c", Seq: g}
				cb.AddBody(consistency.Request{ID: id})
				cb.AddAssign(consistency.GSNAssign{ID: id, GSN: g, Update: true})
			}
			if cb.MyCSN() != batch {
				b.Fatal("commit stream incomplete")
			}
		}
	})
	b.Run("reversed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cb := consistency.NewCommitBuffer()
			for g := uint64(batch); g >= 1; g-- {
				id := consistency.RequestID{Client: "c", Seq: g}
				cb.AddBody(consistency.Request{ID: id})
				cb.AddAssign(consistency.GSNAssign{ID: id, GSN: g, Update: true})
			}
			if cb.MyCSN() != batch {
				b.Fatal("commit stream incomplete")
			}
		}
	})
}

// BenchmarkSimulator measures raw discrete-event throughput — the budget
// every virtual-time experiment draws on.
func BenchmarkSimulator(b *testing.B) {
	s := sim.NewScheduler(1)
	cnt := 0
	var tick func()
	tick = func() {
		cnt++
		if cnt < b.N {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(time.Microsecond, tick)
	b.ResetTimer()
	s.RunUntilIdle()
	if cnt != b.N {
		b.Fatalf("ran %d events, want %d", cnt, b.N)
	}
}

// BenchmarkSimMessagePassing measures one virtual network hop through the
// runtime (send, delay model, delivery).
func BenchmarkSimMessagePassing(b *testing.B) {
	s := sim.NewScheduler(1)
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.ConstantDelay(time.Millisecond)))
	type pingMsg struct{ N int }
	var actx, bGot = node.Context(nil), 0
	rt.Register("a", &node.FuncNode{OnInit: func(ctx node.Context) { actx = ctx }})
	rt.Register("b", &node.FuncNode{OnRecv: func(node.ID, node.Message) { bGot++ }})
	rt.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		actx.Send("b", pingMsg{N: i})
	}
	s.RunUntilIdle()
	if bGot != b.N {
		b.Fatalf("delivered %d of %d", bGot, b.N)
	}
}

// BenchmarkSelectionAlgorithm1 isolates Algorithm 1 itself (the paper
// attributes ~10% of Figure 3's overhead to it).
func BenchmarkSelectionAlgorithm1(b *testing.B) {
	rng := seededRand(3)
	in := selection.Input{StaleFactor: 0.7, MinProb: 0.9, Sequencer: "seq"}
	for i := 0; i < 10; i++ {
		in.Candidates = append(in.Candidates, selection.Candidate{
			ID:         node.ID(fmt.Sprintf("r%02d", i)),
			Primary:    i < 4,
			ImmedCDF:   rng.Float64(),
			DelayedCDF: rng.Float64() * 0.3,
			ERT:        time.Duration(rng.Intn(10000)) * time.Millisecond,
		})
	}
	sel := selection.Algorithm1{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Select(in)
	}
}

// BenchmarkEndToEndSimRead measures one full client read through the entire
// simulated stack (selection, sequencing, service, reply, broadcasts).
func BenchmarkEndToEndSimRead(b *testing.B) {
	r := experiment.RunFig4Point(experiment.Fig4Config{
		Seed:         1,
		Deadline:     140 * time.Millisecond,
		MinProb:      0.9,
		LUI:          2 * time.Second,
		Requests:     b.N*2 + 2, // half are reads
		RequestDelay: 10 * time.Millisecond,
	})
	if r.Reads < b.N {
		b.Fatalf("ran %d reads, want >= %d", r.Reads, b.N)
	}
}

// BenchmarkFig4Point is the allocation contract for the simulator's hot
// path: one full 200-request experiment per iteration, with allocs/op
// reported. The scheduler's recycled slab slots, pooled delivery/timer records,
// and scratch-slice reuse in the protocol stack are all on this path.
func BenchmarkFig4Point(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.RunFig4Point(experiment.Fig4Config{
			Seed:     2002,
			Deadline: 140 * time.Millisecond,
			MinProb:  0.9,
			LUI:      2 * time.Second,
			Requests: benchRequests,
		})
	}
}

// BenchmarkFig4PointObs is BenchmarkFig4Point with a live metrics registry
// attached to every gateway plus the simulator — the observability
// subsystem's overhead budget. Compare ns/op against BenchmarkFig4Point
// (scripts/bench.sh emits the ratio into BENCH_obs.json; the contract is
// ≤5% overhead with metrics enabled, zero added allocs when disabled).
func BenchmarkFig4PointObs(b *testing.B) {
	reg := obs.NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiment.RunFig4Point(experiment.Fig4Config{
			Seed:     2002,
			Deadline: 140 * time.Millisecond,
			MinProb:  0.9,
			LUI:      2 * time.Second,
			Requests: benchRequests,
			Obs:      reg,
		})
	}
}

// BenchmarkSweepWallClock measures a reduced Figure 4 sweep end to end
// through the parallel experiment engine, sequentially and at GOMAXPROCS.
// The parallel/sequential ratio approaches the core count on multi-core
// machines (points are share-nothing); the outputs are identical either way
// (see TestFig4SweepParallelismInvariant).
func BenchmarkSweepWallClock(b *testing.B) {
	sweep := func(parallel int) {
		sw := experiment.DefaultFig4Sweep()
		sw.Base = experiment.Fig4Config{Seed: 2002, Requests: 50}
		sw.Deadlines = sw.Deadlines[:4] // 4 deadlines x 4 (prob, lui) series = 16 points
		var cfgs []experiment.Fig4Config
		for _, d := range sw.Deadlines {
			for _, c := range sw.Configs {
				p := sw.Base
				p.Deadline = d
				p.MinProb = c.MinProb
				p.LUI = c.LUI
				p.Seed = sw.Base.Seed + int64(d/time.Millisecond)
				cfgs = append(cfgs, p)
			}
		}
		experiment.RunPoints(cfgs, parallel, nil, experiment.RunFig4Point)
	}
	b.Run("parallel=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(1)
		}
	})
	b.Run("parallel=gomaxprocs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(0)
		}
	})
}
