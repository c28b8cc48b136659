package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/check"
	"aqua/internal/client"
	"aqua/internal/core"
	"aqua/internal/experiment"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/obs"
	"aqua/internal/qos"
	"aqua/internal/selection"
	"aqua/internal/sim"
	"aqua/internal/stats"
	"aqua/internal/wal"
)

// The sim-fig4 workload is the paper's Figure 4a/4b sweep as
// experiment.Fig4Sweep defines it: deadlines 80-220 ms × Pc {0.5, 0.9} ×
// LUI {2 s, 4 s} on the deterministic simulator, with every replica logging
// to an in-memory WAL (Fig4Config.Durable, which leaves the figures
// byte-identical) so the wal layer runs on a steady workload. The benchmark deploys each
// point itself, with the same configuration as experiment.RunFig4Point, so
// that it can wrap the runtime and the selector and record per-request
// virtual-time latencies; simPin checks that a point deployed here gives
// exactly experiment.RunFig4Point's result.

// simPoint is one sweep point.
type simPoint struct {
	seed     int64
	deadline time.Duration
	minProb  float64
	lui      time.Duration
}

// simPoints lists the sweep in experiment.Fig4Sweep's grid order and seeds.
func simPoints(seed int64) []simPoint {
	sw := experiment.DefaultFig4Sweep()
	var pts []simPoint
	for _, c := range sw.Configs {
		for _, d := range sw.Deadlines {
			pts = append(pts, simPoint{
				seed:     seed + int64(d/time.Millisecond) + int64(c.MinProb*1000) + int64(c.LUI/time.Millisecond),
				deadline: d, minProb: c.MinProb, lui: c.LUI,
			})
		}
	}
	return pts
}

// The paper's Figure 4 set-up (experiment.Fig4Config defaults).
const (
	simServing     = 4
	simSecondaries = 6
	simThink       = time.Second
	simSvcMean     = 100 * time.Millisecond
	simSvcStd      = 50 * time.Millisecond
	simStaleness   = 2
	simWindow      = 20
)

// simOpts selects what one point run records.
type simOpts struct {
	requests   int
	traced     bool
	fault      bool // the planted commit-reorder fault and its slow link
	firstReply bool // stop once both clients have a reply (set-up timing)
}

// simResult is one point's outcome.
type simResult struct {
	fig4    experiment.Fig4Result
	readLat []time.Duration // measured client, virtual time
	updLat  []time.Duration
	ops     int // completed requests, both clients
	updates int // successful Sets, both clients
	failed  int
	events  uint64
	// WAL appends, bytes and syncs across every replica's media.
	walAppends, walBytes, walSyncs uint64
	problems                       []string
	wall                           time.Duration

	// Traced runs only.
	sum *summary
	tr  *tracer
	obs []obs.Sample
}

// runSimPoint deploys and runs one Figure 4 point as
// experiment.RunFig4Point does (unsharded, no crash, no loss).
func runSimPoint(p simPoint, o simOpts) simResult {
	start := time.Now()
	s := sim.NewScheduler(p.seed)
	var delay netsim.DelayModel = netsim.UniformDelay{Min: 500 * time.Microsecond, Max: 2 * time.Millisecond}
	if o.fault {
		delay = slowSimLink{inner: delay}
	}
	rt := sim.NewRuntime(s, sim.WithDelay(delay))
	var host core.Runtime = rt
	var tr *tracer
	var reg *obs.Registry // one per point: obs.Registry creates instruments unlocked
	if o.traced {
		tr = newTracer()
		tr.on.Store(true)
		host = tracedRuntime{inner: rt, tr: tr}
		reg = obs.NewRegistry()
	}
	var res simResult
	var rec *check.Recorder
	var medias []*tracedMedia
	svc := core.ServiceConfig{
		Primaries:    simServing + 1,
		Secondaries:  simSecondaries,
		LazyInterval: p.lui,
		Group:        group.DefaultConfig(),
		Durable:      true,
		Obs:          reg,
		ServiceDelay: func(r *rand.Rand) time.Duration {
			return stats.TruncNormalDuration(r, simSvcMean, simSvcStd, 0)
		},
	}
	order := replicaOrder(simServing, simSecondaries)
	next := 0
	svc.NewApp = func() app.Application {
		id := order[next%len(order)]
		next++
		var nt *nodeTrace
		if tr != nil {
			nt = tr.node(id)
		}
		return &countedApp{Application: apps.NewKVStore(), nt: nt}
	}
	svc.NewMedia = func(id node.ID) (wal.Media, error) {
		m := &tracedMedia{Media: wal.NewMemMedia()}
		if tr != nil {
			m.nt = tr.node(id)
		}
		medias = append(medias, m)
		return m, nil
	}
	if o.traced {
		rec = check.NewRecorder(sim.Epoch, s.Now)
		svc.OnApply = rec.Apply
		svc.OnServeRead = rec.ServeRead
		svc.OnRestore = rec.Restore
	}

	var done, firstDone int
	var versions []string
	onDone := func() { done++ }
	record := func(measured bool) func(client.Result, bool, int) {
		return func(r client.Result, read bool, k int) {
			res.ops++
			if k == 0 {
				firstDone++
			}
			if r.Err != "" {
				res.failed++
				return
			}
			if !read {
				res.updates++
				versions = append(versions, string(r.Payload))
			}
			if !measured {
				return
			}
			if read {
				res.readLat = append(res.readLat, r.ResponseTime)
			} else {
				res.updLat = append(res.updLat, r.ResponseTime)
			}
		}
	}
	var sel selection.Selector
	var nt0, nt1 *nodeTrace
	if tr != nil {
		nt0, nt1 = tr.node("c00"), tr.node("c01")
		sel = tracedSelector{Selector: selection.Algorithm1{}, nt: nt1}
	}
	clients := []core.ClientConfig{
		{
			ID:            "c00",
			Spec:          qos.Spec{Staleness: 4, Deadline: 200 * time.Millisecond, MinProb: 0.1},
			Methods:       qos.NewMethods("Get", "Version"),
			WindowSize:    simWindow,
			RetryInterval: 10 * time.Minute,
			Driver:        alternating(o.requests, "doc1", nt0, record(false), onDone),
		},
		{
			ID:            "c01",
			Spec:          qos.Spec{Staleness: simStaleness, Deadline: p.deadline, MinProb: p.minProb},
			Methods:       qos.NewMethods("Get", "Version"),
			WindowSize:    simWindow,
			Selector:      sel,
			RetryInterval: 10 * time.Minute,
			Driver:        alternating(o.requests, "doc2", nt1, record(true), onDone),
		},
	}
	d, err := core.Deploy(host, svc, clients)
	if err != nil {
		res.problems = append(res.problems, fmt.Sprintf("deploy: %v", err))
		return res
	}
	if o.fault {
		d.Replicas[faultTo].EnableCommitReorderFault()
	}
	rt.Start()

	if o.firstReply {
		for step := 0; firstDone < len(clients) && step < 1000; step++ {
			s.RunFor(10 * time.Millisecond)
		}
		res.wall = time.Since(start)
		return res
	}
	perRequest := simThink + 4*simSvcMean + p.lui/4 + 500*time.Millisecond
	capAt := time.Duration(o.requests+10) * perRequest * 2
	for elapsed := time.Duration(0); done < len(clients) && elapsed < capAt; elapsed += time.Minute {
		s.RunFor(time.Minute)
	}
	s.RunFor(5 * time.Second)
	if tr != nil {
		tr.on.Store(false) // the checks below read the replicas' state
	}
	res.events = s.Events()
	rt.ObserveInto(reg)
	res.obs = reg.Snapshot()
	for _, m := range medias {
		res.walAppends += m.appends.Load()
		res.walBytes += m.bytes.Load()
		res.walSyncs += m.Media.Syncs()
	}

	m := d.Clients["c01"].Metrics()
	res.fig4 = experiment.Fig4Result{
		Deadline: p.deadline, MinProb: p.minProb, LUI: p.lui,
		Reads: m.Reads, TimingFailures: m.TimingFailures, Selections: m.Selections,
		Done: done == len(clients),
	}
	if m.Reads > 0 {
		res.fig4.FailureProb = float64(m.TimingFailures) / float64(m.Reads)
		res.fig4.CI = stats.BinomialConfidence(m.TimingFailures, m.Reads, 0.95)
		res.fig4.AvgSelected = float64(m.SelectedTotal) / float64(m.Reads)
	}
	if len(res.readLat) > 0 {
		ms := make([]float64, len(res.readLat))
		for i, d := range res.readLat {
			ms[i] = float64(d)
		}
		res.fig4.MeanResponse = time.Duration(stats.Summarize(ms).Mean)
	}
	if !res.fig4.Done {
		res.problems = append(res.problems, fmt.Sprintf("point %v: clients did not finish", p))
	}
	res.problems = append(res.problems, convergence(d)...)
	res.problems = append(res.problems, uniqueVersions(versions)...)
	if rec != nil {
		res.problems = append(res.problems, oracleProblems(rec.Events())...)
		res.sum = tr.summarize()
		res.tr = tr
	}
	res.wall = time.Since(start)
	return res
}

// slowSimLink adds faultLinkDelay to every message on the fault link.
type slowSimLink struct{ inner netsim.DelayModel }

func (l slowSimLink) Delay(r *rand.Rand, from, to node.ID) time.Duration {
	d := l.inner.Delay(r, from, to)
	if from == faultFrom && to == faultTo {
		d += faultLinkDelay
	}
	return d
}

// alternating is experiment's alternatingDriver: total alternating Set/Get
// requests in a closed loop with a one-second think time and a seeded
// start stagger. Keeping it request-for-request identical is what lets
// simPin compare this deployment with experiment.RunFig4Point. A non-nil nt
// times each Invoke.
func alternating(total int, key string, nt *nodeTrace, onResult func(client.Result, bool, int), onDone func()) func(node.Context, *client.Gateway) {
	return func(ctx node.Context, gw *client.Gateway) {
		var issue func(k int)
		issue = func(k int) {
			if k >= total {
				onDone()
				return
			}
			next := func(r client.Result, read bool) {
				onResult(r, read, k)
				ctx.Post(simThink, func() { issue(k + 1) })
			}
			if k%2 == 0 {
				i := nt.begin(spanInvokeUpdate)
				gw.Invoke("Set", []byte(fmt.Sprintf("%s=%d", key, k)), func(r client.Result) { next(r, false) })
				nt.end(i)
			} else {
				i := nt.begin(spanInvokeRead)
				gw.Invoke("Get", []byte(key), func(r client.Result) { next(r, true) })
				nt.end(i)
			}
		}
		stagger := time.Duration(ctx.Rand().Int63n(int64(200 * time.Millisecond)))
		ctx.Post(stagger, func() { issue(0) })
	}
}

// sweepResult pools one sweep's points.
type sweepResult struct {
	points []simResult
	wall   time.Duration
	table  []byte // rendered Figure 4a and 4b tables
}

// runSweep runs every point of the sweep on up to workers goroutines.
func runSweep(seed int64, o simOpts, workers int) sweepResult {
	start := time.Now()
	pts := experiment.RunPoints(simPoints(seed), workers, nil, func(p simPoint) simResult {
		return runSimPoint(p, o)
	})
	sr := sweepResult{points: pts, wall: time.Since(start)}
	figs := make([]experiment.Fig4Result, len(pts))
	for i := range pts {
		figs[i] = pts[i].fig4
	}
	var b bytes.Buffer
	experiment.WriteFig4aTable(&b, figs)
	experiment.WriteFig4bTable(&b, figs)
	sr.table = b.Bytes()
	return sr
}

// simPin runs the sweep's first point both through experiment.RunFig4Point
// and through the benchmark's own deployment, and reports any difference.
func simPin(seed int64, requests int) []string {
	p := simPoints(seed)[0]
	want := experiment.RunFig4Point(experiment.Fig4Config{
		Seed: p.seed, Deadline: p.deadline, MinProb: p.minProb, LUI: p.lui, Requests: requests, Durable: true,
	})
	got := runSimPoint(p, simOpts{requests: requests}).fig4
	a, b := fmt.Sprintf("%+v", want), fmt.Sprintf("%+v", got)
	if a != b {
		return []string{fmt.Sprintf("benchmark point differs from experiment.RunFig4Point:\n  want %s\n  got  %s", a, b)}
	}
	return nil
}
