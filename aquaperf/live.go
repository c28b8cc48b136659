package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/check"
	"aqua/internal/client"
	"aqua/internal/consistency"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/live"
	"aqua/internal/node"
	"aqua/internal/obs"
	"aqua/internal/qos"
	"aqua/internal/selection"
	"aqua/internal/tcpnet"
	"aqua/internal/wal"
)

// liveWorkload is one live deployment and its load mix. Both live
// workloads share the topology: one serving runtime holds the sequencer,
// two serving primaries and two secondaries, so replica-to-replica traffic
// stays in-process; one generator runtime holds the client gateways, and
// TCP loopback carries the client-replica traffic.
type liveWorkload struct {
	readFrac  float64
	rate      float64 // open-loop requests per second, all gateways
	staleness int     // QoS staleness bound a
	durable   bool    // WAL on FileMedia + replicated GSN assignment
}

var liveWorkloads = map[string]liveWorkload{
	"live-qos-read":      {readFrac: 0.9, rate: 1000, staleness: 4},
	"live-durable-write": {readFrac: 0.1, rate: 200, staleness: 0, durable: true},
}

const (
	liveKeys        = 1024
	liveValueBytes  = 128
	liveDeadline    = 20 * time.Millisecond
	liveMinProb     = 0.9
	liveLUI         = 100 * time.Millisecond
	liveSecondaries = 2
	liveServing     = 2 // serving primaries; the sequencer is extra
	maxGateways     = 2
	drainTimeout    = 3 * time.Second
	settleQuiet     = 200 * time.Millisecond
	cpuWindow       = time.Second
)

// liveOpts sizes one live run.
type liveOpts struct {
	seed    int64
	warmup  time.Duration // open-loop lead-in excluded from the figures
	openFor time.Duration // measured open-loop phase
	traced  bool
	fault   bool   // the planted commit-reorder fault and its slow link
	walRoot string // parent directory of the run's WAL directories
}

// arrival is one scheduled open-loop request.
type arrival struct {
	at   time.Duration // due offset from the phase start
	read bool
	key  int
}

// schedule draws the open-loop Poisson arrivals from the seed and deals
// them round-robin to n gateways.
func schedule(seed int64, rate, readFrac float64, span time.Duration, n int) [][]arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]arrival, n)
	at := time.Duration(0)
	for i := 0; ; i++ {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= span {
			return out
		}
		out[i%n] = append(out[i%n], arrival{at: at, read: rng.Float64() < readFrac, key: rng.Intn(liveKeys)})
	}
}

// opRec is the outcome of one open-loop request.
type opRec struct {
	lat    time.Duration // due instant to reply
	done   bool
	failed bool
}

// openCtl is the control message the benchmark injects into a generator
// node to start its open loop.
type openCtl struct {
	t0  time.Time
	arr []arrival
}

// gen drives one client gateway from inside its node. Every field but the
// atomics and channels is touched only by the node's goroutine until the
// runtime stops.
type gen struct {
	id  node.ID
	gw  *client.Gateway
	ctx node.Context
	nt  *nodeTrace

	setupDone   chan struct{}
	outstanding atomic.Int64

	attempted, failed int64
	versions          []string

	t0   time.Time
	arr  []arrival
	next int
	recs []opRec
	lags []time.Duration

	valSeq int
}

// genNode hosts a gen on the generator runtime in front of its gateway.
type genNode struct{ g *gen }

func (n genNode) Init(ctx node.Context) {
	g := n.g
	g.gw.Init(ctx)
	g.ctx = ctx
	g.issue(false, 0, func(r client.Result) {
		select {
		case g.setupDone <- struct{}{}:
		default:
		}
	})
}

func (n genNode) Recv(from node.ID, m node.Message) {
	if c, ok := m.(openCtl); ok {
		n.g.startOpen(c)
		return
	}
	n.g.gw.Recv(from, m)
}

// issue sends one request through client.Gateway.Invoke; cb runs on the
// reply.
func (g *gen) issue(read bool, key int, cb func(client.Result)) {
	var method string
	var payload []byte
	if read {
		method, payload = "Get", []byte(fmt.Sprintf("k%04d", key))
	} else {
		g.valSeq++
		v := fmt.Sprintf("k%04d=%s-%d-", key, g.id, g.valSeq)
		payload = append([]byte(v), bytes.Repeat([]byte{'x'}, liveValueBytes-len(v)%liveValueBytes)...)
		method = "Set"
	}
	g.attempted++
	g.outstanding.Add(1)
	kind := spanInvokeUpdate
	if read {
		kind = spanInvokeRead
	}
	i := g.nt.begin(kind)
	g.gw.Invoke(method, payload, func(r client.Result) {
		g.outstanding.Add(-1)
		if r.Err != "" {
			g.failed++
		} else if !read {
			g.versions = append(g.versions, string(r.Payload))
		}
		cb(r)
	})
	g.nt.end(i)
}

func (g *gen) startOpen(c openCtl) {
	g.t0, g.arr, g.next = c.t0, c.arr, 0
	g.recs = make([]opRec, len(c.arr))
	g.fire()
}

// fire issues every arrival that is due and re-arms for the next one.
func (g *gen) fire() {
	now := time.Now()
	for g.next < len(g.arr) {
		a := g.arr[g.next]
		due := g.t0.Add(a.at)
		if due.After(now) {
			g.ctx.SetTimer(due.Sub(now), g.fire)
			return
		}
		rec := &g.recs[g.next]
		g.next++
		g.lags = append(g.lags, now.Sub(due))
		g.issue(a.read, a.key, func(r client.Result) {
			rec.lat, rec.done, rec.failed = time.Since(due), true, r.Err != ""
		})
	}
}

// splitRuntime routes client nodes to the generator runtime, wrapping each
// gateway in its gen, and every replica to the serving runtime.
type splitRuntime struct {
	serving, generator *live.Runtime
	gens               map[node.ID]*gen
}

func (s splitRuntime) Register(id node.ID, n node.Node) {
	g := s.gens[id]
	if g == nil {
		s.serving.Register(id, n)
		return
	}
	// The traced runtime wraps gateways in tracedNode; unwrap to reach the
	// gateway but keep the wrapper outermost.
	if tn, ok := n.(*tracedNode); ok {
		g.gw = tn.inner.(*client.Gateway)
		tn.inner = genNode{g}
		s.generator.Register(id, tn)
		return
	}
	g.gw = n.(*client.Gateway)
	s.generator.Register(id, genNode{g})
}

// lockedRecorder serializes the check hooks of concurrently running nodes.
type lockedRecorder struct {
	mu  sync.Mutex
	rec *check.Recorder
}

func (l *lockedRecorder) apply(id node.ID, gsn uint64, rid consistency.RequestID) {
	l.mu.Lock()
	l.rec.Apply(id, gsn, rid)
	l.mu.Unlock()
}

func (l *lockedRecorder) serveRead(id node.ID, rid consistency.RequestID, gsn, csn uint64, a int, deferred bool) {
	l.mu.Lock()
	l.rec.ServeRead(id, rid, gsn, csn, a, deferred)
	l.mu.Unlock()
}

func (l *lockedRecorder) restore(id node.ID, csn uint64) {
	l.mu.Lock()
	l.rec.Restore(id, csn)
	l.mu.Unlock()
}

// timerProbe measures how late a 1 ms timer fires on the serving runtime:
// the scheduling wait every message there pays.
type timerProbe struct {
	ctx  node.Context
	on   *atomic.Bool
	want time.Time
	late []time.Duration
}

const probeTick = time.Millisecond

func (p *timerProbe) Init(ctx node.Context) {
	p.ctx = ctx
	p.arm()
}

func (p *timerProbe) Recv(node.ID, node.Message) {}

func (p *timerProbe) arm() {
	p.want = time.Now().Add(probeTick)
	p.ctx.SetTimer(probeTick, p.tick)
}

func (p *timerProbe) tick() {
	if p.on.Load() {
		p.late = append(p.late, time.Since(p.want))
	}
	p.arm()
}

// liveDeployment is one deployed, started system.
type liveDeployment struct {
	rtS, rtC *live.Runtime
	trS, trC *tcpnet.Transport
	d        *core.Deployment
	gens     []*gen
	apps     map[node.ID]*countedApp
	medias   []*tracedMedia
	files    []*wal.FileMedia
	walDir   string
	tr       *tracer
	reg      *obs.Registry
	rec      *lockedRecorder
	probe    *timerProbe
	slow     *slowLink
	setup    time.Duration
	stopped  bool
}

// replicaOrder is the order in which core.Deploy builds the replicas of a
// deployment with serving primaries plus the sequencer and secondaries,
// and so calls NewApp.
func replicaOrder(serving, secondaries int) []node.ID {
	ids := make([]node.ID, 0, 1+serving+secondaries)
	for i := 0; i <= serving; i++ {
		ids = append(ids, node.ID(fmt.Sprintf("p%02d", i)))
	}
	for i := 0; i < secondaries; i++ {
		ids = append(ids, node.ID(fmt.Sprintf("s%02d", i)))
	}
	return ids
}

func gatewayCount() int {
	n := runtime.NumCPU()
	if n > maxGateways {
		n = maxGateways
	}
	return n
}

// deployLive builds, wires and starts one deployment and returns once every
// gateway has completed its first request; setup records how long that took.
func deployLive(w liveWorkload, o liveOpts, setupIdx int) (*liveDeployment, error) {
	start := time.Now()
	ld := &liveDeployment{apps: make(map[node.ID]*countedApp)}
	if o.traced {
		ld.tr = newTracer()
		ld.reg = obs.NewRegistry()
		ld.rec = &lockedRecorder{rec: check.NewRecorder(start, time.Now)}
	}
	opts := []live.Option{live.WithSeed(o.seed)}
	ld.rtS = live.NewRuntime(opts...)
	ld.rtC = live.NewRuntime(opts...)
	var err error
	if ld.trS, err = tcpnet.New(ld.rtS, "127.0.0.1:0", nil); err != nil {
		return nil, err
	}
	if ld.trC, err = tcpnet.New(ld.rtC, "127.0.0.1:0", nil); err != nil {
		ld.trS.Close()
		return nil, err
	}
	ld.trS.Instrument(ld.reg)
	ld.trC.Instrument(ld.reg)

	order := replicaOrder(liveServing, liveSecondaries)
	next := 0
	svc := core.ServiceConfig{
		Primaries:    1 + liveServing,
		Secondaries:  liveSecondaries,
		LazyInterval: liveLUI,
		Group:        group.DefaultConfig(),
		FastReads:    true,
		Obs:          ld.reg,
		NewApp: func() app.Application {
			id := order[next%len(order)]
			next++
			a := &countedApp{Application: apps.NewKVStore(), nt: ld.traceOf(id)}
			ld.apps[id] = a
			return a
		},
	}
	if ld.rec != nil {
		svc.OnApply = ld.rec.apply
		svc.OnServeRead = ld.rec.serveRead
		svc.OnRestore = ld.rec.restore
	}
	if w.durable {
		ld.walDir = filepath.Join(o.walRoot, fmt.Sprintf("wal-%d-%d", os.Getpid(), setupIdx))
		svc.Durable = true
		svc.ReplicatedAssign = true
		svc.AssignBatch = 64
		svc.AssignBatchWindow = time.Millisecond
		svc.NewMedia = func(id node.ID) (wal.Media, error) {
			fm, err := wal.NewFileMedia(filepath.Join(ld.walDir, string(id)))
			if err != nil {
				return nil, err
			}
			ld.files = append(ld.files, fm)
			m := &tracedMedia{Media: fm, nt: ld.traceOf(id)}
			ld.medias = append(ld.medias, m)
			return m, nil
		}
	}

	gens := make(map[node.ID]*gen)
	var clients []core.ClientConfig
	for i := 0; i < gatewayCount(); i++ {
		id := node.ID(fmt.Sprintf("c%02d", i))
		g := &gen{
			id:        id,
			nt:        ld.traceOf(id),
			setupDone: make(chan struct{}, 1),
		}
		gens[id] = g
		ld.gens = append(ld.gens, g)
		cc := core.ClientConfig{
			ID:      id,
			Spec:    qos.Spec{Staleness: w.staleness, Deadline: liveDeadline, MinProb: liveMinProb},
			Methods: qos.NewMethods("Get", "Version"),
		}
		if ld.tr != nil {
			cc.Selector = tracedSelector{Selector: selection.Algorithm1{}, nt: g.nt}
		}
		clients = append(clients, cc)
	}

	var rt core.Runtime = splitRuntime{serving: ld.rtS, generator: ld.rtC, gens: gens}
	if ld.tr != nil {
		rt = tracedRuntime{inner: rt, tr: ld.tr}
		ld.probe = &timerProbe{on: &ld.tr.on}
		ld.rtS.Register("probe", ld.probe)
	}
	ld.d, err = core.Deploy(rt, svc, clients)
	if err != nil {
		ld.teardown()
		return nil, err
	}
	if o.fault {
		ld.d.Replicas[faultTo].EnableCommitReorderFault()
	}
	for _, id := range append(append([]node.ID(nil), ld.d.PrimaryGroup...), ld.d.Secondaries...) {
		ld.trC.AddPeer(id, ld.trS.Addr())
	}
	for _, g := range ld.gens {
		ld.trS.AddPeer(g.id, ld.trC.Addr())
	}
	sendS, sendC := ld.trS.Send, ld.trC.Send
	if o.fault {
		ld.slow = newSlowLink(sendC)
		sendC = ld.slow.send
	}
	if ld.tr != nil {
		sendS, sendC = ld.tr.timedSend(sendS), ld.tr.timedSend(sendC)
	}
	ld.rtS.SetRemote(sendS)
	ld.rtC.SetRemote(sendC)
	ld.rtS.Start()
	ld.rtC.Start()

	deadline := time.After(10 * time.Second)
	for _, g := range ld.gens {
		select {
		case <-g.setupDone:
		case <-deadline:
			ld.teardown()
			return nil, errors.New("set-up: no reply to the first request within 10s")
		}
	}
	ld.setup = time.Since(start)
	return ld, nil
}

func (ld *liveDeployment) traceOf(id node.ID) *nodeTrace {
	if ld.tr == nil {
		return nil
	}
	return ld.tr.node(id)
}

// teardown stops both runtimes (waiting for every node goroutine), closes
// the transports and WAL files and removes the WAL directory.
func (ld *liveDeployment) teardown() {
	if ld.stopped {
		return
	}
	ld.stopped = true
	ld.rtC.Stop()
	ld.rtS.Stop()
	if ld.slow != nil {
		ld.slow.stop()
	}
	ld.trC.Close()
	ld.trS.Close()
	for _, f := range ld.files {
		f.Close()
	}
	if ld.walDir != "" {
		os.RemoveAll(ld.walDir)
	}
}

// outstanding sums the requests still unanswered across gateways.
func (ld *liveDeployment) outstanding() int64 {
	var n int64
	for _, g := range ld.gens {
		n += g.outstanding.Load()
	}
	return n
}

// drain waits until no request is outstanding or the timeout passes.
func (ld *liveDeployment) drain(timeout time.Duration) {
	end := time.Now().Add(timeout)
	for ld.outstanding() > 0 && time.Now().Before(end) {
		time.Sleep(2 * time.Millisecond)
	}
}

// settle waits until every serving primary has applied the same number of
// updates and the count has held still for settleQuiet.
func (ld *liveDeployment) settle(timeout time.Duration) bool {
	end := time.Now().Add(timeout)
	var last uint64
	stableSince := time.Now()
	for time.Now().Before(end) {
		equal := true
		var n uint64
		for i, id := range ld.d.ServingPrimaries {
			c := ld.apps[id].applies.Load()
			if i == 0 {
				n = c
			} else if c != n {
				equal = false
			}
		}
		if !equal || n != last {
			last, stableSince = n, time.Now()
		} else if time.Since(stableSince) >= settleQuiet {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// liveResult is what one live run measured and checked.
type liveResult struct {
	setups []time.Duration

	readLat, updLat []time.Duration // open loop, due instant to reply
	reads, missed   int             // open-loop reads attempted, and missed d or failed
	cpuPerOp        time.Duration   // process CPU time per request due, median over cpuWindow windows
	peakRSS         float64         // MB, peak so far when the open loop has drained
	replicasPerRead float64
	attempted       int64
	failed          int64
	lags            []time.Duration
	problems        []string

	// Traced runs only.
	sum        *summary
	window     time.Duration
	reg        *obs.Registry
	timers     []time.Duration
	updates    int64 // completed Sets
	walBytes   uint64
	walAppends uint64
	walSyncs   uint64
	tr         *tracer
}

// runLive deploys the workload setups times (keeping the last deployment),
// runs the open loop on it, drains, tears down and checks the outputs.
func runLive(w liveWorkload, o liveOpts, setups int) (*liveResult, error) {
	res := &liveResult{}
	var ld *liveDeployment
	for i := 0; i < setups; i++ {
		var err error
		ld, err = deployLive(w, o, i)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, ld.setup)
		if i < setups-1 {
			ld.teardown()
		}
	}
	defer ld.teardown()

	n := len(ld.gens)
	arr := schedule(o.seed, w.rate, w.readFrac, o.warmup+o.openFor, n)
	if ld.tr != nil {
		ld.tr.on.Store(true)
	}
	traceStart := time.Now()
	t0 := time.Now().Add(2 * time.Millisecond)
	for i, g := range ld.gens {
		ld.rtC.Inject("bench", g.id, openCtl{t0: t0, arr: arr[i]})
	}
	// Process CPU is read at the edges of equal windows of the measured
	// phase; a burst of host contention or a GC cycle moves one window's
	// CPU per request, not their median.
	windows := int(o.openFor / cpuWindow)
	if windows < 1 {
		windows = 1
	}
	win := o.openFor / time.Duration(windows)
	cpuMarks := make([]time.Duration, windows+1)
	for k := range cpuMarks {
		time.Sleep(time.Until(t0.Add(o.warmup + time.Duration(k)*win)))
		cpuMarks[k] = cpuTime()
	}
	ld.drain(drainTimeout)
	res.peakRSS = peakRSSMB()
	window := time.Since(traceStart)
	if ld.tr != nil {
		ld.tr.on.Store(false)
	}
	// Silence the clients first: a gateway still retransmitting an
	// unanswered request would otherwise race the replicas' shutdown.
	ld.rtC.Stop()
	ld.trC.Close()
	settled := ld.settle(drainTimeout)
	ld.teardown()

	// Every gen is quiescent now: the runtime has stopped its goroutine.
	windowOps := make([]int, windows)
	for i, g := range ld.gens {
		res.attempted += g.attempted
		res.failed += g.failed + g.outstanding.Load()
		res.lags = append(res.lags, g.lags...)
		for j, a := range arr[i] {
			if a.at < o.warmup || j >= len(g.recs) {
				continue
			}
			windowOps[min(int((a.at-o.warmup)/win), windows-1)]++
			r := g.recs[j]
			ok := r.done && !r.failed
			if a.read {
				res.reads++
				if !ok || r.lat > liveDeadline {
					res.missed++
				}
				if ok {
					res.readLat = append(res.readLat, r.lat)
				}
			} else if ok {
				res.updLat = append(res.updLat, r.lat)
			}
		}
	}
	var perOp []float64
	for k, n := range windowOps {
		if n > 0 {
			perOp = append(perOp, float64(cpuMarks[k+1]-cpuMarks[k])/float64(n))
		}
	}
	res.cpuPerOp = time.Duration(median(perOp))
	var reads, selected int
	for _, g := range ld.gens {
		m := g.gw.Metrics()
		reads += m.Reads
		selected += m.SelectedTotal
	}
	res.replicasPerRead = ratio(float64(selected), float64(reads))
	res.problems = ld.check(settled)

	if ld.tr != nil {
		res.sum = ld.tr.summarize()
		res.window = window
		res.reg = ld.reg
		res.timers = ld.probe.late
		res.tr = ld.tr
		for _, g := range ld.gens {
			res.updates += int64(len(g.versions))
		}
		for _, m := range ld.medias {
			res.walAppends += m.appends.Load()
			res.walBytes += m.bytes.Load()
			res.walSyncs += m.Media.Syncs()
		}
	}
	return res, nil
}

// check runs the output checks on a stopped deployment: serving primaries
// agree on CSN and on byte-identical application snapshots, every Set reply
// version is unique, and (traced) the protocol oracles hold.
func (ld *liveDeployment) check(settled bool) []string {
	var problems []string
	if !settled {
		problems = append(problems, "serving primaries did not settle on one applied count")
	}
	problems = append(problems, convergence(ld.d)...)
	var versions []string
	for _, g := range ld.gens {
		versions = append(versions, g.versions...)
	}
	problems = append(problems, uniqueVersions(versions)...)
	if ld.rec != nil {
		problems = append(problems, oracleProblems(ld.rec.rec.Events())...)
	}
	return problems
}

// slowLink wraps a remote sender and delivers the fault link's messages
// faultLinkDelay late, in order, from its own goroutine.
type slowLink struct {
	inner func(from, to node.ID, m node.Message)
	q     chan delayedMsg
	done  chan struct{}
}

type delayedMsg struct {
	at       time.Time
	from, to node.ID
	m        node.Message
}

// slowLinkQueue bounds the delayed messages in flight; the generator sends
// the fault link far fewer than this many messages per faultLinkDelay.
const slowLinkQueue = 4096

func newSlowLink(inner func(from, to node.ID, m node.Message)) *slowLink {
	l := &slowLink{inner: inner, q: make(chan delayedMsg, slowLinkQueue), done: make(chan struct{})}
	go l.run()
	return l
}

func (l *slowLink) send(from, to node.ID, m node.Message) {
	if from != faultFrom || to != faultTo {
		l.inner(from, to, m)
		return
	}
	l.q <- delayedMsg{at: time.Now().Add(faultLinkDelay), from: from, to: to, m: m}
}

func (l *slowLink) run() {
	defer close(l.done)
	for d := range l.q {
		time.Sleep(time.Until(d.at))
		l.inner(d.from, d.to, d.m)
	}
}

// stop delivers what is queued and waits for the goroutine; call it once
// the runtime that sends on the link has stopped.
func (l *slowLink) stop() {
	close(l.q)
	<-l.done
}

// fsyncProbe times bare append+fsync calls on a fresh wal.FileMedia in dir
// and returns their median in microseconds, so a slow disk can be told
// apart from a slow change.
func fsyncProbe(dir string, n int) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	m, err := wal.NewFileMedia(dir)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	rec := bytes.Repeat([]byte{'r'}, 256)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := m.AppendLog(rec); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t))/1e3)
	}
	return median(us), nil
}
