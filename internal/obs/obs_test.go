package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeFloat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "node", "p01")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "node", "p01"); again != c {
		t.Fatal("same name+labels must intern to the same counter")
	}
	if other := r.Counter("c_total", "node", "p02"); other == c {
		t.Fatal("different labels must intern to a different counter")
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}

	f := r.FloatCounter("f_sum")
	f.Add(0.25)
	f.Add(0.5)
	if got := f.Value(); got != 0.75 {
		t.Fatalf("float counter = %v, want 0.75", got)
	}

	fg := r.FloatGauge("rate")
	fg.Set(0.125)
	if got := fg.Value(); got != 0.125 {
		t.Fatalf("float gauge = %v, want 0.125", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %v, want 556.5", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d samples, want 1", len(snap))
	}
	s := snap[0]
	wantCum := []uint64{2, 3, 4, 5} // ≤1, ≤10, ≤100, +Inf
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %d, want %d", len(s.Buckets), len(wantCum))
	}
	for i, b := range s.Buckets {
		if b.Cumulative != wantCum[i] {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, b.Cumulative, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].UpperBound, 1) {
		t.Fatal("last bucket must be +Inf")
	}
}

func TestNilRegistryAndInstrumentsAreZeroAllocNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	f := r.FloatCounter("x")
	fg := r.FloatGauge("x")
	h := r.Histogram("x", LatencyBucketsMS())
	var tr *Tracer
	sub := tr.WithRun("run", time.Time{})

	if c != nil || g != nil || f != nil || fg != nil || h != nil || sub != nil {
		t.Fatal("nil registry/tracer must hand out nil instruments")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry exposition = %q, %v; want empty, nil", buf.String(), err)
	}

	var span Span
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(1)
		f.Add(0.5)
		fg.Set(0.5)
		h.Observe(2)
		tr.Record(time.Time{}, &span)
		_ = tr.Flush()
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocated %.1f/op, want 0", allocs)
	}
}

func TestEnabledInstrumentUpdatesAreAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", DepthBuckets())
	f := r.FloatCounter("f")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(3)
		f.Add(0.25)
	})
	if allocs != 0 {
		t.Fatalf("enabled instrument updates allocated %.1f/op, want 0", allocs)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("aqua_reads_total", "client", "c01").Add(3)
	r.FloatGauge("aqua_failure_rate", "client", "c01").Set(0.25)
	r.Histogram("aqua_lat_ms", []float64{10, 100}, "client", "c01").Observe(42)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE aqua_reads_total counter",
		`aqua_reads_total{client="c01"} 3`,
		`aqua_failure_rate{client="c01"} 0.25`,
		`aqua_lat_ms_bucket{client="c01",le="10"} 0`,
		`aqua_lat_ms_bucket{client="c01",le="100"} 1`,
		`aqua_lat_ms_bucket{client="c01",le="+Inf"} 1`,
		`aqua_lat_ms_sum{client="c01"} 42`,
		`aqua_lat_ms_count{client="c01"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	f := r.FloatCounter("f")
	h := r.Histogram("h", []float64{5})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				f.Add(1)
				h.Observe(float64(i % 10))
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if f.Value() != workers*per {
		t.Fatalf("float counter = %v, want %d", f.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

// TestConcurrentCreation is the first-use race: goroutines creating the same
// instrument on a fresh registry must all get one instrument, so no
// increment lands on a copy that is then lost.
func TestConcurrentCreation(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			r.Counter("x").Inc()
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("registry holds %d instruments, want 1", len(snap))
	}
	if got := r.Counter("x").Value(); got != workers {
		t.Fatalf("counter = %d, want %d", got, workers)
	}
}

func TestTracerJSONL(t *testing.T) {
	var buf bytes.Buffer
	epoch := time.Date(2002, time.June, 23, 0, 0, 0, 0, time.UTC)
	tr := NewTracer(&buf, epoch)
	run := tr.WithRun("fig4 d=140ms", epoch)
	run.Record(epoch.Add(1500*time.Millisecond), &Span{
		Kind: "read", Client: "c01", Seq: 7, Replica: "p02",
		Predicted: 0.93, Deferred: true, ResponseMS: 120.5,
	})
	tr.Record(epoch.Add(2*time.Second), &Span{Kind: "serve_read", Node: "s00"})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var s Span
	if err := json.Unmarshal([]byte(lines[0]), &s); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if s.Run != "fig4 d=140ms" || s.TMS != 1500 || s.Replica != "p02" || !s.Deferred {
		t.Fatalf("span round-trip mismatch: %+v", s)
	}
	var s2 Span
	if err := json.Unmarshal([]byte(lines[1]), &s2); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if s2.Run != "" || s2.TMS != 2000 {
		t.Fatalf("base tracer span mismatch: %+v", s2)
	}
}

func TestWithLabels(t *testing.T) {
	r := NewRegistry()
	v := r.WithLabels("shard", "1")
	v.Counter("req_total", "node", "p00").Add(3)
	// The view interns into the root with the base labels prepended: the
	// fully qualified lookup on the root must reach the same instrument.
	if got := r.Counter("req_total", "shard", "1", "node", "p00").Value(); got != 3 {
		t.Fatalf("root sees %d, want 3", got)
	}
	// Same name through a different view (or none) is a distinct series.
	r.Counter("req_total", "node", "p00").Inc()
	r.WithLabels("shard", "2").Counter("req_total", "node", "p00").Add(7)
	if got := r.Counter("req_total", "shard", "1", "node", "p00").Value(); got != 3 {
		t.Fatalf("series collided across views: %d", got)
	}

	// Views chain: labels accumulate left to right.
	vv := v.WithLabels("role", "primary")
	vv.Gauge("csn").Set(9)
	if got := r.Gauge("csn", "shard", "1", "role", "primary").Value(); got != 9 {
		t.Fatalf("chained view gauge = %d, want 9", got)
	}

	// Snapshot delegates to the root: the view exposes everything.
	if got, want := len(v.Snapshot()), len(r.Snapshot()); got != want {
		t.Fatalf("view snapshot has %d samples, root %d", got, want)
	}

	// Histograms keep their bounds through the view.
	v.Histogram("lat", []float64{1, 10}).Observe(5)
	if h := r.Histogram("lat", []float64{1, 10}, "shard", "1"); h.Count() != 1 {
		t.Fatalf("view histogram count = %d, want 1", h.Count())
	}

	// A nil registry's view is still a nil no-op.
	var nilReg *Registry
	nv := nilReg.WithLabels("shard", "0")
	if nv != nil {
		t.Fatal("nil registry view must be nil")
	}
	nv.Counter("x").Inc() // must not panic
}
