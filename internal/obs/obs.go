// Package obs is the observability subsystem: an allocation-conscious
// metrics registry (counters, gauges, fixed-bucket histograms) and a JSONL
// request tracer shared by both runtimes — virtual time in internal/sim and
// wall time in internal/live.
//
// Design contract (the "zero cost when disabled" rule every instrumented
// hot path relies on):
//
//   - A nil *Registry hands out nil instruments, and every instrument
//     method is a nil-safe no-op. Instrumented code therefore never
//     branches on "is observability on": it just calls c.Inc() and the
//     disabled path costs one nil check and zero allocations.
//   - Instruments only record; they never read clocks, draw randomness, or
//     schedule work. Enabling them cannot perturb a deterministic
//     virtual-time run — the simulator's event order is identical with
//     metrics on or off (enforced by the experiment package's determinism
//     test).
//   - Updates are atomic, so one registry may be shared by the live
//     runtime's node goroutines, a parallel experiment sweep's workers, and
//     a concurrent Prometheus scrape.
//
// Instruments are interned by (name, labels): asking twice returns the same
// instrument, so gateways resolve theirs once at Init and hold pointers.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind distinguishes instrument types in snapshots.
type Kind int

const (
	KindCounter Kind = iota + 1
	KindGauge
	KindFloatCounter
	KindFloatGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter, KindFloatCounter:
		return "counter"
	case KindGauge, KindFloatGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. Safe on nil.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on nil.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable integer.
type Gauge struct{ v atomic.Int64 }

// Set stores n. Safe on nil.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by delta. Safe on nil.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatCounter is a monotonically increasing float (e.g. a sum of predicted
// probabilities). Adds use a CAS loop over the float's bit pattern.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates f. Safe on nil.
func (c *FloatCounter) Add(f float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + f)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated sum (0 on nil).
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// FloatGauge is a settable float (e.g. an observed failure rate).
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores f. Safe on nil.
func (g *FloatGauge) Set(f float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(f))
	}
}

// Value returns the current value (0 on nil).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (upper bounds,
// ascending) plus an overflow bucket. Bounds are fixed at creation so
// Observe never allocates.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sum     FloatCounter
}

// Observe records v. Safe on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (≤ ~16) and almost always hit an
	// early bound, which beats binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// LatencyBucketsMS is the default latency bucket layout, in milliseconds —
// wide enough for both the sub-millisecond simulated network and multi-
// second deferred-read waits. The sub-100µs bounds at the bottom keep the
// group-commit fast path (which serves frontier reads in ~0 service time)
// distinguishable from ordinary sub-millisecond serves instead of lumping
// everything below 1ms into one bucket.
func LatencyBucketsMS() []float64 {
	return []float64{0.025, 0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 20, 50, 100, 150, 200, 300, 500, 1000, 2000, 5000}
}

// DepthBuckets is the default layout for queue depths and staleness counts.
func DepthBuckets() []float64 {
	return []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}
}

// metric is one registered instrument with its identity.
type metric struct {
	name   string
	labels []string // alternating key, value
	kind   Kind

	counter   *Counter
	gauge     *Gauge
	fcounter  *FloatCounter
	fgauge    *FloatGauge
	histogram *Histogram
}

// Registry holds instruments. The zero value is not usable; call
// NewRegistry. A nil *Registry is the disabled state: every accessor
// returns nil and Snapshot returns nothing.
//
// A Registry may also be a labelled view of another registry (see
// WithLabels): views own no instruments — they delegate to their root with
// the view's base labels prepended — so a view and its root always agree.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*metric
	ordered []*metric

	// root/base make this registry a labelled view: every instrument
	// request is forwarded to root with base prepended to the caller's
	// labels. Nil root means this registry owns its instruments.
	root *Registry
	base []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// WithLabels returns a view of this registry that prepends the given
// key/value label pairs to every instrument created through it. Multiple
// deployments sharing one runtime each take a view (e.g. "shard", "2") so
// their otherwise identically named instruments stay distinct in /metrics
// instead of silently aggregating. Views chain (labels accumulate) and all
// share the root's instrument table; Snapshot and WritePrometheus on a view
// render the whole root. Returns nil on a nil registry, preserving the
// disabled-observability contract.
func (r *Registry) WithLabels(labels ...string) *Registry {
	if r == nil {
		return nil
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: WithLabels: labels must be key/value pairs, got %d strings", len(labels)))
	}
	root, base := r, []string(nil)
	if r.root != nil {
		root, base = r.root, r.base
	}
	merged := make([]string, 0, len(base)+len(labels))
	merged = append(merged, base...)
	merged = append(merged, labels...)
	return &Registry{root: root, base: merged}
}

// withBase prepends the view's base labels (no-op on a root registry).
func (r *Registry) withBase(labels []string) []string {
	if len(r.base) == 0 {
		return labels
	}
	merged := make([]string, 0, len(r.base)+len(labels))
	merged = append(merged, r.base...)
	merged = append(merged, labels...)
	return merged
}

// metricKey builds the interning key. Labels keep caller order (call sites
// are consistent); the key embeds it verbatim.
func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	k := name
	for _, l := range labels {
		k += "\x00" + l
	}
	return k
}

// intern returns the instrument registered under (name, labels), creating
// it under the lock on first use so concurrent first callers all get the
// same one. A view forwards to its root with its base labels prepended.
// bounds applies to histograms only.
func (r *Registry) intern(name string, kind Kind, bounds []float64, labels []string) *metric {
	if r.root != nil {
		return r.root.intern(name, kind, bounds, r.withBase(labels))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: %s: labels must be key/value pairs, got %d strings", name, len(labels)))
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: %s re-registered as %v, was %v", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, labels: append([]string(nil), labels...), kind: kind}
	switch kind {
	case KindCounter:
		m.counter = new(Counter)
	case KindGauge:
		m.gauge = new(Gauge)
	case KindFloatCounter:
		m.fcounter = new(FloatCounter)
	case KindFloatGauge:
		m.fgauge = new(FloatGauge)
	case KindHistogram:
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.buckets = make([]atomic.Uint64, len(h.bounds)+1)
		m.histogram = h
	}
	r.byKey[key] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns (creating if needed) the named counter. labels are
// alternating key/value pairs. Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.intern(name, KindCounter, nil, labels).counter
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.intern(name, KindGauge, nil, labels).gauge
}

// FloatCounter returns (creating if needed) the named float counter.
func (r *Registry) FloatCounter(name string, labels ...string) *FloatCounter {
	if r == nil {
		return nil
	}
	return r.intern(name, KindFloatCounter, nil, labels).fcounter
}

// FloatGauge returns (creating if needed) the named float gauge.
func (r *Registry) FloatGauge(name string, labels ...string) *FloatGauge {
	if r == nil {
		return nil
	}
	return r.intern(name, KindFloatGauge, nil, labels).fgauge
}

// Histogram returns (creating if needed) the named histogram with the given
// bucket upper bounds (ascending). Bounds are fixed by the first caller;
// later callers get the same instrument.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.intern(name, KindHistogram, bounds, labels).histogram
}

// Bucket is one histogram bucket in a snapshot: the cumulative count of
// observations ≤ UpperBound (Prometheus "le" semantics).
type Bucket struct {
	UpperBound float64 // +Inf for the overflow bucket
	Cumulative uint64
}

// Sample is one instrument's state at snapshot time.
type Sample struct {
	Name   string
	Labels []string // alternating key, value
	Kind   Kind

	// Value holds the counter/gauge reading (integer kinds are widened).
	Value float64
	// Histogram data; nil for scalar kinds.
	Buckets []Bucket
	Count   uint64
	Sum     float64
}

// Snapshot captures every instrument, sorted by name then labels, so two
// snapshots of identically wired registries render identically. Returns nil
// on a nil registry.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	if r.root != nil {
		return r.root.Snapshot()
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.ordered...)
	r.mu.Unlock()

	out := make([]Sample, 0, len(metrics))
	for _, m := range metrics {
		s := Sample{Name: m.name, Labels: m.labels, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.counter.Value())
		case KindGauge:
			s.Value = float64(m.gauge.Value())
		case KindFloatCounter:
			s.Value = m.fcounter.Value()
		case KindFloatGauge:
			s.Value = m.fgauge.Value()
		case KindHistogram:
			h := m.histogram
			var cum uint64
			s.Buckets = make([]Bucket, 0, len(h.buckets))
			for i := range h.buckets {
				cum += h.buckets[i].Load()
				ub := math.Inf(1)
				if i < len(h.bounds) {
					ub = h.bounds[i]
				}
				s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, Cumulative: cum})
			}
			s.Count = h.count.Load()
			s.Sum = h.sum.Value()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelsLess(out[i].Labels, out[j].Labels)
	})
	return out
}

func labelsLess(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
