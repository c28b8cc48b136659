// Package repository implements the client gateway's information repository
// (Section 5.4): sliding-window histories of each replica's measured
// service time, queueing delay, and defer wait; the latest gateway delay
// and elapsed response time per replica; and the lazy publisher's
// update-arrival statistics from which the staleness model derives λu and
// t_l.
//
// Distribution computation is the dominant cost of every read (Figure 3),
// so the repository memoizes it: each History carries a monotonic
// generation counter bumped by every mutation, and the computed
// ImmediatePMF/DeferredPMF are cached keyed by (generation, bin width, and
// — when it is actually used — the fallback lazy-update wait). Reads that
// arrive between performance broadcasts reuse the previous distributions
// instead of reconvolving; all rebuilds run through shared scratch buffers
// so even cache misses allocate only when a cached PMF needs to grow.
package repository

import (
	"time"

	"aqua/internal/node"
	"aqua/internal/stats"
)

// NeverReplied is the elapsed-response-time reported for replicas that have
// never answered this client. It is large so Algorithm 1's decreasing-ert
// sort probes unknown replicas first, seeding their histories.
const NeverReplied = time.Duration(1<<62 - 1)

// pmfCache memoizes one computed distribution for a History.
type pmfCache struct {
	valid    bool
	gen      uint64
	binWidth time.Duration
	// usedFallback/fallbackU key the deferred distribution only: the
	// fallback estimate participates in the result only while the replica
	// has no defer-wait history.
	usedFallback bool
	fallbackU    time.Duration
	pmf          stats.PMF
}

func (c *pmfCache) hit(gen uint64, binWidth time.Duration, usedFallback bool, fallbackU time.Duration) bool {
	return c.valid && c.gen == gen && c.binWidth == binWidth &&
		c.usedFallback == usedFallback && (!usedFallback || c.fallbackU == fallbackU)
}

// History holds one replica's recorded performance, as seen by one client.
type History struct {
	s *stats.Window // service times ts
	w *stats.Window // queueing delays tq
	u *stats.Window // defer waits tb (lazy-update wait U)

	gateway    time.Duration // latest two-way gateway delay tg
	hasGateway bool

	lastReply    time.Time // for ert
	hasLastReply bool

	// gen is bumped by every mutation that can change this replica's
	// distributions; it keys the memoized pmfs below.
	gen      uint64
	immed    pmfCache
	deferred pmfCache
}

// Repository is one client's store. It is used only from within the owning
// client gateway's callbacks, so it needs no locking (the scratch buffers
// below rely on that).
type Repository struct {
	windowSize int
	replicas   map[node.ID]*History

	// gen counts every mutation of the repository — replica histories and
	// publisher state alike. Model-level caches (e.g. the selection sort
	// order) key on it.
	gen uint64

	// binPairs counts the bin pairs multiplied by every distribution
	// rebuild: the product of the two operands' supports per convolution.
	binPairs uint64

	// Publisher-fed staleness inputs.
	rateCounts    []int           // sliding window of nu
	rateDurations []time.Duration // matching tu
	lastNL        int
	lastTL        time.Duration
	lastPubAt     time.Time
	hasPublisher  bool

	// Scratch buffers for the allocation-free distribution kernels. Only
	// live within one Immediate/DeferredPMF call.
	scratch struct {
		samples []time.Duration
		raw     stats.PMF // exact empirical pmf of one window
		opA     stats.PMF // first binned convolution operand
		opB     stats.PMF // second binned operand (or fallback point)
		conv    stats.PMF // convolution result before the final bin
		kernel  stats.ConvScratch
	}
}

// New creates a repository whose sliding windows hold windowSize samples
// (the paper's l; its experiments use 10 and 20).
func New(windowSize int) *Repository {
	if windowSize <= 0 {
		panic("repository: window size must be positive")
	}
	return &Repository{
		windowSize: windowSize,
		replicas:   make(map[node.ID]*History),
	}
}

// WindowSize returns l.
func (r *Repository) WindowSize() int { return r.windowSize }

// Generation returns a counter bumped by every mutation of the repository.
// Callers that cache anything derived from repository state can key their
// caches on it.
func (r *Repository) Generation() uint64 { return r.gen }

// BinPairs returns the convolution work done so far: the bin pairs
// multiplied by every ImmediatePMF/DeferredPMF rebuild. Cache hits add
// nothing, so it measures exactly the work the PMF cache did not save, and
// unlike a wall-clock timing it is deterministic.
func (r *Repository) BinPairs() uint64 { return r.binPairs }

func (r *Repository) history(id node.ID) *History {
	h, ok := r.replicas[id]
	if !ok {
		h = &History{
			s: stats.NewWindow(r.windowSize),
			w: stats.NewWindow(r.windowSize),
			u: stats.NewWindow(r.windowSize),
		}
		r.replicas[id] = h
	}
	return h
}

// RecordPerf stores a performance broadcast's service time and queueing
// delay for a replica.
func (r *Repository) RecordPerf(id node.ID, ts, tq time.Duration) {
	h := r.history(id)
	h.s.Push(ts)
	h.w.Push(tq)
	h.gen++
	r.gen++
}

// RecordDeferWait stores a deferred read's buffering time tb, the history
// of the lazy-update wait U.
func (r *Repository) RecordDeferWait(id node.ID, tb time.Duration) {
	h := r.history(id)
	h.u.Push(tb)
	h.gen++
	r.gen++
}

// RecordReply stores the gateway delay derived from a reply and refreshes
// the replica's last-reply instant (the basis of ert).
func (r *Repository) RecordReply(id node.ID, tg time.Duration, now time.Time) {
	if tg < 0 {
		// Clock arithmetic can go slightly negative when the piggybacked
		// t1 rounds above the true gap; clamp rather than poison the model.
		tg = 0
	}
	h := r.history(id)
	h.gateway = tg
	h.hasGateway = true
	h.lastReply = now
	h.hasLastReply = true
	h.gen++
	r.gen++
}

// ERT returns the elapsed response time for a replica: the time since this
// client last received any reply from it, or NeverReplied.
func (r *Repository) ERT(id node.ID, now time.Time) time.Duration {
	h, ok := r.replicas[id]
	if !ok || !h.hasLastReply {
		return NeverReplied
	}
	return now.Sub(h.lastReply)
}

// HasHistory reports whether any service-time measurements exist for id.
func (r *Repository) HasHistory(id node.ID) bool {
	h, ok := r.replicas[id]
	return ok && h.s.Len() > 0
}

// windowPMFInto builds the binned empirical PMF of one sliding window into
// dst through the shared scratch buffers.
func (r *Repository) windowPMFInto(dst *stats.PMF, w *stats.Window, binWidth time.Duration) {
	r.scratch.samples = w.AppendSamples(r.scratch.samples[:0])
	stats.FromSamplesInto(&r.scratch.raw, r.scratch.samples)
	r.scratch.raw.BinInto(dst, binWidth)
}

// ImmediatePMF builds the response-time distribution for an immediate read,
// Equation 5: R = S + W + G, as the discrete convolution of the S and W
// windows shifted by the latest gateway delay. binWidth coarsens the
// intermediate pmfs to bound convolution cost (0 disables binning). The
// zero PMF is returned when no history exists.
//
// The result is memoized per replica: repeated calls between repository
// mutations return the cached distribution. Callers must treat the
// returned PMF as read-only.
func (r *Repository) ImmediatePMF(id node.ID, binWidth time.Duration) stats.PMF {
	h, ok := r.replicas[id]
	if !ok || h.s.Len() == 0 {
		return stats.PMF{}
	}
	if h.immed.hit(h.gen, binWidth, false, 0) {
		return h.immed.pmf
	}
	sc := &r.scratch
	r.windowPMFInto(&sc.opA, h.s, binWidth)
	r.windowPMFInto(&sc.opB, h.w, binWidth)
	r.binPairs += uint64(sc.opA.Len() * sc.opB.Len())
	stats.ConvolveInto(&sc.conv, sc.opA, sc.opB, &sc.kernel)
	sc.conv.BinInto(&h.immed.pmf, binWidth)
	if h.hasGateway {
		h.immed.pmf.ShiftInPlace(h.gateway)
	}
	h.immed = pmfCache{valid: true, gen: h.gen, binWidth: binWidth, pmf: h.immed.pmf}
	return h.immed.pmf
}

// DeferredPMF builds the deferred-read distribution, Equation 6:
// R = S + W + G + U. When no defer-wait history exists, fallbackU (the
// client's point estimate of the remaining time to the next lazy update)
// substitutes for the U history.
//
// Memoized like ImmediatePMF; fallbackU enters the cache key only while it
// actually substitutes for an empty U window. Callers must treat the
// returned PMF as read-only.
func (r *Repository) DeferredPMF(id node.ID, binWidth, fallbackU time.Duration) stats.PMF {
	h, ok := r.replicas[id]
	if !ok || h.s.Len() == 0 {
		return stats.PMF{}
	}
	usedFallback := h.u.Len() == 0
	if h.deferred.hit(h.gen, binWidth, usedFallback, fallbackU) {
		return h.deferred.pmf
	}
	base := r.ImmediatePMF(id, binWidth)
	sc := &r.scratch
	if usedFallback {
		stats.PointInto(&sc.opB, fallbackU)
	} else {
		r.windowPMFInto(&sc.opB, h.u, binWidth)
	}
	r.binPairs += uint64(base.Len() * sc.opB.Len())
	stats.ConvolveInto(&sc.conv, base, sc.opB, &sc.kernel)
	sc.conv.BinInto(&h.deferred.pmf, binWidth)
	h.deferred = pmfCache{
		valid: true, gen: h.gen, binWidth: binWidth,
		usedFallback: usedFallback, fallbackU: fallbackU,
		pmf: h.deferred.pmf,
	}
	return h.deferred.pmf
}

// RecordPublisherRates stores one <nu, tu> pair from a lazy-publisher
// broadcast into the rate window.
func (r *Repository) RecordPublisherRates(nu int, tu time.Duration) {
	if tu <= 0 {
		return
	}
	r.rateCounts = append(r.rateCounts, nu)
	r.rateDurations = append(r.rateDurations, tu)
	if len(r.rateCounts) > r.windowSize {
		r.rateCounts = r.rateCounts[1:]
		r.rateDurations = r.rateDurations[1:]
	}
	r.gen++
}

// RecordLazyInfo stores the latest <nL, tL> pair and the local reception
// instant of the broadcast that carried it.
func (r *Repository) RecordLazyInfo(nl int, tl time.Duration, receivedAt time.Time) {
	r.lastNL = nl
	r.lastTL = tl
	r.lastPubAt = receivedAt
	r.hasPublisher = true
	r.gen++
}

// HasPublisherInfo reports whether any lazy-publisher broadcast arrived.
func (r *Repository) HasPublisherInfo() bool { return r.hasPublisher }

// UpdateRate returns λu in updates per second: Σnu / Σtu over the sliding
// window (Section 5.4.1), or 0 with no data.
func (r *Repository) UpdateRate() float64 {
	var n int
	var d time.Duration
	for i, c := range r.rateCounts {
		n += c
		d += r.rateDurations[i]
	}
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// TimeSinceLazyUpdate estimates t_l, the time elapsed since the last lazy
// update, as (tL + tz) mod TL where tz is the time since the latest
// publisher broadcast arrived (Section 5.4.1). ok is false when no
// publisher information has been received yet.
func (r *Repository) TimeSinceLazyUpdate(now time.Time, lazyInterval time.Duration) (time.Duration, bool) {
	if !r.hasPublisher || lazyInterval <= 0 {
		return 0, false
	}
	tz := now.Sub(r.lastPubAt)
	if tz < 0 {
		tz = 0
	}
	return (r.lastTL + tz) % lazyInterval, true
}

// LastLazyCount returns the publisher's last reported nL (updates since the
// last lazy update), for diagnostics and the counted-staleness estimator
// extension.
func (r *Repository) LastLazyCount() int { return r.lastNL }

// SincePublisherReport returns the time elapsed since the most recent
// publisher broadcast arrived (t_z) together with the n_L it carried. ok is
// false before any broadcast.
func (r *Repository) SincePublisherReport(now time.Time) (tz time.Duration, nl int, ok bool) {
	if !r.hasPublisher {
		return 0, 0, false
	}
	tz = now.Sub(r.lastPubAt)
	if tz < 0 {
		tz = 0
	}
	return tz, r.lastNL, true
}
