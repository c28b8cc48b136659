package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"aqua/internal/node"
	"aqua/internal/qos"
	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/stats"
)

// Fig3Point is one bar of Figure 3: the wall-clock overhead of one
// selection (distribution computation + Algorithm 1) for a given number of
// available replicas and sliding-window size.
//
// The paper's clients receive a performance broadcast between reads, so
// each selection recomputes a changed replica's distributions. The cold
// measurements model that: one replica's history is dirtied (RecordPerf)
// before every selection. The warm ones never change the repository, so
// after the first call every selection is a PMF cache hit.
type Fig3Point struct {
	Replicas int
	Window   int
	Iters    int // selections timed per measurement
	// Overhead is the mean time per cold selection.
	Overhead time.Duration
	// ModelShare is the fraction of the cold overhead spent computing the
	// response-time distributions (the paper reports ≈90%).
	ModelShare float64
	// BinPairs is the convolution work of the timed cold selections, as
	// repository.BinPairs counts it. Unlike Overhead it is deterministic.
	BinPairs uint64
	// WarmOverhead and WarmBinPairs are the same measurements against the
	// unchanging repository; WarmBinPairs is 0, since nothing is rebuilt.
	WarmOverhead time.Duration
	WarmBinPairs uint64
}

// SeedRepository fills a repository with plausible measurement history for
// n replicas (half primary, half secondary), mimicking a warmed-up client.
// It returns the primary and secondary ID lists.
func SeedRepository(repo *repository.Repository, n int, windowSize int, rng *rand.Rand, now time.Time) (primaries, secondaries []node.ID) {
	nPrim := n / 2
	for i := 0; i < n; i++ {
		id := node.ID(fmt.Sprintf("r%02d", i))
		if i < nPrim {
			primaries = append(primaries, id)
		} else {
			secondaries = append(secondaries, id)
		}
		for k := 0; k < windowSize; k++ {
			ts := stats.TruncNormalDuration(rng, 100*time.Millisecond, 50*time.Millisecond, 0)
			tq := stats.TruncNormalDuration(rng, 10*time.Millisecond, 5*time.Millisecond, 0)
			repo.RecordPerf(id, ts, tq)
			if i >= nPrim {
				tb := stats.TruncNormalDuration(rng, 2*time.Second, time.Second, 0)
				repo.RecordDeferWait(id, tb)
			}
		}
		tg := stats.TruncNormalDuration(rng, 2*time.Millisecond, 500*time.Microsecond, 0)
		repo.RecordReply(id, tg, now.Add(-time.Duration(i)*time.Second))
	}
	for k := 0; k < windowSize; k++ {
		repo.RecordPublisherRates(2+rng.Intn(3), 2*time.Second)
	}
	repo.RecordLazyInfo(1, time.Second, now.Add(-500*time.Millisecond))
	return primaries, secondaries
}

// RunFig3Point measures the selection overhead for one (replicas, window)
// configuration by timing iters selections against a warmed repository,
// cold and warm.
func RunFig3Point(replicas, windowSize, iters int, seed int64) Fig3Point {
	rng := rand.New(rand.NewSource(seed))
	now := time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC)
	repo := repository.New(windowSize)
	prim, sec := SeedRepository(repo, replicas, windowSize, rng, now)
	ids := append(append([]node.ID(nil), prim...), sec...)
	// The broadcasts that dirty one replica per cold selection are drawn up
	// front, so the timed loops only record them.
	perf := make([][2]time.Duration, iters)
	for i := range perf {
		perf[i][0] = stats.TruncNormalDuration(rng, 100*time.Millisecond, 50*time.Millisecond, 0)
		perf[i][1] = stats.TruncNormalDuration(rng, 10*time.Millisecond, 5*time.Millisecond, 0)
	}

	model := selection.Model{BinWidth: 2 * time.Millisecond, LazyInterval: 4 * time.Second}
	spec := qos.Spec{Staleness: 2, Deadline: 150 * time.Millisecond, MinProb: 0.9}
	selector := selection.Algorithm1{}
	model.Evaluate(repo, prim, sec, "seq", spec, now) // build every cache once

	// timed runs iters model evaluations, each followed by Algorithm 1 when
	// full, and returns the elapsed time and the bin pairs convolved.
	timed := func(cold, full bool) (time.Duration, uint64) {
		pairs := repo.BinPairs()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if cold {
				repo.RecordPerf(ids[i%len(ids)], perf[i][0], perf[i][1])
			}
			in := model.Evaluate(repo, prim, sec, "seq", spec, now)
			if full {
				selector.Select(in)
			}
		}
		return time.Since(start), repo.BinPairs() - pairs
	}
	full, pairs := timed(true, true)
	modelOnly, _ := timed(true, false) // attributes the cold overhead
	warm, warmPairs := timed(false, true)

	p := Fig3Point{
		Replicas:     replicas,
		Window:       windowSize,
		Iters:        iters,
		Overhead:     full / time.Duration(iters),
		BinPairs:     pairs,
		WarmOverhead: warm / time.Duration(iters),
		WarmBinPairs: warmPairs,
	}
	if full > 0 {
		share := float64(modelOnly) / float64(full)
		if share > 1 {
			share = 1
		}
		p.ModelShare = share
	}
	return p
}

// RunFig3 regenerates the Figure 3 series: overhead vs available replicas
// for each window size.
func RunFig3(replicaCounts, windows []int, iters int, seed int64) []Fig3Point {
	var out []Fig3Point
	for _, w := range windows {
		for _, n := range replicaCounts {
			out = append(out, RunFig3Point(n, w, iters, seed))
		}
	}
	return out
}

// DefaultFig3ReplicaCounts is the paper's x-axis: 2 through 10 replicas.
func DefaultFig3ReplicaCounts() []int { return []int{2, 3, 4, 5, 6, 7, 8, 9, 10} }

// DefaultFig3Windows is the paper's two series: sliding windows of 10, 20.
func DefaultFig3Windows() []int { return []int{10, 20} }
