package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// WriteFig3Table renders the Figure 3 reproduction: selection overhead (µs)
// vs available replicas, one column group per window size.
func WriteFig3Table(w io.Writer, points []Fig3Point) {
	fmt.Fprintln(w, "Figure 3 — Overhead of the probabilistic selection algorithm")
	fmt.Fprintln(w, "(microseconds per selection, cold = one replica's history changed")
	fmt.Fprintln(w, " before each selection, warm = none; ModelShare = fraction of cold")
	fmt.Fprintln(w, " spent computing response-time distributions, paper reports ~90%;")
	fmt.Fprintln(w, " bin-pairs = convolution work per cold selection)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %-8s %14s %12s %12s %12s\n",
		"replicas", "window", "overhead(us)", "model-share", "warm(us)", "bin-pairs")
	for _, p := range points {
		perSel := 0.0
		if p.Iters > 0 {
			perSel = float64(p.BinPairs) / float64(p.Iters)
		}
		fmt.Fprintf(w, "%-10d %-8d %14.1f %11.0f%% %12.1f %12.0f\n",
			p.Replicas, p.Window, float64(p.Overhead.Nanoseconds())/1e3, p.ModelShare*100,
			float64(p.WarmOverhead.Nanoseconds())/1e3, perSel)
	}
}

// WriteFig4aTable renders Figure 4a: average number of replicas selected vs
// deadline, one series per (probability, LUI).
func WriteFig4aTable(w io.Writer, results []Fig4Result) {
	fmt.Fprintln(w, "Figure 4a — Average number of replicas selected")
	fmt.Fprintln(w)
	writeFig4Grid(w, results, func(r Fig4Result) string {
		return fmt.Sprintf("%6.2f", r.AvgSelected)
	})
}

// WriteFig4bTable renders Figure 4b: observed probability of timing failure
// vs deadline with 95% binomial confidence intervals.
func WriteFig4bTable(w io.Writer, results []Fig4Result) {
	fmt.Fprintln(w, "Figure 4b — Observed probability of timing failure (95% CI)")
	fmt.Fprintln(w)
	writeFig4Grid(w, results, func(r Fig4Result) string {
		return fmt.Sprintf("%.3f[%.3f,%.3f]", r.FailureProb, r.CI.Lo, r.CI.Hi)
	})
}

// writeFig4Grid pivots results into deadline rows × (prob,LUI) columns.
func writeFig4Grid(w io.Writer, results []Fig4Result, cell func(Fig4Result) string) {
	type colKey struct {
		prob float64
		lui  time.Duration
	}
	cols := make(map[colKey]bool)
	rows := make(map[time.Duration]map[colKey]Fig4Result)
	for _, r := range results {
		k := colKey{prob: r.MinProb, lui: r.LUI}
		cols[k] = true
		if rows[r.Deadline] == nil {
			rows[r.Deadline] = make(map[colKey]Fig4Result)
		}
		rows[r.Deadline][k] = r
	}

	colList := make([]colKey, 0, len(cols))
	for k := range cols {
		colList = append(colList, k)
	}
	sort.Slice(colList, func(i, j int) bool {
		if colList[i].lui != colList[j].lui {
			return colList[i].lui > colList[j].lui
		}
		return colList[i].prob > colList[j].prob
	})
	deadlines := make([]time.Duration, 0, len(rows))
	for d := range rows {
		deadlines = append(deadlines, d)
	}
	sort.Slice(deadlines, func(i, j int) bool { return deadlines[i] < deadlines[j] })

	fmt.Fprintf(w, "%-14s", "deadline(ms)")
	for _, c := range colList {
		fmt.Fprintf(w, " %22s", fmt.Sprintf("p=%.1f,LUI=%ds", c.prob, int(c.lui/time.Second)))
	}
	fmt.Fprintln(w)
	for _, d := range deadlines {
		fmt.Fprintf(w, "%-14d", d/time.Millisecond)
		for _, c := range colList {
			if r, ok := rows[d][c]; ok {
				fmt.Fprintf(w, " %22s", cell(r))
			} else {
				fmt.Fprintf(w, " %22s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteSelectorTable renders the baseline/hot-spot ablations.
func WriteSelectorTable(w io.Writer, title string, results []SelectorResult) {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %8s %10s %12s %12s %10s %14s\n",
		"selector", "reads", "failures", "failureProb", "avgSelected", "loadCV", "meanResp(ms)")
	for _, r := range results {
		fmt.Fprintf(w, "%-12s %8d %10d %12.3f %12.2f %10.2f %14.1f\n",
			r.Name, r.Reads, r.TimingFailures, r.FailureProb, r.AvgSelected, r.LoadCV,
			float64(r.MeanResponse.Microseconds())/1000)
	}
}

// WriteFailoverTable renders the crash-injection results.
func WriteFailoverTable(w io.Writer, results []FailoverResult) {
	fmt.Fprintln(w, "Failure injection — QoS under a mid-run crash")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %8s %10s %12s %12s %8s\n",
		"crash", "reads", "failures", "failureProb", "avgSelected", "done")
	for _, r := range results {
		fmt.Fprintf(w, "%-12s %8d %10d %12.3f %12.2f %8v\n",
			r.Crash, r.Reads, r.TimingFailures, r.FailureProb, r.AvgSelected, r.Done)
	}
}

// WriteSweepTable renders a one-variable sweep (LUI or request delay).
func WriteSweepTable(w io.Writer, title, varName string, values []time.Duration, results []Fig4Result) {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s %8s %12s %12s %14s\n", varName, "reads", "failureProb", "avgSelected", "meanResp(ms)")
	for i, r := range results {
		fmt.Fprintf(w, "%-14v %8d %12.3f %12.2f %14.1f\n",
			values[i], r.Reads, r.FailureProb, r.AvgSelected,
			float64(r.MeanResponse.Microseconds())/1000)
	}
}
