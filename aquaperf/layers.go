package main

import (
	"time"

	"aqua/internal/obs"
)

// layerInput is what a traced run hands to the per-layer report.
type layerInput struct {
	sum         *summary
	busy        [numRoles]float64
	obs         []obs.Sample // registry snapshots of the traced deployments
	ops         float64      // completed requests
	updates     float64      // completed updates
	walAppends  float64
	walBytes    float64
	walSyncs    float64
	timers      []time.Duration // probe timer lateness (live)
	lags        []time.Duration // generator lateness (live open loop)
	fsyncUS     float64
	eventsPerS  float64 // sim
	overheadPct float64
}

// perLayerNames lists the --trace 1 metrics in BENCHMARK.json order. A
// layer a workload does not exercise reports 0 (README.md has the map).
var perLayerNames = []string{
	"client.invoke_read_us", "client.invoke_read_p99_us", "client.invoke_update_us",
	"selection.select_us", "client.recv_us", "client.busy_frac", "client.retries_per_op",
	"sequencer.recv_us", "sequencer.busy_frac", "sequencer.assign_batch",
	"primary.recv_us", "primary.busy_frac", "primary.msgs_per_op",
	"secondary.recv_us", "secondary.busy_frac",
	"replica.deferred_read_ratio", "replica.fast_read_ratio", "publisher.lazy_batch",
	"app.apply_us", "app.applies_per_update", "app.read_us", "app.snapshot_us", "app.restore_us",
	"wal.append_p50_us", "wal.append_p99_us", "wal.appends_per_update", "wal.syncs_per_update",
	"wal.bytes_per_update", "wal.snapshot_us", "disk.fsync_us",
	"tcpnet.send_us", "tcpnet.sends_per_op", "tcpnet.bytes_per_op", "tcpnet.flush_batch", "tcpnet.drops",
	"live.timer_late_p50_us", "live.timer_late_p99_us",
	"sim.events_per_s", "gen.lag_p99_ms", "trace.overhead_pct",
}

// layerMetrics derives every per-layer metric.
func layerMetrics(in layerInput) map[string]metric {
	s := in.sum
	invokeRead := s.kind(spanInvokeRead)
	walAppend := s.kind(spanWALAppend)
	var timerUS []float64
	for _, d := range in.timers {
		timerUS = append(timerUS, float64(d)/1e3)
	}
	served := counterSum(in.obs, "aqua_replica_reads_served_total")
	m := map[string]metric{
		"client.invoke_read_us":     {invokeRead.meanUS(), "us"},
		"client.invoke_read_p99_us": {invokeRead.quantileUS(0.99), "us"},
		"client.invoke_update_us":   {s.kind(spanInvokeUpdate).meanUS(), "us"},
		"selection.select_us":       {s.kind(spanSelect).meanUS(), "us"},
		"client.recv_us":            {s.layers[roleClient][spanRecv].selfUS(), "us"},
		"client.busy_frac":          {in.busy[roleClient], "ratio"},
		"client.retries_per_op":     {ratio(counterSum(in.obs, "aqua_client_retries_total"), in.ops), "count"},

		"sequencer.recv_us":      {s.layers[roleSequencer][spanRecv].selfUS(), "us"},
		"sequencer.busy_frac":    {in.busy[roleSequencer], "ratio"},
		"sequencer.assign_batch": {histMean(in.obs, "aqua_sequencer_assign_batch_reqs"), "count"},

		"primary.recv_us":     {s.layers[rolePrimary][spanRecv].selfUS(), "us"},
		"primary.busy_frac":   {in.busy[rolePrimary], "ratio"},
		"primary.msgs_per_op": {ratio(float64(s.layers[rolePrimary][spanRecv].count), in.ops), "count"},

		"secondary.recv_us":           {s.layers[roleSecondary][spanRecv].selfUS(), "us"},
		"secondary.busy_frac":         {in.busy[roleSecondary], "ratio"},
		"replica.deferred_read_ratio": {ratio(counterSum(in.obs, "aqua_replica_reads_deferred_total"), served), "ratio"},
		"replica.fast_read_ratio":     {ratio(counterSum(in.obs, "aqua_replica_fast_reads_total"), served), "ratio"},
		"publisher.lazy_batch":        {histMean(in.obs, "aqua_publisher_lazy_batch_updates"), "count"},

		"app.apply_us":           {s.kind(spanApply).meanUS(), "us"},
		"app.applies_per_update": {ratio(float64(s.kind(spanApply).count), in.updates), "count"},
		"app.read_us":            {s.kind(spanRead).meanUS(), "us"},
		"app.snapshot_us":        {s.kind(spanSnapshot).meanUS(), "us"},
		"app.restore_us":         {s.kind(spanRestore).meanUS(), "us"},

		"wal.append_p50_us":      {walAppend.quantileUS(0.50), "us"},
		"wal.append_p99_us":      {walAppend.quantileUS(0.99), "us"},
		"wal.appends_per_update": {ratio(in.walAppends, in.updates), "count"},
		"wal.syncs_per_update":   {ratio(in.walSyncs, in.updates), "count"},
		"wal.bytes_per_update":   {ratio(in.walBytes, in.updates), "bytes"},
		"wal.snapshot_us":        {s.kind(spanWALSnapshot).meanUS(), "us"},
		"disk.fsync_us":          {in.fsyncUS, "us"},

		"tcpnet.send_us":      {s.kind(spanSend).meanUS(), "us"},
		"tcpnet.sends_per_op": {ratio(float64(s.kind(spanSend).count), in.ops), "count"},
		"tcpnet.bytes_per_op": {ratio(counterSum(in.obs, "tcpnet_bytes_sent_total"), in.ops), "bytes"},
		"tcpnet.flush_batch":  {histMean(in.obs, "tcpnet_flush_batch_size"), "count"},
		"tcpnet.drops":        {counterSum(in.obs, "tcpnet_drops_total"), "count"},

		"live.timer_late_p50_us": {quantileF(timerUS, 0.50), "us"},
		"live.timer_late_p99_us": {quantileF(timerUS, 0.99), "us"},

		"sim.events_per_s":   {in.eventsPerS, "1/s"},
		"gen.lag_p99_ms":     {durQuantileMS(in.lags, 0.99), "ms"},
		"trace.overhead_pct": {in.overheadPct, "%"},
	}
	return m
}

// counterSum adds every series of a scalar instrument across labels.
func counterSum(samples []obs.Sample, name string) float64 {
	var v float64
	for _, s := range samples {
		if s.Name == name {
			v += s.Value
		}
	}
	return v
}

// histMean is the mean observation of a histogram across all its series.
func histMean(samples []obs.Sample, name string) float64 {
	var sum float64
	var n uint64
	for _, s := range samples {
		if s.Name == name {
			sum += s.Sum
			n += s.Count
		}
	}
	return ratio(sum, float64(n))
}
