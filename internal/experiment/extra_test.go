package experiment

import (
	"strings"
	"testing"
	"time"
)

func TestRunCalibrationBucketsAreConsistent(t *testing.T) {
	cfg := ablationBase()
	cfg.Requests = 80
	buckets := RunCalibration(cfg, 5)
	if len(buckets) != 5 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	total := 0
	for _, b := range buckets {
		total += b.Reads
		if b.Reads > 0 {
			if b.Predicted < b.Lo-1e-9 || b.Predicted > b.Hi+1e-9 {
				t.Fatalf("mean prediction %.3f outside bucket [%.2f,%.2f)", b.Predicted, b.Lo, b.Hi)
			}
			if b.Observed < 0 || b.Observed > 1 {
				t.Fatalf("observed = %v", b.Observed)
			}
		}
	}
	if total != 40 { // half of 80 alternating requests are reads
		t.Fatalf("bucketed reads = %d, want 40", total)
	}
}

func TestRunCalibrationModelIsInformative(t *testing.T) {
	// The §5.1 validation: where the model predicts high success, observed
	// success must be high. Aggregate everything predicted ≥ 0.8.
	cfg := ablationBase()
	cfg.Requests = 200
	buckets := RunCalibration(cfg, 10)
	var reads, onTime int
	for _, b := range buckets {
		if b.Lo >= 0.8 {
			reads += b.Reads
			onTime += b.OnTime
		}
	}
	if reads == 0 {
		t.Skip("no high-confidence predictions in this configuration")
	}
	if frac := float64(onTime) / float64(reads); frac < 0.8 {
		t.Fatalf("high-confidence predictions observed only %.3f timely", frac)
	}
}

func TestRunGroupSplitSweep(t *testing.T) {
	base := ablationBase()
	base.Requests = 40
	res := RunGroupSplitSweep(base, [][2]int{{2, 8}, {8, 2}})
	if len(res) != 2 {
		t.Fatalf("rows = %d", len(res))
	}
	if res[0].Primaries != 2 || res[0].Secondaries != 8 {
		t.Fatalf("row0 = %+v", res[0])
	}
	for _, r := range res {
		if !r.Done {
			t.Fatalf("split %d/%d did not complete", r.Primaries, r.Secondaries)
		}
	}
}

func TestRunWindowSweep(t *testing.T) {
	base := ablationBase()
	base.Requests = 40
	res := RunWindowSweep(base, []int{5, 20})
	if len(res) != 2 || res[0].Window != 5 || res[1].Window != 20 {
		t.Fatalf("rows = %+v", res)
	}
	if err := workGrows(res[0].BinPairs, res[1].BinPairs); err != nil {
		t.Fatalf("window 5 vs 20: %v", err)
	}
}

func TestRunEstimatorAblation(t *testing.T) {
	base := ablationBase()
	base.Requests = 40
	res := RunEstimatorAblation(base)
	if len(res) != 2 || res[0].Name != "poisson(eq4)" || res[1].Name != "counted(nL)" {
		t.Fatalf("rows = %+v", res)
	}
	for _, r := range res {
		if !r.Done {
			t.Fatalf("%s run did not complete", r.Name)
		}
	}
}

func TestWriteExtraTables(t *testing.T) {
	var sb strings.Builder
	WriteCalibrationTable(&sb, []CalibrationBucket{
		{Lo: 0.8, Hi: 1.0, Reads: 10, OnTime: 9, Predicted: 0.9, Observed: 0.9},
		{Lo: 0, Hi: 0.2}, // empty bucket skipped
	})
	if !strings.Contains(sb.String(), "0.900") || strings.Contains(sb.String(), "[0.00,0.20)") {
		t.Fatalf("calibration table:\n%s", sb.String())
	}

	sb.Reset()
	WriteGroupSplitTable(&sb, []GroupSplitResult{{Primaries: 4, Secondaries: 6}})
	if !strings.Contains(sb.String(), "4") {
		t.Fatalf("split table:\n%s", sb.String())
	}

	sb.Reset()
	WriteWindowTable(&sb, []WindowResult{{Window: 10, Overhead: time.Millisecond}})
	if !strings.Contains(sb.String(), "1000.0") {
		t.Fatalf("window table:\n%s", sb.String())
	}

	sb.Reset()
	WriteEstimatorTable(&sb, []EstimatorResult{{Name: "poisson(eq4)"}})
	if !strings.Contains(sb.String(), "poisson") {
		t.Fatalf("estimator table:\n%s", sb.String())
	}
}

func TestRunScalability(t *testing.T) {
	base := ablationBase()
	base.Requests = 30
	res := RunScalability(base, []int{2, 4})
	if len(res) != 4 {
		t.Fatalf("rows = %d", len(res))
	}
	for _, r := range res {
		if !r.Done {
			t.Fatalf("%s with %d clients did not complete", r.Selector, r.Clients)
		}
	}
	// Select-all floods: with 4 clients its mean response time exceeds
	// Algorithm 1's at the same population.
	byKey := map[string]ScalabilityResult{}
	for _, r := range res {
		byKey[r.Selector+string(rune('0'+r.Clients))] = r
	}
	if byKey["all4"].MeanResponse <= byKey["algorithm14"].MeanResponse {
		t.Logf("note: all=%v alg1=%v (load effect small at this scale)",
			byKey["all4"].MeanResponse, byKey["algorithm14"].MeanResponse)
	}
}

func TestRunLossSweep(t *testing.T) {
	base := ablationBase()
	base.Requests = 30
	res := RunLossSweep(base, []float64{0, 0.05})
	if len(res) != 2 {
		t.Fatalf("rows = %d", len(res))
	}
	for _, r := range res {
		if !r.Done {
			t.Fatalf("loss %.2f run did not complete (ARQ failed)", r.Loss)
		}
		if r.Reads == 0 {
			t.Fatalf("loss %.2f: no reads", r.Loss)
		}
	}
}

func TestWriteScalabilityAndLossTables(t *testing.T) {
	var sb strings.Builder
	WriteScalabilityTable(&sb, []ScalabilityResult{{Clients: 4, Selector: "all"}})
	if !strings.Contains(sb.String(), "all") {
		t.Fatalf("scalability table:\n%s", sb.String())
	}
	sb.Reset()
	WriteLossTable(&sb, []LossResult{{Loss: 0.05}})
	if !strings.Contains(sb.String(), "0.05") {
		t.Fatalf("loss table:\n%s", sb.String())
	}
}

func TestRunArrivals(t *testing.T) {
	res := RunArrivals(5, 60, 60)
	if len(res) != 2 || res[0].Process != "poisson" || res[1].Process != "bursty" {
		t.Fatalf("rows = %+v", res)
	}
	for _, r := range res {
		if !r.Done || r.Reads == 0 {
			t.Fatalf("%s run incomplete: %+v", r.Process, r)
		}
	}
	var sb strings.Builder
	WriteArrivalsTable(&sb, res)
	if !strings.Contains(sb.String(), "bursty") {
		t.Fatalf("arrivals table:\n%s", sb.String())
	}
}
