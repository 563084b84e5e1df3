package ssresf

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/inject"
	"repro/internal/socgen"
)

func quickConfig() ExperimentConfig {
	ec := DefaultExperimentConfig(true)
	ec.Inject.SampleFrac = 0.06
	return ec
}

func analyze(t *testing.T, idx int) *Analysis {
	t.Helper()
	ec := quickConfig()
	cfg, err := socgen.ConfigByIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeSoC(cfg, ec.Workload, ec.DB, ec.OptionsFor(idx))
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestAnalyzeBuildsDataset(t *testing.T) {
	an := analyze(t, 1)
	ds := an.Dataset
	if len(ds.X.Rows) != len(an.Run.Flat.Cells) {
		t.Fatalf("dataset rows %d != cells %d", len(ds.X.Rows), len(an.Run.Flat.Cells))
	}
	if len(ds.Y) != len(ds.X.Rows) {
		t.Fatal("label count mismatch")
	}
	pos := ds.PositiveCount()
	if pos == 0 || pos == len(ds.Y) {
		t.Fatalf("degenerate labels: %d of %d positive", pos, len(ds.Y))
	}
}

func TestTrainAndPredict(t *testing.T) {
	an := analyze(t, 1)
	cls, err := Train(an.Dataset, TrainOptions{Folds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Selected) != 6 {
		t.Errorf("default selection must keep the paper's 6 features, got %v", cls.Selected)
	}
	if cls.TrainCV.Accuracy() < 0.6 {
		t.Errorf("CV accuracy %v suspiciously low", cls.TrainCV.Accuracy())
	}
	pred, dur, err := cls.Predict(an.Run.Flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != len(an.Run.Flat.Cells) {
		t.Fatal("prediction count mismatch")
	}
	if dur <= 0 {
		t.Error("prediction time not measured")
	}
	// Decision values must be consistent with predictions.
	scores, err := cls.DecisionValues(an.Run.Flat)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pred {
		if (scores[i] > 0) != pred[i] {
			t.Fatal("decision values inconsistent with predictions")
		}
	}
}

func TestFig5Sweep(t *testing.T) {
	an := analyze(t, 1)
	pts, err := Fig5(an.Dataset, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("%d sweep points, want 10", len(pts))
	}
	best := BestFeatureCount(pts)
	if best < 1 || best > 10 {
		t.Fatalf("best feature count %d out of range", best)
	}
	for i, p := range pts {
		if p.NumFeatures != i+1 {
			t.Errorf("point %d has k=%d", i, p.NumFeatures)
		}
		if p.CVScore < 0 || p.CVScore > 1 {
			t.Errorf("score %v out of range", p.CVScore)
		}
	}
	var buf bytes.Buffer
	RenderFig5(&buf, pts)
	if !strings.Contains(buf.String(), "best feature count") {
		t.Error("Fig5 rendering incomplete")
	}
}

func TestFig6ROC(t *testing.T) {
	an := analyze(t, 1)
	cls, err := Train(an.Dataset, TrainOptions{Folds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	curve, auc, err := Fig6(cls, an)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) < 3 {
		t.Fatalf("ROC curve has %d points", len(curve))
	}
	if auc < 0.6 {
		t.Errorf("AUC %v — classifier no better than chance", auc)
	}
	var buf bytes.Buffer
	RenderFig6(&buf, curve, auc)
	if !strings.Contains(buf.String(), "AUC") {
		t.Error("Fig6 rendering incomplete")
	}
}

func TestTableIISubset(t *testing.T) {
	results := map[int]*inject.Result{1: analyze(t, 1).Run.Result, 2: analyze(t, 2).Run.Result}
	rows, avg, err := TableIIFromResults(quickConfig(), []int{1, 2}, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Metrics.Accuracy < 0.55 {
			t.Errorf("SoC%d accuracy %.3f below any useful classifier", r.Index, r.Metrics.Accuracy)
		}
	}
	if avg.Accuracy == 0 {
		t.Error("average row missing")
	}
	var buf bytes.Buffer
	RenderTableII(&buf, rows, avg)
	if !strings.Contains(buf.String(), "Average") {
		t.Error("Table II rendering incomplete")
	}
}
