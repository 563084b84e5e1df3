package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/features"
	"repro/internal/netlist"
	"repro/internal/socgen"
	"repro/internal/ssresf"
	"repro/internal/svm"
)

// datasetSeeds are the campaign seeds of the SoC1 datasets every
// svm-classify run covers, one dataset per operation in the workload
// seed's order. Training cost depends strongly on the labels (0.9 s to
// 2.8 s per train over campaign seeds 2-6), so one dataset per run would
// turn that into run-to-run spread.
var datasetSeeds = []uint64{1, 2, 3, 4}

// runSVM is svm-classify: from SoC1 datasets labelled in set-up, each
// operation trains the classifier on one of them (10-fold CV with the
// dataset's seed as fold seed, no grid search, as
// DefaultExperimentConfig) and classifies every cell of the ten Table I
// netlists. The oracle: every operation on a dataset yields the same CV
// confusion matrix and the same predictions.
func runSVM(r *run) error {
	r.show = []metricDef{{"train_s", "s"}, {"predict_cells_per_s", "1/s"}, {"cv_accuracy", "ratio"}, {"speedup_x", "x"}}
	ec := ssresf.DefaultExperimentConfig(false)
	cfg1, err := socgen.ConfigByIndex(1)
	if err != nil {
		return err
	}
	datasets := map[uint64]*ssresf.Dataset{}
	var flats []*netlist.Flat
	var campaignS []float64
	// labelAndGenerate is one set-up: label every dataset by a SoC1
	// campaign and generate the ten Table I netlists.
	labelAndGenerate := func(tr *tracer) error {
		for _, seed := range datasetSeeds {
			ec.Inject.Seed = seed
			t0 := time.Now()
			an, err := ssresf.AnalyzeSoC(cfg1, ec.Workload, ec.DB, ec.OptionsFor(cfg1.Index))
			if err != nil {
				return err
			}
			campaignS = append(campaignS, time.Since(t0).Seconds())
			datasets[seed] = an.Dataset
		}
		flats = flats[:0]
		for _, cfg := range socgen.TableIConfigs() {
			var d *netlist.Design
			if err := tr.call("socgen.generate", 0, func() (err error) {
				d, err = socgen.Generate(cfg)
				return err
			}); err != nil {
				return err
			}
			var f *netlist.Flat
			if err := tr.call("netlist.flatten", 0, func() (err error) {
				f, err = netlist.Flatten(d)
				return err
			}); err != nil {
				return err
			}
			flats = append(flats, f)
		}
		return nil
	}
	for k := 0; k < setupReps; k++ {
		if err := r.setup(labelAndGenerate); err != nil {
			return err
		}
	}
	for _, seed := range datasetSeeds {
		ds := datasets[seed]
		fmt.Fprintf(r.out, "svm-classify: SoC1 dataset seed %d: %d rows (%d sensitive)\n", seed, len(ds.Y), ds.PositiveCount())
	}

	confusions := map[uint64]map[int]string{}
	predictions := map[uint64]map[int]string{}
	for _, seed := range datasetSeeds {
		confusions[seed], predictions[seed] = map[int]string{}, map[int]string{}
	}
	order := permute(r.cfg.seed, datasetSeeds)
	r.loop(len(order), func(o opCtx) (time.Duration, error) {
		seed := order[o.input%len(order)]
		start := time.Now()
		cls, err := train(datasets[seed], seed, o.tr, o.root)
		if err != nil {
			return 0, err
		}
		trainD := time.Since(start)
		var preds strings.Builder
		cells := 0
		var predictD, soc1D time.Duration
		for i, f := range flats {
			t0 := time.Now()
			out, err := predict(cls, f, o.tr, o.root)
			if err != nil {
				return 0, err
			}
			d := time.Since(t0)
			if i == 0 {
				soc1D = d
			}
			predictD += d
			cells += len(out)
			for _, p := range out {
				c := byte('0')
				if p {
					c = '1'
				}
				preds.WriteByte(c)
			}
		}
		confusions[seed][o.id] = cls.TrainCV.String()
		predictions[seed][o.id] = digest([]byte(preds.String()))
		acc := cls.TrainCV.Accuracy()
		if o.tr != nil {
			o.tr.set("svm.support_vectors", float64(cls.Model.NumSV()))
			o.tr.set("svm.smo_iters", float64(cls.Model.Iters()))
			o.tr.set("svm.cv_accuracy", acc)
		}
		r.add(o, "train_s", trainD.Seconds())
		r.add(o, "predict_cells_per_s", float64(cells)/predictD.Seconds())
		r.add(o, "cv_accuracy", acc)
		r.add(o, "speedup_x", median(campaignS)/soc1D.Seconds())
		return trainD + predictD, nil
	})
	r.samples["peak_rss_mb"] = []float64{maxRSSMB()}

	// Per dataset, the first operation's outputs are the reference every
	// other operation on it must reproduce.
	for _, seed := range datasetSeeds {
		first := -1
		for id := range confusions[seed] {
			if first < 0 || id < first {
				first = id
			}
		}
		if first >= 0 {
			r.checkOutputs(fmt.Sprintf("svm dataset %d confusion matrix", seed), confusions[seed], confusions[seed][first])
			r.checkOutputs(fmt.Sprintf("svm dataset %d predictions", seed), predictions[seed], predictions[seed][first])
		}
	}
	return nil
}

// train is ssresf.Train. Traced, it runs Train's recipe through the
// public calls it is made of — rank features, keep the paper's six,
// min-max scale, 10-fold CV, final fit — one span each; the per-op
// confusion oracle checks that both paths agree.
func train(ds *ssresf.Dataset, seed uint64, tr *tracer, parent int) (*ssresf.Classifier, error) {
	if tr == nil {
		return ssresf.Train(ds, ssresf.TrainOptions{Folds: 10, Seed: seed})
	}
	const folds = 10
	id := tr.begin("ssresf.train", parent)
	defer tr.end(id)
	var rank []int
	tr.call("features.rank", id, func() error {
		rank = features.RankByCorrelation(ds.X, ds.Y)
		return nil
	})
	k := features.PaperFeatureCount
	if k > len(rank) {
		k = len(rank)
	}
	cols := append([]int{}, rank[:k]...)
	sel, err := ds.X.Select(cols)
	if err != nil {
		return nil, err
	}
	scaler := features.FitScaler(sel)
	norm := scaler.Transform(sel)
	cfg := svm.DefaultConfig()
	cfg.Seed = seed
	cls := &ssresf.Classifier{Scaler: scaler, Columns: cols, Config: cfg, FoldsK: folds}
	if err := tr.call("svm.cv", id, func() (err error) {
		cls.TrainCV, err = svm.CrossValidate(norm.Rows, ds.Y, folds, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.call("svm.fit", id, func() (err error) {
		cls.Model, err = svm.Train(norm.Rows, ds.Y, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	return cls, nil
}

// predict is Classifier.Predict. Traced, it runs Predict's steps through
// their public calls: feature extraction, column selection and scaling,
// then the SVM decision per cell.
func predict(cls *ssresf.Classifier, f *netlist.Flat, tr *tracer, parent int) ([]bool, error) {
	if tr == nil {
		out, _, err := cls.Predict(f)
		return out, err
	}
	id := tr.begin("ssresf.predict", parent)
	defer tr.end(id)
	var raw *features.Matrix
	tr.call("features.extract", id, func() error {
		raw = features.Extract(f)
		return nil
	})
	sel, err := raw.Select(cls.Columns)
	if err != nil {
		return nil, err
	}
	norm := cls.Scaler.Transform(sel)
	out := make([]bool, len(norm.Rows))
	tr.call("svm.decision", id, func() error {
		for i, row := range norm.Rows {
			out[i] = cls.Model.Predict(row)
		}
		return nil
	})
	return out, nil
}
