package ssresf

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/mlmetrics"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/socgen"
)

// paperKN reproduces Table I's "Number of clusters" column: the cluster
// count the paper used per benchmark.
var paperKN = []int{5, 6, 8, 9, 14, 15, 18, 19, 21, 23}

// ExperimentConfig bundles the knobs shared by all experiment drivers.
type ExperimentConfig struct {
	DB       *fault.DB
	Workload riscv.Program
	Inject   inject.Options
	Train    TrainOptions
}

// DefaultExperimentConfig returns the configuration used to regenerate the
// paper's tables and figures. quick reduces sampling for fast test runs.
func DefaultExperimentConfig(quick bool) ExperimentConfig {
	opts := inject.DefaultOptions()
	if quick {
		opts.SampleFrac = 0.05
		opts.MinPerCluster = 2
	} else {
		opts.SampleFrac = 0.2
		opts.MinPerCluster = 3
	}
	return ExperimentConfig{
		DB:       fault.DefaultDB(),
		Workload: riscv.MemcpyProgram(16),
		Inject:   opts,
		Train:    TrainOptions{Folds: 10, Seed: 1},
	}
}

// OptionsFor specializes the campaign options for one benchmark, using the
// paper's per-benchmark cluster counts.
func (ec ExperimentConfig) OptionsFor(idx int) inject.Options {
	o := ec.Inject
	o.KN = paperKN[idx-1]
	if o.LN == 0 {
		o.LN = 4
	}
	o.Seed = ec.Inject.Seed + uint64(idx)
	return o
}

// TableIRow is one row of Table I.
type TableIRow struct {
	Index              int
	MemType            string
	MemKB              int
	MemSER             float64 // percent
	BusType            string
	BusBits            int
	BusSER             float64 // percent
	ISA                string
	Cores              int
	CPUSER             float64 // percent
	Clusters           int
	SETXsect, SEUXsect float64 // cm²
}

// TableIFromResults assembles Table I from already-executed campaign
// results keyed by benchmark index — the aggregation half of a Table I
// sweep, whose campaigns ran sharded (locally or on a campaignd worker
// fleet). Every benchmark gets a row, in benchmark order; a missing
// benchmark is an error because a partially-aggregated Table I silently
// misrepresents the paper's grid.
func TableIFromResults(results map[int]*inject.Result) ([]TableIRow, error) {
	var rows []TableIRow
	for _, cfg := range socgen.TableIConfigs() {
		r, ok := results[cfg.Index]
		if !ok || r == nil {
			return nil, fmt.Errorf("ssresf: Table I aggregation missing SoC%d's campaign result", cfg.Index)
		}
		mem, bus, cpu := moduleSERs(r)
		rows = append(rows, TableIRow{
			Index:    cfg.Index,
			MemType:  cfg.MemType,
			MemKB:    cfg.MemKB,
			MemSER:   mem,
			BusType:  cfg.BusType,
			BusBits:  cfg.BusBits,
			BusSER:   bus,
			ISA:      cfg.ISA,
			Cores:    cfg.Cores,
			CPUSER:   cpu,
			Clusters: len(r.Clusters),
			SETXsect: r.SETXsect,
			SEUXsect: r.SEUXsect,
		})
	}
	return rows, nil
}

// moduleSERs returns a campaign's memory, bus and CPU-logic module SERs
// (percent; zero for a module the design lacks).
func moduleSERs(r *inject.Result) (mem, bus, cpu float64) {
	pct := func(name string) float64 {
		if m := r.Modules[name]; m != nil {
			return m.SERPercent
		}
		return 0
	}
	return pct("Memory"), pct("Bus"), pct("CPU Logic")
}

// TableIIRow is one row of Table II: the SVM classification metrics on one
// benchmark.
type TableIIRow struct {
	Index   int
	Metrics mlmetrics.Metrics
}

// TableIIFromResults trains and cross-validates the sensitivity
// classifier on each benchmark's campaign result (keyed by benchmark
// index; the campaigns are Table I's) for the given benchmarks (all ten
// when indices is nil), and returns per-benchmark metrics plus the
// average row.
func TableIIFromResults(ec ExperimentConfig, indices []int, results map[int]*inject.Result) ([]TableIIRow, mlmetrics.Metrics, error) {
	if indices == nil {
		indices = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	var rows []TableIIRow
	var all []mlmetrics.Metrics
	for _, idx := range indices {
		r := results[idx]
		if r == nil {
			return nil, mlmetrics.Metrics{}, fmt.Errorf("ssresf: Table II aggregation missing SoC%d's campaign result", idx)
		}
		flat, err := flatOf(idx)
		if err != nil {
			return nil, mlmetrics.Metrics{}, err
		}
		ds, err := BuildDataset(flat, r)
		if err != nil {
			return nil, mlmetrics.Metrics{}, fmt.Errorf("ssresf: Table II SoC%d: %v", idx, err)
		}
		topts := ec.Train
		topts.Seed = ec.Train.Seed + uint64(idx)
		cls, err := Train(ds, topts)
		if err != nil {
			return nil, mlmetrics.Metrics{}, fmt.Errorf("ssresf: Table II SoC%d: %v", idx, err)
		}
		m := mlmetrics.FromConfusion(cls.TrainCV)
		rows = append(rows, TableIIRow{Index: idx, Metrics: m})
		all = append(all, m)
	}
	return rows, mlmetrics.Mean(all), nil
}

// flatOf generates and flattens benchmark idx's netlist. Generation is
// deterministic, so this copy is identical to the one the benchmark's
// campaign ran on, wherever that was.
func flatOf(idx int) (*netlist.Flat, error) {
	cfg, err := socgen.ConfigByIndex(idx)
	if err != nil {
		return nil, err
	}
	d, err := socgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return netlist.Flatten(d)
}

// Fig5Point is one point of the feature-selection curve.
type Fig5Point struct {
	NumFeatures int
	CVScore     float64
}

// Fig5 sweeps the number of ranked features from 1 to the full pool and
// records the mean 10-fold cross-validation accuracy for each — the
// feature-selection experiment whose peak picks the working feature set.
func Fig5(ds *Dataset, folds int, seed uint64) ([]Fig5Point, error) {
	if folds <= 0 {
		folds = 10
	}
	var pts []Fig5Point
	for k := 1; k <= len(ds.X.Names); k++ {
		cls, err := Train(ds, TrainOptions{FeatureCount: k, Folds: folds, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("ssresf: Fig5 k=%d: %v", k, err)
		}
		pts = append(pts, Fig5Point{NumFeatures: k, CVScore: cls.TrainCV.Accuracy()})
	}
	return pts, nil
}

// BestFeatureCount returns the sweep's argmax (ties to the smaller count).
func BestFeatureCount(pts []Fig5Point) int {
	best := 0
	for i := 1; i < len(pts); i++ {
		if pts[i].CVScore > pts[best].CVScore {
			best = i
		}
	}
	if len(pts) == 0 {
		return 0
	}
	return pts[best].NumFeatures
}

// Fig6 computes the classifier's ROC curve and AUC on a labeled design.
func Fig6(cls *Classifier, an *Analysis) ([]mlmetrics.ROCPoint, float64, error) {
	scores, err := cls.DecisionValues(an.Run.Flat)
	if err != nil {
		return nil, 0, err
	}
	labels := an.Run.Result.LabelCellsRefined(an.Run.Result.ChipSER)
	curve := mlmetrics.ROC(scores, labels)
	return curve, mlmetrics.AUC(curve), nil
}

// TableIIIRow is one flux condition of the runtime comparison.
type TableIIIRow struct {
	Flux        float64
	VCSRuntime  time.Duration // EventSim campaign (VCS stand-in)
	CVCRuntime  time.Duration // LevelSim campaign (CVC stand-in)
	PredictTime time.Duration // SVM model prediction over all nodes
	SpeedupVCS  float64
	SpeedupCVC  float64
	Accuracy    float64 // SVM labels vs this flux's simulation labels
}

// TableIIIFluxes are the particle fluxes Table III compares across.
var TableIIIFluxes = []float64{4e8, 5e8, 6e8, 7e8, 8e8}

// TableIIIFluxOptions derives the campaign options Table III runs at one
// flux condition: the SoC1 base options with the flux applied, the sample
// volume scaled with it (higher flux means more upsets to simulate,
// clamped at full sampling) and a per-flux seed. The engine is left at
// the base value; Table III runs each condition once per engine, and
// Fig. 7 reuses the EventSim campaigns.
func (ec ExperimentConfig) TableIIIFluxOptions(flux float64) inject.Options {
	opts := ec.OptionsFor(1)
	opts.Flux = flux
	opts.SampleFrac = opts.SampleFrac * flux / 5e8
	if opts.SampleFrac > 1 {
		opts.SampleFrac = 1
	}
	opts.Seed = ec.OptionsFor(1).Seed + uint64(flux/1e8)
	return opts
}

// baseClassifier trains the sensitivity classifier on the SoC1 base
// campaign's result and returns it with the SoC1 netlist it predicts
// over.
func baseClassifier(ec ExperimentConfig, base *inject.Result) (*Classifier, *netlist.Flat, error) {
	if base == nil {
		return nil, nil, fmt.Errorf("ssresf: aggregation missing the SoC1 base training campaign")
	}
	flat, err := flatOf(1)
	if err != nil {
		return nil, nil, err
	}
	ds, err := BuildDataset(flat, base)
	if err != nil {
		return nil, nil, err
	}
	cls, err := Train(ds, ec.Train)
	if err != nil {
		return nil, nil, err
	}
	return cls, flat, nil
}

// TableIIIFromResults assembles Table III from already-executed campaign
// results: the SoC1 base campaign (classifier training data) plus one
// EventSim and one LevelSim result per flux, all typically merged from a
// sweep. The ML phase — dataset build, training, prediction — runs in
// this process, so the deterministic columns (accuracy) depend only on
// the campaign verdicts; the runtime columns are wall-clock by nature
// and reflect wherever the campaigns actually ran. Each row pairs one
// prediction pass over every node against both engines' campaign
// runtimes; the last return value is the average row.
func TableIIIFromResults(ec ExperimentConfig, fluxes []float64, base *inject.Result, ev, lv map[float64]*inject.Result) ([]TableIIIRow, TableIIIRow, error) {
	if len(fluxes) == 0 {
		fluxes = TableIIIFluxes
	}
	cls, flat, err := baseClassifier(ec, base)
	if err != nil {
		return nil, TableIIIRow{}, err
	}
	var rows []TableIIIRow
	var avg TableIIIRow
	for _, flux := range fluxes {
		evRes, lvRes := ev[flux], lv[flux]
		if evRes == nil || lvRes == nil {
			return nil, TableIIIRow{}, fmt.Errorf("ssresf: Table III aggregation missing flux %g's %s campaign",
				flux, map[bool]string{true: "EventSim", false: "LevelSim"}[evRes == nil])
		}
		pred, predTime, err := cls.Predict(flat)
		if err != nil {
			return nil, TableIIIRow{}, err
		}
		row := TableIIIRow{
			Flux:        flux,
			VCSRuntime:  evRes.GoldenWall + evRes.InjectWall,
			CVCRuntime:  lvRes.GoldenWall + lvRes.InjectWall,
			PredictTime: predTime,
			Accuracy:    outcomeAccuracy(evRes.Injections, pred),
		}
		if predTime > 0 {
			row.SpeedupVCS = float64(row.VCSRuntime) / float64(predTime)
			row.SpeedupCVC = float64(row.CVCRuntime) / float64(predTime)
		}
		rows = append(rows, row)
		avg.VCSRuntime += row.VCSRuntime
		avg.CVCRuntime += row.CVCRuntime
		avg.PredictTime += row.PredictTime
		avg.SpeedupVCS += row.SpeedupVCS
		avg.SpeedupCVC += row.SpeedupCVC
		avg.Accuracy += row.Accuracy
	}
	n := time.Duration(len(rows))
	avg.VCSRuntime /= n
	avg.CVCRuntime /= n
	avg.PredictTime /= n
	avg.SpeedupVCS /= float64(len(rows))
	avg.SpeedupCVC /= float64(len(rows))
	avg.Accuracy /= float64(len(rows))
	return rows, avg, nil
}

// outcomeAccuracy scores the model against the flux campaign's observed
// ground truth: for every node the campaign actually injected, the SVM's
// prediction is compared with whether that injection manifested as a soft
// error. This is the operational meaning of the paper's "Model Accuracy"
// column — can the classifier replace the simulation's verdict on the
// nodes it would otherwise have to simulate.
func outcomeAccuracy(injections []inject.Injection, pred []bool) float64 {
	if len(injections) == 0 {
		return 0
	}
	agree := 0
	for _, inj := range injections {
		if pred[inj.CellID] == inj.SoftError {
			agree++
		}
	}
	return float64(agree) / float64(len(injections))
}

// Fig7Row is one bar group of Fig. 7: the share of each module's nodes
// classified highly sensitive, for one source (a simulation flux or the
// SVM prediction).
type Fig7Row struct {
	Source string
	// Percent maps module name to 100·(sensitive nodes)/(module nodes).
	Percent map[string]float64
}

// Fig7FromResults compares the distribution of highly sensitive nodes
// across memory, bus and CPU logic between per-flux simulation campaigns
// and the SVM prediction on PULP SoC1. Its inputs are a subset of Table
// III's: the base training campaign and the EventSim campaign per flux
// (nil fluxes means TableIIIFluxes).
func Fig7FromResults(ec ExperimentConfig, fluxes []float64, base *inject.Result, ev map[float64]*inject.Result) ([]Fig7Row, error) {
	if len(fluxes) == 0 {
		fluxes = TableIIIFluxes
	}
	cls, flat, err := baseClassifier(ec, base)
	if err != nil {
		return nil, err
	}
	moduleShare := func(f func(cellID int) bool) map[string]float64 {
		counts := map[string]int{}
		totals := map[string]int{}
		for _, c := range flat.Cells {
			mod := socgen.ModuleOf(c)
			totals[mod]++
			if f(c.ID) {
				counts[mod]++
			}
		}
		out := map[string]float64{}
		for mod, tot := range totals {
			out[mod] = 100 * float64(counts[mod]) / float64(tot)
		}
		return out
	}

	var rows []Fig7Row
	for _, flux := range fluxes {
		r := ev[flux]
		if r == nil {
			return nil, fmt.Errorf("ssresf: Fig. 7 aggregation missing flux %g's EventSim campaign", flux)
		}
		labels := r.LabelCellsRefined(r.ChipSER)
		rows = append(rows, Fig7Row{
			Source:  fmt.Sprintf("Simulation-%.0e", flux),
			Percent: moduleShare(func(id int) bool { return labels[id] }),
		})
	}
	pred, _, err := cls.Predict(flat)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig7Row{
		Source:  "SVM Classifier",
		Percent: moduleShare(func(id int) bool { return pred[id] }),
	})
	return rows, nil
}
