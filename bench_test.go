// Package repro_bench is the benchmark harness that regenerates every
// table and figure of the paper's evaluation section (go test -bench .).
// Each BenchmarkTableN/BenchmarkFigN prints the reproduced rows once and
// reports the headline numbers as benchmark metrics; the Benchmark*Ablation
// benches cover the design choices DESIGN.md calls out.
package repro_bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/socgen"
	"repro/internal/ssresf"
	"repro/internal/svm"
	"repro/internal/sweep"
	"repro/internal/xrand"
)

// benchConfig keeps bench sampling modest so the full harness completes in
// minutes; cmd/tables runs the full-fidelity version.
func benchConfig() ssresf.ExperimentConfig {
	ec := ssresf.DefaultExperimentConfig(true)
	ec.Inject.SampleFrac = 0.12
	ec.Inject.MinPerCluster = 2
	ec.Train.Folds = 5
	return ec
}

var printOnce sync.Map

func printFirst(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// runGrid executes every campaign of the grid in this process, prints
// the rendered grid once under key (unless key is empty), and returns
// the merged results keyed by item key.
func runGrid(b *testing.B, key string, g sweep.Grid, err error) map[string]*inject.Result {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	results, err := sweep.RunLocal(g.Spec, sweep.LocalOptions{Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	if key != "" {
		printFirst(key, func() {
			fmt.Println()
			if err := g.Render(os.Stdout, results); err != nil {
				b.Fatal(err)
			}
		})
	}
	byKey := make(map[string]*inject.Result, len(results))
	for _, it := range g.Spec.Items {
		fp, err := it.Campaign.Fingerprint()
		if err != nil {
			b.Fatal(err)
		}
		byKey[it.Key] = results[fp]
	}
	return byKey
}

func BenchmarkTableI(b *testing.B) {
	ec := benchConfig()
	for i := 0; i < b.N; i++ {
		g, err := sweep.TableIGrid(ec, "memcpy")
		res := runGrid(b, "table1", g, err)
		b.ReportMetric(res["soc1"].Modules["Bus"].SERPercent, "soc1-bus-ser-%")
		b.ReportMetric(res["soc10"].Modules["Memory"].SERPercent, "soc10-mem-ser-%")
	}
}

func BenchmarkTableII(b *testing.B) {
	ec := benchConfig()
	for i := 0; i < b.N; i++ {
		g, err := sweep.TableIIGrid(ec, "memcpy")
		res := runGrid(b, "", g, err)
		byIdx := map[int]*inject.Result{}
		for idx := 1; idx <= 10; idx++ {
			byIdx[idx] = res[fmt.Sprintf("soc%d", idx)]
		}
		rows, avg, err := ssresf.TableIIFromResults(ec, nil, byIdx)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table2", func() {
			fmt.Println()
			ssresf.RenderTableII(os.Stdout, rows, avg)
		})
		b.ReportMetric(100*avg.Accuracy, "avg-accuracy-%")
		b.ReportMetric(100*avg.TNR, "avg-tnr-%")
	}
}

func BenchmarkTableIII(b *testing.B) {
	ec := benchConfig()
	for i := 0; i < b.N; i++ {
		g, err := sweep.TableIIIGrid(ec, nil, "memcpy")
		res := runGrid(b, "", g, err)
		ev, lv := map[float64]*inject.Result{}, map[float64]*inject.Result{}
		for _, flux := range ssresf.TableIIIFluxes {
			ev[flux] = res[fmt.Sprintf("t3-flux%g-event", flux)]
			lv[flux] = res[fmt.Sprintf("t3-flux%g-level", flux)]
		}
		rows, avg, err := ssresf.TableIIIFromResults(ec, nil, res["t3-base"], ev, lv)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table3", func() {
			fmt.Println()
			ssresf.RenderTableIII(os.Stdout, rows, avg)
		})
		b.ReportMetric(avg.SpeedupVCS, "avg-speedup-vcs-x")
		b.ReportMetric(avg.SpeedupCVC, "avg-speedup-cvc-x")
		b.ReportMetric(100*avg.Accuracy, "avg-accuracy-%")
	}
}

func soc1Analysis(b *testing.B, ec ssresf.ExperimentConfig) *ssresf.Analysis {
	b.Helper()
	cfg, err := socgen.ConfigByIndex(1)
	if err != nil {
		b.Fatal(err)
	}
	an, err := ssresf.AnalyzeSoC(cfg, ec.Workload, ec.DB, ec.OptionsFor(1))
	if err != nil {
		b.Fatal(err)
	}
	return an
}

func BenchmarkFig5(b *testing.B) {
	ec := benchConfig()
	an := soc1Analysis(b, ec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := ssresf.Fig5(an.Dataset, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig5", func() {
			fmt.Println()
			ssresf.RenderFig5(os.Stdout, pts)
		})
		b.ReportMetric(float64(ssresf.BestFeatureCount(pts)), "best-feature-count")
	}
}

func BenchmarkFig6(b *testing.B) {
	ec := benchConfig()
	an := soc1Analysis(b, ec)
	cls, err := ssresf.Train(an.Dataset, ec.Train)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve, auc, err := ssresf.Fig6(cls, an)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig6", func() {
			fmt.Println()
			ssresf.RenderFig6(os.Stdout, curve, auc)
		})
		b.ReportMetric(auc, "auc")
	}
}

func BenchmarkFig7(b *testing.B) {
	ec := benchConfig()
	for i := 0; i < b.N; i++ {
		g, err := sweep.Fig7Grid(ec, []float64{4e8, 6e8, 8e8}, "memcpy")
		runGrid(b, "fig7", g, err)
	}
}

// BenchmarkEngines compares raw simulation throughput of the two engines
// on the same SoC workload — the ablation behind the VCS/CVC runtime gap.
func BenchmarkEngines(b *testing.B) {
	cfg, err := socgen.ConfigByIndex(1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := socgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := netlist.Flatten(d)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := socgen.RunWorkload(riscv.MemcpyProgram(16), 32)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := socgen.BuildStimulus(f, wl)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []sim.EngineKind{sim.KindEvent, sim.KindLevel} {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			var evals uint64
			for i := 0; i < b.N; i++ {
				e, err := sim.New(kind, f)
				if err != nil {
					b.Fatal(err)
				}
				if err := plan.Apply(e); err != nil {
					b.Fatal(err)
				}
				if err := e.Run(plan.DurationPS); err != nil {
					b.Fatal(err)
				}
				evals = e.CellEvals()
			}
			b.ReportMetric(float64(evals), "cell-evals/run")
		})
	}
}

// warmstartReport is the BENCH_warmstart.json schema: one entry per
// engine (plus the compare_vcd detector variant) with the golden and
// injection wall-clock and cell-evaluation metrics of a cold
// (replay-from-zero) vs warm (checkpoint-restored) campaign, so CI tracks
// the perf trajectory of the warm-start path.
type warmstartReport struct {
	Design           string  `json:"design"`
	Engine           string  `json:"engine"`
	Injections       int     `json:"injections"`
	GoldenWallNS     int64   `json:"golden_wall_ns"`
	GoldenEvals      uint64  `json:"golden_evals"`
	ColdInjectWallNS int64   `json:"cold_inject_wall_ns"`
	ColdInjectEvals  uint64  `json:"cold_inject_evals"`
	WarmInjectWallNS int64   `json:"warm_inject_wall_ns"`
	WarmInjectEvals  uint64  `json:"warm_inject_evals"`
	WarmStarts       uint64  `json:"warm_starts"`
	PrunedRuns       uint64  `json:"pruned_runs"`
	DeltaRestores    uint64  `json:"delta_restores"`
	RestoreWallNS    int64   `json:"restore_wall_ns"`
	ChecksumWallNS   int64   `json:"checksum_wall_ns"`
	EvalsReductionX  float64 `json:"evals_reduction_x"`
	WallReductionX   float64 `json:"wall_reduction_x"`
	// AllocsPerEval is the heap allocation count (runtime Mallocs delta)
	// over the warm injection phase divided by its cell evals.
	AllocsPerEval float64 `json:"allocs_per_eval"`
}

var (
	warmstartMu      sync.Mutex
	warmstartEntries = map[string]warmstartReport{}
)

func writeWarmstartJSON(b *testing.B, key string, rep warmstartReport) {
	b.Helper()
	warmstartMu.Lock()
	defer warmstartMu.Unlock()
	warmstartEntries[key] = rep
	buf, err := json.MarshalIndent(warmstartEntries, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_warmstart.json", append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// runWarmColdPair executes the same SoC1 campaign twice — cold
// (replay-from-zero) and warm (checkpoint-restored) — and fails the bench
// if the two results are not bit-identical. warmMallocs counts the heap
// allocations of the warm run's injection phase.
func runWarmColdPair(b *testing.B, kind sim.EngineKind, frac float64) (cold, warm *inject.SoCRun, warmMallocs uint64) {
	b.Helper()
	opts := inject.DefaultOptions()
	opts.Engine = kind
	opts.SampleFrac = frac
	return runWarmColdPairOpts(b, opts)
}

// runWarmColdPairOpts is runWarmColdPair over explicit options (the
// compare_vcd variant flips the detector).
func runWarmColdPairOpts(b *testing.B, opts inject.Options) (cold, warm *inject.SoCRun, warmMallocs uint64) {
	b.Helper()
	cfg, err := socgen.ConfigByIndex(1)
	if err != nil {
		b.Fatal(err)
	}
	coldOpts := opts
	coldOpts.ColdStart = true
	cold, err = inject.RunSoC(cfg, riscv.MemcpyProgram(16), fault.DefaultDB(), coldOpts)
	if err != nil {
		b.Fatal(err)
	}
	warm, err = inject.PrepareSoC(cfg, riscv.MemcpyProgram(16), fault.DefaultDB(), opts)
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := warm.Campaign.Run(warm.Result); err != nil {
		b.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	warmMallocs = after.Mallocs - before.Mallocs
	if len(cold.Result.Injections) != len(warm.Result.Injections) {
		b.Fatalf("warm/cold injection counts differ: %d vs %d", len(cold.Result.Injections), len(warm.Result.Injections))
	}
	for i := range cold.Result.Injections {
		if cold.Result.Injections[i] != warm.Result.Injections[i] {
			b.Fatalf("warm/cold verdicts differ at %d: %+v vs %+v", i, cold.Result.Injections[i], warm.Result.Injections[i])
		}
	}
	if cold.Result.ChipSER != warm.Result.ChipSER {
		b.Fatalf("warm/cold chip SER differ: %v vs %v", cold.Result.ChipSER, warm.Result.ChipSER)
	}
	return cold, warm, warmMallocs
}

// stampWall measures the integrity-checksum cost an executor pays per
// shard: canonically encoding and hashing the warm run's full result
// payload as one shard.Partial (a real shard covers a slice of it, so
// this is the conservative upper bound). Minimum of a few runs —
// encode+hash is deterministic work, so min is the honest figure and
// scheduler noise only inflates the others. cmd/benchgate gates this
// wall against the warm-injection wall: with -audit-frac=0 checksums
// are the integrity subsystem's entire steady-state overhead.
func stampWall(b *testing.B, warm *inject.SoCRun) int64 {
	b.Helper()
	res := warm.Result
	p := &shard.Partial{
		Start:         0,
		End:           len(res.Injections),
		Injections:    res.Injections,
		InjectWallNS:  res.InjectWall.Nanoseconds(),
		InjectEvals:   res.InjectEvals,
		WarmStarts:    res.WarmStarts,
		PrunedRuns:    res.PrunedRuns,
		DeltaRestores: res.DeltaRestores,
		RestoreWallNS: res.RestoreWall.Nanoseconds(),
	}
	best := int64(-1)
	for i := 0; i < 5; i++ {
		p.Checksum = ""
		t0 := time.Now()
		if err := p.Stamp(); err != nil {
			b.Fatal(err)
		}
		if d := time.Since(t0).Nanoseconds(); best < 0 || d < best {
			best = d
		}
	}
	return best
}

func reportWarmCold(b *testing.B, key string, cold, warm *inject.SoCRun, warmMallocs uint64) {
	b.Helper()
	cr, wr := cold.Result, warm.Result
	rep := warmstartReport{
		Design:           cr.Design,
		Engine:           cr.Engine,
		Injections:       len(cr.Injections),
		GoldenWallNS:     wr.GoldenWall.Nanoseconds(),
		GoldenEvals:      wr.GoldenEvals,
		ColdInjectWallNS: cr.InjectWall.Nanoseconds(),
		ColdInjectEvals:  cr.InjectEvals,
		WarmInjectWallNS: wr.InjectWall.Nanoseconds(),
		WarmInjectEvals:  wr.InjectEvals,
		WarmStarts:       wr.WarmStarts,
		PrunedRuns:       wr.PrunedRuns,
		DeltaRestores:    wr.DeltaRestores,
		RestoreWallNS:    wr.RestoreWall.Nanoseconds(),
		ChecksumWallNS:   stampWall(b, warm),
	}
	if wr.InjectEvals > 0 {
		rep.EvalsReductionX = float64(cr.InjectEvals) / float64(wr.InjectEvals)
	}
	if wr.InjectWall > 0 {
		rep.WallReductionX = float64(cr.InjectWall) / float64(wr.InjectWall)
	}
	if wr.InjectEvals > 0 {
		rep.AllocsPerEval = float64(warmMallocs) / float64(wr.InjectEvals)
	}
	writeWarmstartJSON(b, key, rep)
	b.ReportMetric(rep.EvalsReductionX, "evals-reduction-x")
	b.ReportMetric(rep.WallReductionX, "wall-reduction-x")
	b.ReportMetric(float64(cr.InjectEvals), "cold-inject-evals")
	b.ReportMetric(float64(wr.InjectEvals), "warm-inject-evals")
	b.ReportMetric(float64(wr.PrunedRuns), "pruned-runs")
	b.ReportMetric(rep.AllocsPerEval, "warm-allocs/eval")
}

// BenchmarkWarmVsCold measures the tentpole perf win: injections that
// warm-start from golden checkpoints and simulate only the post-strike
// tail, vs the legacy replay-from-zero path, at default options on the
// SoC1 netlist. Verdicts are asserted bit-identical inside the bench.
func BenchmarkWarmVsCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold, warm, mallocs := runWarmColdPair(b, sim.KindEvent, inject.DefaultOptions().SampleFrac)
		reportWarmCold(b, "eventsim", cold, warm, mallocs)
	}
}

// BenchmarkWarmVsColdLevelSim runs the same comparison on the levelized
// oblivious engine, where pruned tails avoid full-netlist sweeps. The
// sample fraction is reduced because the cold baseline is much slower.
func BenchmarkWarmVsColdLevelSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold, warm, mallocs := runWarmColdPair(b, sim.KindLevel, 0.04)
		reportWarmCold(b, "levelsim", cold, warm, mallocs)
	}
}

// BenchmarkWarmVsColdVCD runs the comparison with the faithful VCD
// detector: the cold side replays every injection from t=0 and diffs full
// traces (the paper's original method and the oracle), the warm side
// restores golden checkpoints and diffs its tail against the golden trace
// suffix. Verdict bit-identity is asserted by the shared pair runner; the
// benchmark additionally fails if the warm VCD path silently fell back to
// cold. The sample fraction is reduced because every cold VCD run parses
// and diffs a full trace.
func BenchmarkWarmVsColdVCD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := inject.DefaultOptions()
		opts.SampleFrac = 0.08
		opts.CompareVCD = true
		cold, warm, mallocs := runWarmColdPairOpts(b, opts)
		if warm.Result.WarmStarts == 0 {
			b.Fatal("CompareVCD campaign never warm-started")
		}
		reportWarmCold(b, "compare_vcd", cold, warm, mallocs)
	}
}

// BenchmarkSamplingAblation sweeps the per-cluster sampling fraction,
// trading campaign runtime against chip-SER estimate stability.
func BenchmarkSamplingAblation(b *testing.B) {
	for _, frac := range []float64{0.05, 0.15, 0.35} {
		b.Run(fmt.Sprintf("frac=%.2f", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := inject.DefaultOptions()
				opts.SampleFrac = frac
				opts.KN = 5
				cfg, _ := socgen.ConfigByIndex(1)
				run, err := inject.RunSoC(cfg, riscv.MemcpyProgram(16), fault.DefaultDB(), opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(run.Result.Injections)), "injections")
				b.ReportMetric(run.Result.ChipSER, "chip-ser")
			}
		})
	}
}

// BenchmarkClusterDepthAblation sweeps Eq. (1)'s layer depth LN and reports
// cluster compactness.
func BenchmarkClusterDepthAblation(b *testing.B) {
	cfg, _ := socgen.ConfigByIndex(5)
	d, err := socgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := netlist.Flatten(d)
	if err != nil {
		b.Fatal(err)
	}
	trails := make([][]string, len(f.Cells))
	for i, c := range f.Cells {
		trails[i] = c.Trail
	}
	for _, ln := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("LN=%d", ln), func(b *testing.B) {
			var quality float64
			for i := 0; i < b.N; i++ {
				res, err := cluster.ClusterTrails(trails, 14, ln, xrand.New(1))
				if err != nil {
					b.Fatal(err)
				}
				quality = res.MeanIntraDistance(trails)
			}
			b.ReportMetric(quality, "mean-intra-distance")
		})
	}
}

// BenchmarkKernelAblation compares linear vs RBF kernels on the SoC1 node
// dataset.
func BenchmarkKernelAblation(b *testing.B) {
	ec := benchConfig()
	an := soc1Analysis(b, ec)
	kernels := map[string]svm.Kernel{
		"linear": svm.Linear{},
		"rbf0.5": svm.RBF{Gamma: 0.5},
		"rbf2.0": svm.RBF{Gamma: 2.0},
	}
	for name, k := range kernels {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := svm.DefaultConfig()
				cfg.Kernel = k
				sel, err := an.Dataset.X.Select([]int{0, 1, 2, 3, 4, 5})
				if err != nil {
					b.Fatal(err)
				}
				cm, err := svm.CrossValidate(sel.Rows, an.Dataset.Y, 5, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*cm.Accuracy(), "cv-accuracy-%")
			}
		})
	}
}

// BenchmarkLETSweep runs the extension experiment: module SER and chip
// cross-sections across the database's three tabulated LET values.
func BenchmarkLETSweep(b *testing.B) {
	ec := benchConfig()
	for i := 0; i < b.N; i++ {
		g, err := sweep.LETGrid(ec, 1, nil, "memcpy")
		res := runGrid(b, "letsweep", g, err)
		b.ReportMetric(res["soc1-let100"].SEUXsect, "seu-xsect-let100-cm2")
	}
}
