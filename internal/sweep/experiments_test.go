package sweep

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/sim"
	"repro/internal/ssresf"
)

// trendEC is the reduced-sampling config the paper-trend tests run their
// grids at.
func trendEC() ssresf.ExperimentConfig {
	ec := ssresf.DefaultExperimentConfig(true)
	ec.Inject.SampleFrac = 0.06
	return ec
}

// runGrid executes every campaign of the grid through RunLocal and
// returns the merged results keyed by item key.
func runGrid(t *testing.T, g Grid) (byKey, byFP map[string]*inject.Result) {
	t.Helper()
	byFP, err := RunLocal(g.Spec, LocalOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	byKey = make(map[string]*inject.Result, len(g.Spec.Items))
	for _, it := range g.Spec.Items {
		byKey[it.Key] = byFP[cfpOf(t, it.Campaign)]
	}
	return byKey, byFP
}

func TestTableISubsetTrends(t *testing.T) {
	// The headline trends of Table I: SoC1 (SRAM) vs SoC2 (DRAM) memory
	// ordering, and SoC10 rad-hard collapse.
	grid := mustGrid(t)(TableIGrid(trendEC(), "memcpy"))
	_, results := runGrid(t, grid)
	byRes := map[int]*inject.Result{}
	for _, it := range grid.Spec.Items {
		byRes[it.Campaign.SoC] = results[cfpOf(t, it.Campaign)]
	}
	rows, err := ssresf.TableIFromResults(byRes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	byIdx := map[int]ssresf.TableIRow{}
	for _, r := range rows {
		byIdx[r.Index] = r
	}
	// Rad-hard SRAM must have far lower memory SER than same-size SRAM.
	if byIdx[10].MemSER >= byIdx[9].MemSER/2 {
		t.Errorf("rad-hard memory SER %.4f not well below SRAM %.4f", byIdx[10].MemSER, byIdx[9].MemSER)
	}
	// Cross-sections must grow with SoC complexity.
	if byIdx[10].SEUXsect <= byIdx[1].SEUXsect {
		t.Errorf("SEU xsect must grow: SoC1 %.3e vs SoC10 %.3e", byIdx[1].SEUXsect, byIdx[10].SEUXsect)
	}
	if byIdx[9].SETXsect <= byIdx[1].SETXsect {
		t.Errorf("SET xsect must grow: SoC1 %.3e vs SoC9 %.3e", byIdx[1].SETXsect, byIdx[9].SETXsect)
	}
	// Cluster counts match the paper's column.
	for i, want := range []int{5, 6, 8, 9, 14, 15, 18, 19, 21, 23} {
		if byIdx[i+1].Clusters != want {
			t.Errorf("SoC%d clusters = %d, want %d", i+1, byIdx[i+1].Clusters, want)
		}
	}
	var buf bytes.Buffer
	if err := grid.Render(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PULP SoC10") {
		t.Error("Table I rendering incomplete")
	}
}

// tableIIIInputs splits a Table III (or Fig. 7) grid's results into the
// base campaign and the per-flux EventSim and LevelSim campaigns.
func tableIIIInputs(t *testing.T, g Grid, byKey map[string]*inject.Result) (base *inject.Result, ev, lv map[float64]*inject.Result) {
	t.Helper()
	ev, lv = map[float64]*inject.Result{}, map[float64]*inject.Result{}
	for _, it := range g.Spec.Items {
		r := byKey[it.Key]
		switch {
		case it.Key == "t3-base":
			base = r
		case it.Campaign.Engine == string(sim.KindEvent):
			ev[it.Campaign.Flux] = r
		default:
			lv[it.Campaign.Flux] = r
		}
	}
	return base, ev, lv
}

func TestTableIIITwoFluxes(t *testing.T) {
	ec := trendEC()
	// Accuracy compares module counts between independent campaigns, so
	// the test needs enough samples per run to estimate them.
	ec.Inject.SampleFrac = 0.12
	fluxes := []float64{4e8, 6e8}
	grid := mustGrid(t)(TableIIIGrid(ec, fluxes, "memcpy"))
	byKey, _ := runGrid(t, grid)
	base, ev, lv := tableIIIInputs(t, grid, byKey)
	rows, avg, err := ssresf.TableIIIFromResults(ec, fluxes, base, ev, lv)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SpeedupVCS <= 1 || r.SpeedupCVC <= 1 {
			t.Errorf("flux %.0e: model must be faster than simulation (VCS %.2f, CVC %.2f)",
				r.Flux, r.SpeedupVCS, r.SpeedupCVC)
		}
		if r.Accuracy < 0.5 {
			t.Errorf("flux %.0e: accuracy %.3f", r.Flux, r.Accuracy)
		}
	}
	// Higher flux means more injections, hence longer simulation.
	if rows[1].VCSRuntime <= rows[0].VCSRuntime/2 {
		t.Errorf("runtime should grow with flux: %v vs %v", rows[0].VCSRuntime, rows[1].VCSRuntime)
	}
	if avg.SpeedupVCS == 0 {
		t.Error("average row missing")
	}
	var buf bytes.Buffer
	ssresf.RenderTableIII(&buf, rows, avg)
	if !strings.Contains(buf.String(), "Avg.") {
		t.Error("Table III rendering incomplete")
	}
}

func TestFig7Distribution(t *testing.T) {
	ec := trendEC()
	fluxes := []float64{5e8}
	grid := mustGrid(t)(Fig7Grid(ec, fluxes, "memcpy"))
	byKey, _ := runGrid(t, grid)
	base, ev, _ := tableIIIInputs(t, grid, byKey)
	rows, err := ssresf.Fig7FromResults(ec, fluxes, base, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // one flux + the SVM row
		t.Fatalf("%d rows", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Source != "SVM Classifier" {
		t.Errorf("last row is %q", last.Source)
	}
	for _, r := range rows {
		for _, mod := range []string{"Memory", "Bus", "CPU Logic"} {
			if _, ok := r.Percent[mod]; !ok {
				t.Errorf("row %s missing module %s", r.Source, mod)
			}
		}
	}
	var buf bytes.Buffer
	ssresf.RenderFig7(&buf, rows)
	if !strings.Contains(buf.String(), "SVM Classifier") {
		t.Error("Fig7 rendering incomplete")
	}
}

// TestFig7GridSharesTableIIICampaigns pins that Fig. 7 re-simulates
// nothing: every campaign it reads is one of the Table III grid's, so
// results merged for Table III render Fig. 7 as well.
func TestFig7GridSharesTableIIICampaigns(t *testing.T) {
	t3, err := mustGrid(t)(TableIIIGrid(quickEC(), nil, "memcpy")).Spec.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	f7 := mustGrid(t)(Fig7Grid(quickEC(), nil, "memcpy")).Spec
	if len(f7.Items) != 1+len(ssresf.TableIIIFluxes) {
		t.Fatalf("Fig. 7 grid enumerates %d campaigns, want the base plus one per flux", len(f7.Items))
	}
	for _, it := range f7.Items {
		if !t3[cfpOf(t, it.Campaign)] {
			t.Errorf("Fig. 7 campaign %q is not in the Table III grid", it.Key)
		}
	}
}

func TestLETSweepMonotoneXsect(t *testing.T) {
	grid := mustGrid(t)(LETGrid(trendEC(), 1, nil, "memcpy"))
	byKey, results := runGrid(t, grid)
	byLET := map[float64]*inject.Result{}
	for _, it := range grid.Spec.Items {
		byLET[it.Campaign.LET] = byKey[it.Key]
	}
	pts, err := ssresf.LETSweepFromResults(fault.StandardLETs, byLET)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points, want 3 standard LETs", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].LET <= pts[i-1].LET {
			t.Fatal("LET points out of order")
		}
		if pts[i].SEUXsect <= pts[i-1].SEUXsect {
			t.Errorf("SEU xsect must grow with LET: %g -> %g", pts[i-1].SEUXsect, pts[i].SEUXsect)
		}
		if pts[i].SETXsect <= pts[i-1].SETXsect {
			t.Errorf("SET xsect must grow with LET: %g -> %g", pts[i-1].SETXsect, pts[i].SETXsect)
		}
	}
	var buf bytes.Buffer
	if err := grid.Render(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LET sensitivity sweep") {
		t.Error("LET sweep rendering incomplete")
	}
}
