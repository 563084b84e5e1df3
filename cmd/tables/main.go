// Command tables regenerates every table and figure of the paper's
// evaluation section in one run.
//
// Usage:
//
//	tables              # everything, full sampling
//	tables -quick       # reduced sampling (fast smoke run)
//	tables -table 1     # only Table I
//	tables -fig 5       # only Fig. 5
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/socgen"
	"repro/internal/ssresf"
	"repro/internal/sweep"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sampling for a fast run")
	table := flag.Int("table", 0, "regenerate only this table (1-3)")
	fig := flag.Int("fig", 0, "regenerate only this figure (5-7)")
	flag.Parse()

	ec := ssresf.DefaultExperimentConfig(*quick)
	all := *table == 0 && *fig == 0
	out := os.Stdout

	// Table II trains on Table I's campaigns, so one run of the Table I
	// grid renders both.
	t1, t2 := must(sweep.TableIGrid(ec, "memcpy")), must(sweep.TableIIGrid(ec, "memcpy"))
	switch {
	case all:
		renderAll(t1.Spec, t1, t2)
	case *table == 1:
		renderAll(t1.Spec, t1)
	case *table == 2:
		renderAll(t2.Spec, t2)
	}
	if all || *fig == 5 || *fig == 6 {
		cfg, err := socgen.ConfigByIndex(1)
		if err != nil {
			fatal(err)
		}
		an, err := ssresf.AnalyzeSoC(cfg, ec.Workload, ec.DB, ec.OptionsFor(1))
		if err != nil {
			fatal(err)
		}
		if all || *fig == 5 {
			pts, err := ssresf.Fig5(an.Dataset, ec.Train.Folds, ec.Train.Seed)
			if err != nil {
				fatal(err)
			}
			ssresf.RenderFig5(out, pts)
			fmt.Fprintln(out)
		}
		if all || *fig == 6 {
			cls, err := ssresf.Train(an.Dataset, ec.Train)
			if err != nil {
				fatal(err)
			}
			curve, auc, err := ssresf.Fig6(cls, an)
			if err != nil {
				fatal(err)
			}
			ssresf.RenderFig6(out, curve, auc)
			fmt.Fprintln(out)
		}
	}
	// Fig. 7 reads a subset of Table III's campaigns, so one run of the
	// Table III grid renders both.
	t3, f7 := must(sweep.TableIIIGrid(ec, nil, "memcpy")), must(sweep.Fig7Grid(ec, nil, "memcpy"))
	switch {
	case all:
		renderAll(t3.Spec, t3, f7)
	case *table == 3:
		renderAll(t3.Spec, t3)
	case *fig == 7:
		renderAll(f7.Spec, f7)
	}
}

// renderAll runs every campaign of spec in this process and renders
// each grid from the merged results, a blank line after each.
func renderAll(spec sweep.SweepSpec, grids ...sweep.Grid) {
	results, err := sweep.RunLocal(spec, sweep.LocalOptions{Shards: 1})
	if err != nil {
		fatal(err)
	}
	for _, g := range grids {
		if err := g.Render(os.Stdout, results); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stdout)
	}
}

func must(g sweep.Grid, err error) sweep.Grid {
	if err != nil {
		fatal(err)
	}
	return g
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}
