package sweep

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/socgen"
	"repro/internal/ssresf"
)

// Grid couples a sweep's campaign enumeration with the aggregation that
// turns the merged per-campaign results back into the experiment's
// rendered artifact. Render consumes results keyed by campaign
// fingerprint — exactly what RunLocal and a campaignd sweep coordinator
// produce — and refuses a map missing any of the grid's campaigns.
// Because sharded campaigns merge bit-identically, every execution path
// renders the same bytes as the per-campaign cold inject.RunSoC oracle
// the tests compare against.
type Grid struct {
	Spec   SweepSpec
	Render func(w io.Writer, results map[string]*inject.Result) error
}

// newGrid builds a grid whose Render resolves every item's merged
// result in sweep order — refusing a map that lacks any of them — and
// hands the results to render.
func newGrid(name string, items []Item, render func(w io.Writer, res []*inject.Result) error) Grid {
	return Grid{
		Spec: SweepSpec{Name: name, Items: items},
		Render: func(w io.Writer, results map[string]*inject.Result) error {
			res := make([]*inject.Result, len(items))
			for i, it := range items {
				fp, err := it.Campaign.Fingerprint()
				if err != nil {
					return err
				}
				if res[i] = results[fp]; res[i] == nil {
					return fmt.Errorf("sweep: no merged result for campaign %q (%.12s)", it.Key, fp)
				}
			}
			return render(w, res)
		},
	}
}

// resolveWorkload pins the config's workload program to the named
// kernel — the single source the campaign specs fingerprint.
func resolveWorkload(ec *ssresf.ExperimentConfig, workload string) error {
	prog, err := shard.WorkloadProgram(workload)
	if err != nil {
		return err
	}
	ec.Workload = prog
	return nil
}

// TableIGrid enumerates the paper's Table I: the soft-error campaign on
// all ten SoC benchmarks, each at its Table I cluster count. workload
// names the RISC-V kernel; the constructor resolves it and overwrites
// ec.Workload with the same program, so campaign fingerprints and any
// in-process comparison always describe one kernel.
func TableIGrid(ec ssresf.ExperimentConfig, workload string) (Grid, error) {
	return benchmarkGrid("table1", ec, workload, func(w io.Writer, _ ssresf.ExperimentConfig, byIdx map[int]*inject.Result) error {
		rows, err := ssresf.TableIFromResults(byIdx)
		if err != nil {
			return err
		}
		ssresf.RenderTableI(w, rows)
		return nil
	})
}

// TableIIGrid enumerates Table II's campaigns — exactly Table I's, so
// results merged for a Table I grid render Table II as well. Rendering
// trains and cross-validates the classifier on every benchmark.
func TableIIGrid(ec ssresf.ExperimentConfig, workload string) (Grid, error) {
	return benchmarkGrid("table2", ec, workload, func(w io.Writer, ec ssresf.ExperimentConfig, byIdx map[int]*inject.Result) error {
		rows, avg, err := ssresf.TableIIFromResults(ec, nil, byIdx)
		if err != nil {
			return err
		}
		ssresf.RenderTableII(w, rows, avg)
		return nil
	})
}

// benchmarkGrid builds a grid of one campaign per Table I benchmark;
// render receives the results keyed by benchmark index.
func benchmarkGrid(name string, ec ssresf.ExperimentConfig, workload string,
	render func(w io.Writer, ec ssresf.ExperimentConfig, byIdx map[int]*inject.Result) error) (Grid, error) {
	if err := resolveWorkload(&ec, workload); err != nil {
		return Grid{}, err
	}
	var items []Item
	for _, cfg := range socgen.TableIConfigs() {
		items = append(items, Item{
			Key:      fmt.Sprintf("soc%d", cfg.Index),
			Campaign: shard.SpecFromOptions(cfg.Index, workload, ec.OptionsFor(cfg.Index)),
		})
	}
	return newGrid(name, items, func(w io.Writer, res []*inject.Result) error {
		byIdx := make(map[int]*inject.Result, len(res))
		for i, it := range items {
			byIdx[it.Campaign.SoC] = res[i]
		}
		return render(w, ec, byIdx)
	}), nil
}

// LETGrid enumerates the LET sensitivity sweep: the same campaign on one
// benchmark at each given LET (nil means the database's tabulated LETs).
func LETGrid(ec ssresf.ExperimentConfig, socIdx int, lets []float64, workload string) (Grid, error) {
	if err := resolveWorkload(&ec, workload); err != nil {
		return Grid{}, err
	}
	if _, err := socgen.ConfigByIndex(socIdx); err != nil {
		return Grid{}, err
	}
	if len(lets) == 0 {
		lets = fault.StandardLETs
	}
	lets = append([]float64{}, lets...)
	var items []Item
	for _, let := range lets {
		opts := ec.OptionsFor(socIdx)
		opts.LET = let
		items = append(items, Item{
			Key:      fmt.Sprintf("soc%d-let%g", socIdx, let),
			Campaign: shard.SpecFromOptions(socIdx, workload, opts),
		})
	}
	return newGrid(fmt.Sprintf("let-soc%d", socIdx), items, func(w io.Writer, res []*inject.Result) error {
		byLET := make(map[float64]*inject.Result, len(res))
		for i, r := range res {
			byLET[lets[i]] = r
		}
		pts, err := ssresf.LETSweepFromResults(lets, byLET)
		if err != nil {
			return err
		}
		ssresf.RenderLETSweep(w, socIdx, pts)
		return nil
	}), nil
}

// TableIIIGrid enumerates the runtime-comparison grid: the SoC1 base
// campaign (classifier training data) plus, for every flux, one
// campaign per engine. The ML phase runs at aggregation time in the
// rendering process; only the simulation campaigns distribute.
func TableIIIGrid(ec ssresf.ExperimentConfig, fluxes []float64, workload string) (Grid, error) {
	return fluxGrid("table3", ec, fluxes, workload, []sim.EngineKind{sim.KindEvent, sim.KindLevel},
		func(w io.Writer, ec ssresf.ExperimentConfig, fluxes []float64, base *inject.Result, byFlux []map[float64]*inject.Result) error {
			rows, avg, err := ssresf.TableIIIFromResults(ec, fluxes, base, byFlux[0], byFlux[1])
			if err != nil {
				return err
			}
			ssresf.RenderTableIII(w, rows, avg)
			return nil
		})
}

// Fig7Grid enumerates Fig. 7's campaigns — the Table III grid's base and
// EventSim campaigns, with identical fingerprints — so results merged
// for a Table III grid render Fig. 7 without re-simulating anything.
func Fig7Grid(ec ssresf.ExperimentConfig, fluxes []float64, workload string) (Grid, error) {
	return fluxGrid("fig7", ec, fluxes, workload, []sim.EngineKind{sim.KindEvent},
		func(w io.Writer, ec ssresf.ExperimentConfig, fluxes []float64, base *inject.Result, byFlux []map[float64]*inject.Result) error {
			rows, err := ssresf.Fig7FromResults(ec, fluxes, base, byFlux[0])
			if err != nil {
				return err
			}
			ssresf.RenderFig7(w, rows)
			return nil
		})
}

// fluxGrid builds a grid of the SoC1 base campaign followed, for every
// flux (nil means the paper's five), by one campaign per engine; render
// receives the base result and, per engine, the results keyed by flux.
func fluxGrid(name string, ec ssresf.ExperimentConfig, fluxes []float64, workload string, engines []sim.EngineKind,
	render func(w io.Writer, ec ssresf.ExperimentConfig, fluxes []float64, base *inject.Result, byFlux []map[float64]*inject.Result) error) (Grid, error) {
	if err := resolveWorkload(&ec, workload); err != nil {
		return Grid{}, err
	}
	if len(fluxes) == 0 {
		fluxes = ssresf.TableIIIFluxes
	}
	fluxes = append([]float64{}, fluxes...)
	items := []Item{{Key: "t3-base", Campaign: shard.SpecFromOptions(1, workload, ec.OptionsFor(1))}}
	for _, flux := range fluxes {
		opts := ec.TableIIIFluxOptions(flux)
		for _, eng := range engines {
			opts.Engine = eng
			key := fmt.Sprintf("t3-flux%g-%s", flux, strings.ToLower(strings.TrimSuffix(string(eng), "Sim")))
			items = append(items, Item{Key: key, Campaign: shard.SpecFromOptions(1, workload, opts)})
		}
	}
	return newGrid(name, items, func(w io.Writer, res []*inject.Result) error {
		byFlux := make([]map[float64]*inject.Result, len(engines))
		for e := range engines {
			byFlux[e] = make(map[float64]*inject.Result, len(fluxes))
			for i, flux := range fluxes {
				byFlux[e][flux] = res[1+i*len(engines)+e]
			}
		}
		return render(w, ec, fluxes, res[0], byFlux)
	}), nil
}

// Concat joins grids into one sweep: the campaign lists concatenate in
// order and rendering emits each member grid's artifact in sequence —
// e.g. the LET sweeps of two benchmarks drained by one worker fleet.
func Concat(name string, grids ...Grid) Grid {
	var items []Item
	for _, g := range grids {
		items = append(items, g.Spec.Items...)
	}
	return Grid{
		Spec: SweepSpec{Name: name, Items: items},
		Render: func(w io.Writer, results map[string]*inject.Result) error {
			for _, g := range grids {
				if err := g.Render(w, results); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// GridParams is the declarative, wire-format description of a grid: the
// kind plus the handful of parameters the GridFlags surface exposes. It
// is what a client POSTs to a coordinator to submit a sweep, and Grid()
// funnels it through the exact constructors the CLIs use — so a grid
// submitted over the wire, named on a socfault command line, or served
// by campaignd resolves to identical campaign fingerprints, which is
// what makes their journals interchangeable and their rendered outputs
// byte-comparable. Zero values mean the defaults the flags document:
// workload "memcpy", SoC 1, and each grid's own LET/flux set.
type GridParams struct {
	// Kind selects the grid: "table1" (all benchmarks), "table3"
	// (fluxes x engines on SoC1) or "let" (LET sweep on one benchmark).
	Kind     string    `json:"kind"`
	SoC      int       `json:"soc,omitempty"`    // let: benchmark index (0 = 1)
	LETs     []float64 `json:"lets,omitempty"`   // let: points (nil = tabulated)
	Fluxes   []float64 `json:"fluxes,omitempty"` // table3: fluxes (nil = the paper's)
	Workload string    `json:"workload,omitempty"`
	Quick    bool      `json:"quick,omitempty"` // reduced-sampling experiment config
}

// Grid materializes and validates the described grid.
func (p GridParams) Grid() (Grid, error) {
	workload := p.Workload
	if workload == "" {
		workload = "memcpy"
	}
	soc := p.SoC
	if soc == 0 {
		soc = 1
	}
	ec := ssresf.DefaultExperimentConfig(p.Quick)
	var g Grid
	var err error
	switch p.Kind {
	case "table1":
		g, err = TableIGrid(ec, workload)
	case "table3":
		g, err = TableIIIGrid(ec, p.Fluxes, workload)
	case "let":
		g, err = LETGrid(ec, soc, p.LETs, workload)
	default:
		return Grid{}, fmt.Errorf("unknown sweep kind %q (want table1, table3 or let)", p.Kind)
	}
	if err != nil {
		return Grid{}, err
	}
	if err := g.Spec.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// GridParamsFlags registers the sweep-defining flags on fs and returns a
// closure that lifts them into a GridParams after parsing (ok is false
// when no sweep was requested). Like shard.CampaignFlags, this is the
// one registration point every CLI that names a sweep goes through —
// cmd/socfault running (or submitting) a grid and cmd/campaignd serving
// it to a worker fleet parse identical flags into identical campaign
// fingerprints, which is what lets one journal resume under either tool
// and makes their outputs byte-comparable.
func GridParamsFlags(fs *flag.FlagSet) func() (GridParams, bool, error) {
	mode := fs.String("sweep", "", "experiment grid to run as one sweep: table1 (all benchmarks), table3 (fluxes x engines on SoC1), let (LET sweep)")
	socIdx := fs.Int("sweep-soc", 1, "benchmark the LET sweep runs on")
	lets := fs.String("lets", "", "comma-separated LET points for -sweep let (default: the database's tabulated LETs)")
	fluxes := fs.String("fluxes", "", "comma-separated fluxes for -sweep table3 (default: the paper's five)")
	workload := fs.String("sweep-workload", "memcpy", "workload kernel every sweep campaign runs")
	quick := fs.Bool("quick", false, "reduced sampling (the fast-test experiment config) for every sweep campaign")
	return func() (GridParams, bool, error) {
		if *mode == "" {
			return GridParams{}, false, nil
		}
		// A sweep derives every campaign from the grid flags; a
		// single-campaign flag set alongside -sweep would be silently
		// ignored and the grid would answer a different question than the
		// user asked. Reject the combination outright.
		var conflicts []string
		fs.Visit(func(f *flag.Flag) {
			if shard.CampaignFlagNames[f.Name] {
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			return GridParams{}, false, fmt.Errorf("single-campaign flag(s) %s have no effect under -sweep; use the sweep flags (-sweep-soc, -lets, -fluxes, -sweep-workload, -quick)",
				strings.Join(conflicts, " "))
		}
		ls, err := parseFloats(*lets)
		if err != nil {
			return GridParams{}, false, fmt.Errorf("-lets: %v", err)
		}
		fl, err := parseFloats(*fluxes)
		if err != nil {
			return GridParams{}, false, fmt.Errorf("-fluxes: %v", err)
		}
		return GridParams{
			Kind:     *mode,
			SoC:      *socIdx,
			LETs:     ls,
			Fluxes:   fl,
			Workload: *workload,
			Quick:    *quick,
		}, true, nil
	}
}

// GridFlags is GridParamsFlags with the grid already materialized — the
// entry point for CLIs that run the grid in-process rather than submit
// its description to a coordinator.
func GridFlags(fs *flag.FlagSet) func() (Grid, bool, error) {
	paramsOf := GridParamsFlags(fs)
	return func() (Grid, bool, error) {
		p, ok, err := paramsOf()
		if err != nil || !ok {
			return Grid{}, ok, err
		}
		g, err := p.Grid()
		if err != nil {
			return Grid{}, false, err
		}
		return g, true, nil
	}
}

// parseFloats parses a comma-separated float list; empty means nil
// (each grid substitutes its own default set).
func parseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
