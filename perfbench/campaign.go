package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/sim"
	"repro/internal/socgen"
	"repro/internal/ssresf"
)

// socInputs is one generated benchmark: its flat netlist and stimulus.
type socInputs struct {
	flat *netlist.Flat
	plan *socgen.StimulusPlan
}

// buildSoC generates, flattens and stimulates one Table I benchmark —
// PrepareSoC's steps before the campaign, one span per layer.
func buildSoC(cfg socgen.Config, prog riscv.Program, tr *tracer, parent int) (*socInputs, error) {
	var d *netlist.Design
	var in socInputs
	err := tr.call("socgen.generate", parent, func() (err error) {
		d, err = socgen.Generate(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := tr.call("netlist.flatten", parent, func() (err error) {
		in.flat, err = netlist.Flatten(d)
		return err
	}); err != nil {
		return nil, err
	}
	err = tr.call("socgen.stimulus", parent, func() error {
		wl, err := socgen.RunWorkload(prog, inject.WorkloadCycles)
		if err != nil {
			return err
		}
		in.plan, err = socgen.BuildStimulus(in.flat, wl)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &in, nil
}

var engines = []struct {
	kind sim.EngineKind
	tag  string
}{{sim.KindEvent, "event"}, {sim.KindLevel, "level"}}

// campaignSeeds are the Options.Seed values every soc10-campaign run
// covers, one campaign seed per operation in the workload seed's order.
// Campaign cost differs by about ±9% between campaign seeds (different
// sampled cells and strike times), so one campaign seed per run would
// turn that into run-to-run spread; a fixed set keeps runs comparable
// and lets each build compute the cold oracles once. Two seeds keep that
// first computation (four cold campaigns, about 45 s on two idle vCPUs)
// well inside a run's time limit.
var campaignSeeds = []uint64{1, 2}

// runCampaign is soc10-campaign: in-process warm-start campaigns on
// Table I SoC10 at the paper's 0.2 sampling; each operation runs one
// EventSim and one LevelSim campaign (inject.New + Campaign.Run). The
// oracle is the cold replay-from-zero campaign (Options.ColdStart) for
// the same campaign seed, run after the measuring window.
func runCampaign(r *run) error {
	r.show = []metricDef{{"campaign_event_s", "s"}, {"campaign_level_s", "s"}, {"injections_per_s", "1/s"}}
	cfg, err := socgen.ConfigByIndex(10)
	if err != nil {
		return err
	}
	db := fault.DefaultDB()
	ec := ssresf.DefaultExperimentConfig(false)
	base := ec.OptionsFor(cfg.Index)
	base.CellWeight = socgen.Weights(cfg)

	var in *socInputs
	for k := 0; k < setupReps; k++ {
		if err := r.setup(func(tr *tracer) (err error) {
			in, err = buildSoC(cfg, ec.Workload, tr, 0)
			return err
		}); err != nil {
			return err
		}
	}

	type key struct {
		tag  string
		seed uint64
	}
	verdicts := map[key]map[int]string{}
	order := permute(r.cfg.seed, campaignSeeds)
	r.loop(len(order), func(o opCtx) (time.Duration, error) {
		var total time.Duration
		injections := 0
		for _, e := range engines {
			opts := base
			opts.Engine = e.kind
			opts.Seed = order[o.input%len(order)]
			d, res, err := campaignOnce(in, db, opts, o.tr, o.root, e.tag)
			if err != nil {
				return 0, err
			}
			v, err := verdictDigest(res)
			if err != nil {
				return 0, err
			}
			k := key{e.tag, opts.Seed}
			if verdicts[k] == nil {
				verdicts[k] = map[int]string{}
			}
			verdicts[k][o.id] = v
			total += d
			injections += len(res.Injections)
			r.add(o, "campaign_"+e.tag+"_s", d.Seconds())
		}
		r.add(o, "injections_per_s", float64(injections)/total.Seconds())
		return total, nil
	})
	r.samples["peak_rss_mb"] = []float64{maxRSSMB()}

	for _, e := range engines {
		for _, seed := range campaignSeeds {
			opts := base
			opts.Engine = e.kind
			opts.Seed = seed
			opts.ColdStart = true
			want, err := r.oracleDigest(fmt.Sprintf("soc10-%s-seed%d", e.tag, seed), func() (string, error) {
				camp, res, err := inject.New(in.flat, in.plan, db, opts)
				if err != nil {
					return "", err
				}
				if err := camp.Run(res); err != nil {
					return "", err
				}
				return verdictDigest(res)
			})
			if err != nil {
				return err
			}
			r.checkOutputs(fmt.Sprintf("soc10 %s seed %d verdicts", e.tag, seed), verdicts[key{e.tag, seed}], want)
		}
	}
	return nil
}

// campaignOnce runs one warm-start campaign and returns its host time.
// Traced, it records the inject.New (golden) and Campaign.Run spans and
// the sim and inject counts under the engine's tag.
func campaignOnce(in *socInputs, db *fault.DB, opts inject.Options, tr *tracer, parent int, tag string) (time.Duration, *inject.Result, error) {
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	cspan := tr.begin("inject."+tag+".campaign", parent)
	var camp *inject.Campaign
	var res *inject.Result
	err := tr.call("inject.golden", cspan, func() (err error) {
		camp, res, err = inject.New(in.flat, in.plan, db, opts)
		return err
	})
	if err == nil {
		err = tr.call("inject.run", cspan, func() error { return camp.Run(res) })
	}
	tr.end(cspan)
	d := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	if tr != nil {
		runtime.ReadMemStats(&after)
		evals := float64(res.GoldenEvals + res.InjectEvals)
		n := float64(len(res.Injections))
		tr.count("sim."+tag+".evals", evals)
		tr.set("sim."+tag+".ns_per_eval", float64(d.Nanoseconds())/evals)
		tr.set("sim."+tag+".allocs_per_eval", float64(after.Mallocs-before.Mallocs)/evals)
		tr.count("inject.restore_s", res.RestoreWall.Seconds())
		// Ratios are averaged over the engines of one operation.
		tr.count("inject.evals_per_injection", float64(res.InjectEvals)/n/float64(len(engines)))
		tr.count("inject.pruned_ratio", float64(res.PrunedRuns)/n/float64(len(engines)))
		tr.count("inject.warm_start_ratio", float64(res.WarmStarts)/n/float64(len(engines)))
	}
	return d, res, nil
}

// verdictDigest hashes a campaign's injection list — cell, kind, strike
// time, pulse, cluster and soft-error verdict of every injection.
func verdictDigest(res *inject.Result) (string, error) {
	b, err := json.Marshal(res.Injections)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}
