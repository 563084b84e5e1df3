// soc_sweep reproduces Table I: soft-error campaigns across all ten PULP
// SoC configurations, reporting per-module SER, cluster counts and total
// SET/SEU cross-sections. Expect the paper's trends: bus and memory above
// CPU logic, SER growing with memory size / bus width / core count, and
// the rad-hard SRAM of SoC10 collapsing the memory column.
//
// The table runs through the grid machinery: ten campaigns as one
// sweep, each split into -shards shards (default 1) with an optional
// resumable -journal, rendering the same bytes at any shard count —
// locally here, or distributed over a fleet with `campaignd serve
// -sweep table1`.
//
// With -submit URL the table is produced by a running fleet instead:
// the grid's declarative description goes to a campaignd coordinator
// over the typed capi client, workers drain all ten campaigns, and the
// fetched rendered Table I — byte-identical to every local path — is
// printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/capi"
	"repro/internal/sweep"
)

func main() {
	shards := flag.Int("shards", 1, "shards per campaign")
	journal := flag.String("journal", "", "sweep journal file")
	resume := flag.Bool("resume", false, "resume from -journal, skipping recorded shards")
	submit := flag.String("submit", "", "submit the sweep to the campaignd coordinator at this URL and fetch its results")
	flag.Parse()

	params := sweep.GridParams{Kind: "table1", Workload: "memcpy"}
	if *submit != "" {
		submitAndFetch(*submit, params)
		return
	}
	grid, err := params.Grid()
	if err != nil {
		log.Fatal(err)
	}
	results, err := sweep.RunLocal(grid.Spec, sweep.LocalOptions{
		Shards:  *shards,
		Journal: *journal,
		Resume:  *resume,
		Logf:    log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := grid.Render(os.Stdout, results); err != nil {
		log.Fatal(err)
	}
}

// submitAndFetch is the submit-then-fetch-results walkthrough: one
// Submit, a WaitSweep watching per-campaign progress, one Results.
func submitAndFetch(url string, params sweep.GridParams) {
	ctx := context.Background()
	client := capi.NewClient(url)
	reply, err := client.Submit(ctx, params)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("sweep %s (%.12s): %d campaigns on %s", reply.Name, reply.Fingerprint, reply.Campaigns, url)
	st, err := client.WaitSweep(ctx, reply.Fingerprint, func(st capi.SweepStatus) {
		log.Printf("%d/%d campaigns done", st.Progress.CampaignsDone, st.Progress.CampaignsTotal)
	})
	if err != nil {
		log.Fatal(err)
	}
	if st.State != capi.StateDone {
		log.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}
	rendered, err := client.Results(ctx, reply.Fingerprint)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(string(rendered))
}
