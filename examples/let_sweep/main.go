// let_sweep runs the extension experiment: the same fault-injection
// campaign at each tabulated LET of the soft-error database (1.0, 37.0,
// 100.0 MeV·cm²/mg), showing how module soft-error rates and chip
// cross-sections grow with deposited energy. The paper selects these three
// LETs "to encompass different radiation environments" but never sweeps
// them; this example quantifies what the choice spans.
//
// The sweep runs through the grid machinery: every LET's campaign
// executes as -shards shards (default 1) whose merge is bit-identical to
// an unsharded run, with an optional resumable -journal — the same grid
// a `campaignd serve -sweep let` coordinator hands to a worker fleet.
//
// With -submit URL the sweep does not run here at all: its declarative
// description goes to a running campaignd coordinator over the typed
// capi client, the fleet drains it, and the fetched rendered results —
// byte-identical to every local path — are printed.
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

	params := sweep.GridParams{Kind: "let", SoC: 1, Workload: "memcpy"}
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
