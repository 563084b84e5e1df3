package ssresf

import (
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/inject"
)

// LETPoint is one point of the LET sensitivity sweep: the extension
// experiment the paper's database design implies but never evaluates —
// the same campaign at each tabulated LET value, showing the Weibull
// growth of module soft-error rates with deposited energy. The paper
// selects LET 1.0/37.0/100.0 "to encompass different radiation
// environments"; the sweep quantifies what that choice spans.
type LETPoint struct {
	LET      float64
	ChipSER  float64
	MemSER   float64 // percent
	BusSER   float64 // percent
	CPUSER   float64 // percent
	SEUXsect float64
	SETXsect float64
}

// LETSweepFromResults assembles the sweep from already-executed campaign
// results keyed by LET — the aggregation half of a distributed LET sweep.
// Points come out in the order of lets; a missing LET is an error.
func LETSweepFromResults(lets []float64, results map[float64]*inject.Result) ([]LETPoint, error) {
	if len(lets) == 0 {
		lets = fault.StandardLETs
	}
	var pts []LETPoint
	for _, let := range lets {
		r, ok := results[let]
		if !ok || r == nil {
			return nil, fmt.Errorf("ssresf: LET sweep aggregation missing LET %g's campaign result", let)
		}
		mem, bus, cpu := moduleSERs(r)
		pts = append(pts, LETPoint{
			LET:      let,
			ChipSER:  r.ChipSER,
			MemSER:   mem,
			BusSER:   bus,
			CPUSER:   cpu,
			SEUXsect: r.SEUXsect,
			SETXsect: r.SETXsect,
		})
	}
	return pts, nil
}

// RenderLETSweep writes the sweep as an aligned table.
func RenderLETSweep(w io.Writer, socIdx int, pts []LETPoint) {
	fmt.Fprintf(w, "EXTENSION: LET sensitivity sweep on PULP SoC%d\n", socIdx)
	fmt.Fprintf(w, "%-8s %-10s %-10s %-10s %-10s %-12s %-12s\n",
		"LET", "ChipSER", "MemSER%", "BusSER%", "CPUSER%", "SEUXsect", "SETXsect")
	for _, p := range pts {
		fmt.Fprintf(w, "%-8.1f %-10.4f %-10.4f %-10.4f %-10.4f %-12.3e %-12.3e\n",
			p.LET, p.ChipSER, p.MemSER, p.BusSER, p.CPUSER, p.SEUXsect, p.SETXsect)
	}
}
