package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// initCornerDesign holds one zero-initialized flop (DFFX1 has no async
// control, so it powers up at 0) and a TIEHI/TIELO pair: exactly the
// cells whose outputs NewEventSim seeds with t=0 transitions that are not
// registered as the nets' pending inertial transitions.
func initCornerDesign(t *testing.T) *netlist.Flat {
	t.Helper()
	d := netlist.NewDesign("initcorner")
	m := netlist.NewModule("initcorner")
	m.AddPort("clk", netlist.Input)
	m.AddPort("d", netlist.Input)
	m.AddPort("q", netlist.Output)
	m.AddPort("qn", netlist.Output)
	m.AddPort("hi", netlist.Output)
	m.AddPort("lo", netlist.Output)
	m.AddInstance("u_ff", "DFFX1", map[string]string{"D": "d", "CK": "clk", "Q": "q", "QN": "qn"})
	m.AddInstance("u_hi", "TIEHI", map[string]string{"Y": "hi"})
	m.AddInstance("u_lo", "TIELO", map[string]string{"Y": "lo"})
	d.AddModule(m)
	d.Top = "initcorner"
	f, err := netlist.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// initCornerTrajectory reads q/qn/hi/lo and the flop state before the
// first Run and after running to each of the given times.
func initCornerTrajectory(t *testing.T, e Engine, times []uint64) string {
	t.Helper()
	f := e.Flat()
	q, qn := netID(t, f, "q"), netID(t, f, "qn")
	hi, lo := netID(t, f, "hi"), netID(t, f, "lo")
	ff := cellIDByPath(t, e, "u_ff")
	var b strings.Builder
	read := func(label string) {
		st, err := e.State(ff)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s q=%v qn=%v hi=%v lo=%v state=%v\n",
			label, e.Value(q), e.Value(qn), e.Value(hi), e.Value(lo), st)
	}
	read("pre")
	for _, tm := range times {
		if err := e.Run(tm); err != nil {
			t.Fatal(err)
		}
		read(fmt.Sprintf("t=%d", tm))
	}
	return b.String()
}

// TestEventSimInitEventCorner pins EventSim's trajectory around the t=0
// seeding events of tie cells and zero-initialized storage. Those events
// are live but not any net's pending transition, so a flip issued before
// they fire schedules a second transition instead of cancelling them, and
// when a seeding event fires it clears the net's pending slot, leaving the
// flip's transition live but no longer cancellable by the flop's own
// later output changes. The expected strings are the engine's behaviour
// as first recorded; the DFFX1 delay is 80 ps.
func TestEventSimInitEventCorner(t *testing.T) {
	f := initCornerDesign(t)
	clk, d := netID(t, f, "clk"), netID(t, f, "d")
	ffID := func(e Engine) int { return cellIDByPath(t, e, "u_ff") }
	stimulus := func(t *testing.T, e Engine, edgeAt uint64) {
		t.Helper()
		if err := e.ScheduleInput(0, clk, logic.L0); err != nil {
			t.Fatal(err)
		}
		if err := e.ScheduleInput(0, d, logic.L0); err != nil {
			t.Fatal(err)
		}
		if edgeAt > 0 {
			if err := e.ScheduleInput(edgeAt, clk, logic.L1); err != nil {
				t.Fatal(err)
			}
		}
	}
	times := []uint64{0, 20, 40, 79, 80, 200}
	cases := []struct {
		name  string
		setup func(t *testing.T, e Engine)
		want  string
	}{
		{
			name: "flip-before-run",
			setup: func(t *testing.T, e Engine) {
				stimulus(t, e, 0)
				if err := e.FlipState(ffID(e)); err != nil {
					t.Fatal(err)
				}
			},
			want: `pre q=x qn=x hi=x lo=x state=1
t=0 q=0 qn=1 hi=1 lo=0 state=1
t=20 q=0 qn=1 hi=1 lo=0 state=1
t=40 q=0 qn=1 hi=1 lo=0 state=1
t=79 q=0 qn=1 hi=1 lo=0 state=1
t=80 q=1 qn=0 hi=1 lo=0 state=1
t=200 q=1 qn=0 hi=1 lo=0 state=1
`,
		},
		{
			name: "flip-before-run-then-capture",
			setup: func(t *testing.T, e Engine) {
				stimulus(t, e, 20)
				if err := e.FlipState(ffID(e)); err != nil {
					t.Fatal(err)
				}
			},
			want: `pre q=x qn=x hi=x lo=x state=1
t=0 q=0 qn=1 hi=1 lo=0 state=1
t=20 q=0 qn=1 hi=1 lo=0 state=0
t=40 q=0 qn=1 hi=1 lo=0 state=0
t=79 q=0 qn=1 hi=1 lo=0 state=0
t=80 q=1 qn=0 hi=1 lo=0 state=0
t=200 q=1 qn=0 hi=1 lo=0 state=0
`,
		},
		{
			name: "schedule-flip-at-0",
			setup: func(t *testing.T, e Engine) {
				stimulus(t, e, 0)
				if err := e.ScheduleFlip(0, ffID(e)); err != nil {
					t.Fatal(err)
				}
			},
			want: `pre q=x qn=x hi=x lo=x state=0
t=0 q=0 qn=1 hi=1 lo=0 state=1
t=20 q=0 qn=1 hi=1 lo=0 state=1
t=40 q=0 qn=1 hi=1 lo=0 state=1
t=79 q=0 qn=1 hi=1 lo=0 state=1
t=80 q=1 qn=0 hi=1 lo=0 state=1
t=200 q=1 qn=0 hi=1 lo=0 state=1
`,
		},
		{
			name:  "ties-only",
			setup: func(t *testing.T, e Engine) { stimulus(t, e, 0) },
			want: `pre q=x qn=x hi=x lo=x state=0
t=0 q=0 qn=1 hi=1 lo=0 state=0
t=20 q=0 qn=1 hi=1 lo=0 state=0
t=40 q=0 qn=1 hi=1 lo=0 state=0
t=79 q=0 qn=1 hi=1 lo=0 state=0
t=80 q=0 qn=1 hi=1 lo=0 state=0
t=200 q=0 qn=1 hi=1 lo=0 state=0
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEventSim(f)
			tc.setup(t, e)
			got := initCornerTrajectory(t, e, times)
			if got != tc.want {
				t.Fatalf("trajectory:\n%s\nwant:\n%s", got, tc.want)
			}
		})
		// The same setup snapshotted before the first Run and restored
		// into a fresh engine, then delta-restored after the run: the
		// seeding events travel through the checkpoint unregistered, and
		// the trajectory must not change.
		t.Run(tc.name+"/restored", func(t *testing.T) {
			src := NewEventSim(f)
			tc.setup(t, src)
			ck := src.Snapshot()
			e := NewEventSim(f)
			if err := e.Restore(ck); err != nil {
				t.Fatal(err)
			}
			for _, how := range []string{"restore", "delta-restore"} {
				got := initCornerTrajectory(t, e, times)
				if got != tc.want {
					t.Fatalf("%s: trajectory:\n%s\nwant:\n%s", how, got, tc.want)
				}
				if err := e.RestoreDelta(ck); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
