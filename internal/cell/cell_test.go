package cell

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

// unwritten marks output slots Eval has not written; it is outside the
// four logic states, so no cell can produce it.
const unwritten logic.V = 0xff

// evalInto runs d.Eval over in and fails unless it wrote exactly
// len(d.Outputs) values into the caller's buffer: every declared output
// slot, and nothing past them.
func evalInto(t *testing.T, d *Def, in []logic.V) []logic.V {
	t.Helper()
	out := make([]logic.V, len(d.Outputs)+1)
	for i := range out {
		out[i] = unwritten
	}
	d.Eval(in, out)
	for i, v := range out[:len(d.Outputs)] {
		if v == unwritten {
			t.Fatalf("%s%v: Eval left output %s unwritten", d.Name, in, d.Outputs[i])
		}
	}
	if out[len(d.Outputs)] != unwritten {
		t.Fatalf("%s%v: Eval wrote past its %d outputs", d.Name, in, len(d.Outputs))
	}
	return out[:len(d.Outputs)]
}

func eval(t *testing.T, name string, bits string) []logic.V {
	t.Helper()
	d := MustLookup(name)
	in := make([]logic.V, len(bits))
	for i := range bits {
		in[i] = logic.FromRune(bits[i])
	}
	if len(in) != len(d.Inputs) {
		t.Fatalf("%s: %d inputs supplied, cell has %d", name, len(in), len(d.Inputs))
	}
	return evalInto(t, d, in)
}

// stateOutputs is StateOutputs into a fresh buffer sized to the cell.
func stateOutputs(d *Def, state logic.V) []logic.V {
	out := make([]logic.V, len(d.Outputs))
	d.StateOutputs(state, out)
	return out
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("NOSUCHCELL"); err == nil {
		t.Fatal("Lookup of unknown cell must fail")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) < 25 {
		t.Fatalf("library has only %d cells", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
	for _, want := range []string{"INVX1", "NAND2X1", "DFFX1", "SRAMBITX1", "DRAMBITX1", "RHSRAMBITX1", "DFFDEGLX2"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("library missing %s", want)
		}
	}
}

func TestInverter(t *testing.T) {
	if got := eval(t, "INVX1", "0")[0]; got != logic.L1 {
		t.Errorf("INV(0) = %v", got)
	}
	if got := eval(t, "INVX1", "1")[0]; got != logic.L0 {
		t.Errorf("INV(1) = %v", got)
	}
	if got := eval(t, "INVX1", "x")[0]; got != logic.X {
		t.Errorf("INV(x) = %v", got)
	}
}

func TestBufferZBecomesX(t *testing.T) {
	if got := eval(t, "BUFX2", "z")[0]; got != logic.X {
		t.Errorf("BUF(z) = %v, want x", got)
	}
	if got := eval(t, "BUFX2", "1")[0]; got != logic.L1 {
		t.Errorf("BUF(1) = %v", got)
	}
}

func TestNandNorWide(t *testing.T) {
	if got := eval(t, "NAND4X1", "1111")[0]; got != logic.L0 {
		t.Errorf("NAND4(all 1) = %v", got)
	}
	if got := eval(t, "NAND4X1", "1101")[0]; got != logic.L1 {
		t.Errorf("NAND4(with 0) = %v", got)
	}
	if got := eval(t, "NOR3X1", "000")[0]; got != logic.L1 {
		t.Errorf("NOR3(all 0) = %v", got)
	}
	if got := eval(t, "NOR3X1", "010")[0]; got != logic.L0 {
		t.Errorf("NOR3(with 1) = %v", got)
	}
}

func TestAoiOai(t *testing.T) {
	// AOI21: Y = !((A&B) | C)
	if got := eval(t, "AOI21X1", "110")[0]; got != logic.L0 {
		t.Errorf("AOI21(1,1,0) = %v, want 0", got)
	}
	if got := eval(t, "AOI21X1", "000")[0]; got != logic.L1 {
		t.Errorf("AOI21(0,0,0) = %v, want 1", got)
	}
	// OAI22: Y = !((A|B) & (C|D))
	if got := eval(t, "OAI22X1", "1010")[0]; got != logic.L0 {
		t.Errorf("OAI22(1,0,1,0) = %v, want 0", got)
	}
	if got := eval(t, "OAI22X1", "0011")[0]; got != logic.L1 {
		t.Errorf("OAI22(0,0,1,1) = %v, want 1", got)
	}
}

func TestFullAdderExhaustive(t *testing.T) {
	d := MustLookup("FAX1")
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for ci := 0; ci < 2; ci++ {
				out := evalInto(t, d, []logic.V{logic.FromBool(a == 1), logic.FromBool(b == 1), logic.FromBool(ci == 1)})
				sum := a + b + ci
				if out[0].Bool() != (sum%2 == 1) {
					t.Errorf("FA S(%d,%d,%d) = %v", a, b, ci, out[0])
				}
				if out[1].Bool() != (sum >= 2) {
					t.Errorf("FA CO(%d,%d,%d) = %v", a, b, ci, out[1])
				}
			}
		}
	}
}

func TestHalfAdder(t *testing.T) {
	out := eval(t, "HAX1", "11")
	if out[0] != logic.L0 || out[1] != logic.L1 {
		t.Errorf("HA(1,1) = S:%v CO:%v", out[0], out[1])
	}
}

func TestTieCells(t *testing.T) {
	if got := evalInto(t, MustLookup("TIELO"), nil)[0]; got != logic.L0 {
		t.Errorf("TIELO = %v", got)
	}
	if got := evalInto(t, MustLookup("TIEHI"), nil)[0]; got != logic.L1 {
		t.Errorf("TIEHI = %v", got)
	}
}

func TestMux2(t *testing.T) {
	if got := eval(t, "MUX2X1", "100")[0]; got != logic.L1 {
		t.Errorf("MUX2(A=1,B=0,S=0) = %v, want A", got)
	}
	if got := eval(t, "MUX2X1", "101")[0]; got != logic.L0 {
		t.Errorf("MUX2(A=1,B=0,S=1) = %v, want B", got)
	}
}

func TestDFFNextState(t *testing.T) {
	d := MustLookup("DFFX1")
	// Inputs: D, CK
	if got := d.NextState(logic.L0, []logic.V{logic.L1, logic.L1}); got != logic.L1 {
		t.Errorf("DFF capture = %v, want 1", got)
	}
	outs := stateOutputs(d, logic.L1)
	if outs[0] != logic.L1 || outs[1] != logic.L0 {
		t.Errorf("DFF outputs = %v", outs)
	}
}

func TestDFFRAsyncReset(t *testing.T) {
	d := MustLookup("DFFRX1")
	// Inputs: D, CK, RN. RN=0 forces 0 regardless of D.
	if got := d.NextState(logic.L1, []logic.V{logic.L1, logic.L1, logic.L0}); got != logic.L0 {
		t.Errorf("DFFR with RN=0 next = %v, want 0", got)
	}
	v, active := d.AsyncState([]logic.V{logic.X, logic.X, logic.L0})
	if !active || v != logic.L0 {
		t.Errorf("AsyncState(RN=0) = %v,%v", v, active)
	}
	if _, active := d.AsyncState([]logic.V{logic.X, logic.X, logic.L1}); active {
		t.Error("AsyncState must be inactive with RN=1")
	}
}

func TestDFFSAsyncSet(t *testing.T) {
	d := MustLookup("DFFSX1")
	if got := d.NextState(logic.L0, []logic.V{logic.L0, logic.L1, logic.L0}); got != logic.L1 {
		t.Errorf("DFFS with SN=0 next = %v, want 1", got)
	}
}

func TestEnableFlop(t *testing.T) {
	d := MustLookup("DFFEX1")
	// Inputs: D, CK, E
	if got := d.NextState(logic.L0, []logic.V{logic.L1, logic.L1, logic.L0}); got != logic.L0 {
		t.Errorf("disabled flop captured: %v", got)
	}
	if got := d.NextState(logic.L0, []logic.V{logic.L1, logic.L1, logic.L1}); got != logic.L1 {
		t.Errorf("enabled flop did not capture: %v", got)
	}
	if got := d.NextState(logic.L0, []logic.V{logic.L1, logic.L1, logic.X}); got != logic.X {
		t.Errorf("X enable must poison state: %v", got)
	}
}

func TestMemoryBitCells(t *testing.T) {
	for _, name := range []string{"SRAMBITX1", "DRAMBITX1", "RHSRAMBITX1"} {
		d := MustLookup(name)
		if d.Class != Memory {
			t.Errorf("%s class = %v, want mem", name, d.Class)
		}
		// Inputs: D, WE, CK
		if got := d.NextState(logic.L0, []logic.V{logic.L1, logic.L1, logic.L1}); got != logic.L1 {
			t.Errorf("%s write failed: %v", name, got)
		}
		if got := d.NextState(logic.L1, []logic.V{logic.L0, logic.L0, logic.L1}); got != logic.L1 {
			t.Errorf("%s hold failed: %v", name, got)
		}
		outs := stateOutputs(d, logic.L1)
		if len(outs) != 1 || outs[0] != logic.L1 {
			t.Errorf("%s outputs = %v", name, outs)
		}
	}
}

func TestRadClasses(t *testing.T) {
	cases := map[string]RadClass{
		"INVX1": RadComb, "DFFX1": RadFF, "SRAMBITX1": RadSRAM,
		"DRAMBITX1": RadDRAM, "RHSRAMBITX1": RadRHSRAM,
	}
	for name, want := range cases {
		if got := MustLookup(name).Rad; got != want {
			t.Errorf("%s rad class = %s, want %s", name, got, want)
		}
	}
}

func TestPortDir(t *testing.T) {
	d := MustLookup("DFFX1")
	if dir, err := d.PortDir("D"); err != nil || dir != "input" {
		t.Errorf("PortDir(D) = %q, %v", dir, err)
	}
	if dir, err := d.PortDir("QN"); err != nil || dir != "output" {
		t.Errorf("PortDir(QN) = %q, %v", dir, err)
	}
	if _, err := d.PortDir("NOPE"); err == nil {
		t.Error("PortDir of unknown port must fail")
	}
}

func TestEveryCellConsistent(t *testing.T) {
	for _, name := range Names() {
		d := MustLookup(name)
		if d.IsSequential() {
			if d.Eval != nil {
				t.Errorf("%s: sequential cell must not define Eval", name)
			}
			if d.InputIndex(d.Seq.Clock) < 0 {
				t.Errorf("%s: clock %q not an input", name, d.Seq.Clock)
			}
			if d.InputIndex(d.Seq.DataPort) < 0 {
				t.Errorf("%s: data %q not an input", name, d.Seq.DataPort)
			}
			if d.OutputIndex("Q") < 0 {
				t.Errorf("%s: sequential cell missing Q", name)
			}
			if d.Seq.HasQN && d.OutputIndex("QN") < 0 {
				t.Errorf("%s: HasQN but no QN output", name)
			}
		} else {
			if d.Eval == nil {
				t.Errorf("%s: combinational cell missing Eval", name)
			} else {
				in := make([]logic.V, len(d.Inputs))
				for i := range in {
					in[i] = logic.L0
				}
				out := evalInto(t, d, in)
				if len(out) != len(d.Outputs) {
					t.Errorf("%s: Eval produced %d outputs, cell declares %d", name, len(out), len(d.Outputs))
				}
			}
		}
		if d.DelayPS < 0 {
			t.Errorf("%s: negative delay", name)
		}
		if d.AreaUM2 <= 0 {
			t.Errorf("%s: non-positive area", name)
		}
		if !strings.ContainsAny(name, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") {
			t.Errorf("%s: cell names are upper case by convention", name)
		}
	}
}

func TestCombXPropagationSafety(t *testing.T) {
	// Every combinational gate fed all-X must produce only 0/1/X, never Z,
	// and must not panic: gates do not generate high impedance.
	for _, name := range Names() {
		d := MustLookup(name)
		if d.IsSequential() {
			continue
		}
		in := make([]logic.V, len(d.Inputs))
		for i := range in {
			in[i] = logic.X
		}
		for _, o := range evalInto(t, d, in) {
			if o == logic.Z {
				t.Errorf("%s produced Z from X inputs", name)
			}
		}
	}
}

// TestEvalWritesExactlyItsOutputs drives every combinational cell over
// every assignment of the four logic states to its inputs: Eval must fill
// each declared output and nothing past them, and must produce the same
// values on a reused, dirty output buffer as on a fresh one.
func TestEvalWritesExactlyItsOutputs(t *testing.T) {
	states := []logic.V{logic.L0, logic.L1, logic.X, logic.Z}
	for _, name := range Names() {
		d := MustLookup(name)
		if d.IsSequential() {
			continue
		}
		in := make([]logic.V, len(d.Inputs))
		reused := make([]logic.V, len(d.Outputs))
		combos := 1
		for range in {
			combos *= len(states)
		}
		for c := 0; c < combos; c++ {
			for i, k := 0, c; i < len(in); i, k = i+1, k/len(states) {
				in[i] = states[k%len(states)]
			}
			want := evalInto(t, d, in)
			d.Eval(in, reused)
			for i := range want {
				if reused[i] != want[i] {
					t.Fatalf("%s%v: output %s is %v on a reused buffer, %v on a fresh one",
						name, in, d.Outputs[i], reused[i], want[i])
				}
			}
		}
	}
}

// TestSeqPinIndices: the pin indices register resolves must equal the
// name lookups they replace, and absent ports must resolve to -1.
func TestSeqPinIndices(t *testing.T) {
	for _, name := range Names() {
		d := MustLookup(name)
		if !d.IsSequential() {
			continue
		}
		s := d.Seq
		for _, p := range []struct {
			port string
			got  int
		}{
			{s.Clock, s.clkPin},
			{s.DataPort, s.dataPin},
			{s.Enable, s.enPin},
			{s.AsyncResetN, s.rstNPin},
			{s.AsyncSetN, s.setNPin},
		} {
			if want := d.InputIndex(p.port); p.got != want {
				t.Errorf("%s: pin index of %q = %d, InputIndex says %d", name, p.port, p.got, want)
			}
		}
		if d.ClockPin() != d.InputIndex(s.Clock) {
			t.Errorf("%s: ClockPin() = %d, want %d", name, d.ClockPin(), d.InputIndex(s.Clock))
		}
	}
}
