// Package cell defines the standard-cell library used by the synthetic
// gate-level netlists: combinational gates, D flip-flop variants, and the
// memory bit macros (SRAM, DRAM, radiation-hardened SRAM) that Table I of
// the paper sweeps over. Each cell definition carries its logic function,
// propagation delay, area, and radiation class, which together drive both
// the simulator and the single-particle soft-error database.
package cell

import (
	"fmt"
	"sort"

	"repro/internal/logic"
)

// Class partitions cells by their role, which determines the applicable
// single-particle fault model: SET for combinational cells, SEU for storage.
type Class uint8

// Cell classes.
const (
	Combinational Class = iota // SET targets: transient pulse on output
	Sequential                 // SEU targets: state flip in the flop
	Memory                     // SEU targets: bit flip in the array cell
)

// String returns a readable class name.
func (c Class) String() string {
	switch c {
	case Combinational:
		return "comb"
	case Sequential:
		return "seq"
	case Memory:
		return "mem"
	}
	return "unknown"
}

// RadClass identifies the cross-section family a cell belongs to in the
// soft-error database (Fig. 3 of the paper).
type RadClass string

// Radiation classes referenced by the fault database.
const (
	RadComb   RadClass = "COMB"
	RadFF     RadClass = "FF"
	RadSRAM   RadClass = "SRAM"
	RadDRAM   RadClass = "DRAM"
	RadRHSRAM RadClass = "RHSRAM"
)

// SeqSpec describes the sequential behaviour of a storage cell. The
// simulator samples DataPort on the rising edge of Clock, gated by Enable
// when present; AsyncResetN/AsyncSetN are active-low asynchronous controls.
type SeqSpec struct {
	Clock       string
	DataPort    string
	Enable      string // empty when the cell has no enable
	AsyncResetN string // empty when absent
	AsyncSetN   string // empty when absent
	HasQN       bool   // cell drives both Q and QN

	// Input indices of the ports above, resolved once by register so the
	// simulators' per-eval paths never look a port up by name; -1 when
	// the port is absent.
	clkPin, dataPin, enPin, rstNPin, setNPin int
}

// Def is one library cell. Inputs and Outputs list port names in the order
// Eval consumes and produces values: Eval reads len(Inputs) values from in
// and writes len(Outputs) values into the caller-owned out, allocating
// nothing. For sequential cells Eval is nil and Seq describes the state
// behaviour instead.
type Def struct {
	Name    string
	Class   Class
	Rad     RadClass
	Inputs  []string
	Outputs []string
	DelayPS int64   // intrinsic propagation delay, picoseconds
	AreaUM2 float64 // layout area, square microns
	Eval    func(in, out []logic.V)
	Seq     *SeqSpec
}

// IsSequential reports whether the cell stores state.
func (d *Def) IsSequential() bool { return d.Seq != nil }

// ClockPin returns the index within Inputs of a sequential cell's clock.
func (d *Def) ClockPin() int { return d.Seq.clkPin }

// PortDir reports "input"/"output" for a named port, or an error for an
// unknown port.
func (d *Def) PortDir(port string) (string, error) {
	for _, p := range d.Inputs {
		if p == port {
			return "input", nil
		}
	}
	for _, p := range d.Outputs {
		if p == port {
			return "output", nil
		}
	}
	return "", fmt.Errorf("cell %s: unknown port %q", d.Name, port)
}

// InputIndex returns the position of port within Inputs, or -1.
func (d *Def) InputIndex(port string) int {
	for i, p := range d.Inputs {
		if p == port {
			return i
		}
	}
	return -1
}

// OutputIndex returns the position of port within Outputs, or -1.
func (d *Def) OutputIndex(port string) int {
	for i, p := range d.Outputs {
		if p == port {
			return i
		}
	}
	return -1
}

var library = map[string]*Def{}

func register(d *Def) *Def {
	if _, dup := library[d.Name]; dup {
		panic("cell: duplicate cell name " + d.Name)
	}
	if s := d.Seq; s != nil {
		s.clkPin = d.InputIndex(s.Clock)
		s.dataPin = d.InputIndex(s.DataPort)
		s.enPin = d.InputIndex(s.Enable)
		s.rstNPin = d.InputIndex(s.AsyncResetN)
		s.setNPin = d.InputIndex(s.AsyncSetN)
		if s.clkPin < 0 || s.dataPin < 0 {
			panic("cell: " + d.Name + " lacks its clock or data input")
		}
	}
	library[d.Name] = d
	return d
}

// Lookup returns the library cell with the given name.
func Lookup(name string) (*Def, error) {
	d, ok := library[name]
	if !ok {
		return nil, fmt.Errorf("cell: no library cell named %q", name)
	}
	return d, nil
}

// MustLookup is Lookup for names known at compile time; it panics on a miss.
func MustLookup(name string) *Def {
	d, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return d
}

// Names returns all library cell names in sorted order.
func Names() []string {
	names := make([]string, 0, len(library))
	for n := range library {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func comb1(f func(a logic.V) logic.V) func(in, out []logic.V) {
	return func(in, out []logic.V) { out[0] = f(in[0]) }
}

func comb2(f func(a, b logic.V) logic.V) func(in, out []logic.V) {
	return func(in, out []logic.V) { out[0] = f(in[0], in[1]) }
}

func reduceN(f func(a, b logic.V) logic.V, invert bool) func(in, out []logic.V) {
	return func(in, out []logic.V) {
		acc := in[0]
		for _, v := range in[1:] {
			acc = f(acc, v)
		}
		if invert {
			acc = acc.Not()
		}
		out[0] = acc
	}
}

func ports(names ...string) []string { return names }

func init() {
	// Combinational cells. Delay values follow a rough 45 nm education
	// library: inverter fastest, complex gates slower.
	register(&Def{
		Name: "INVX1", Class: Combinational, Rad: RadComb,
		Inputs: ports("A"), Outputs: ports("Y"),
		DelayPS: 12, AreaUM2: 1.1,
		Eval: comb1(logic.V.Not),
	})
	register(&Def{
		Name: "BUFX2", Class: Combinational, Rad: RadComb,
		Inputs: ports("A"), Outputs: ports("Y"),
		DelayPS: 18, AreaUM2: 1.6,
		Eval: comb1(func(a logic.V) logic.V {
			if a == logic.Z {
				return logic.X
			}
			return a
		}),
	})
	for n := 2; n <= 4; n++ {
		in := make([]string, n)
		for i := range in {
			in[i] = string(rune('A' + i))
		}
		register(&Def{
			Name: fmt.Sprintf("NAND%dX1", n), Class: Combinational, Rad: RadComb,
			Inputs: in, Outputs: ports("Y"),
			DelayPS: int64(14 + 4*n), AreaUM2: 1.2 + 0.5*float64(n),
			Eval: reduceN(logic.And, true),
		})
		register(&Def{
			Name: fmt.Sprintf("NOR%dX1", n), Class: Combinational, Rad: RadComb,
			Inputs: append([]string(nil), in...), Outputs: ports("Y"),
			DelayPS: int64(16 + 5*n), AreaUM2: 1.2 + 0.5*float64(n),
			Eval: reduceN(logic.Or, true),
		})
	}
	for n := 2; n <= 3; n++ {
		in := make([]string, n)
		for i := range in {
			in[i] = string(rune('A' + i))
		}
		register(&Def{
			Name: fmt.Sprintf("AND%dX1", n), Class: Combinational, Rad: RadComb,
			Inputs: in, Outputs: ports("Y"),
			DelayPS: int64(20 + 4*n), AreaUM2: 1.5 + 0.5*float64(n),
			Eval: reduceN(logic.And, false),
		})
		register(&Def{
			Name: fmt.Sprintf("OR%dX1", n), Class: Combinational, Rad: RadComb,
			Inputs: append([]string(nil), in...), Outputs: ports("Y"),
			DelayPS: int64(22 + 4*n), AreaUM2: 1.5 + 0.5*float64(n),
			Eval: reduceN(logic.Or, false),
		})
	}
	register(&Def{
		Name: "XOR2X1", Class: Combinational, Rad: RadComb,
		Inputs: ports("A", "B"), Outputs: ports("Y"),
		DelayPS: 34, AreaUM2: 3.0,
		Eval: comb2(logic.Xor),
	})
	register(&Def{
		Name: "XNOR2X1", Class: Combinational, Rad: RadComb,
		Inputs: ports("A", "B"), Outputs: ports("Y"),
		DelayPS: 36, AreaUM2: 3.0,
		Eval: comb2(func(a, b logic.V) logic.V { return logic.Xor(a, b).Not() }),
	})
	register(&Def{
		Name: "MUX2X1", Class: Combinational, Rad: RadComb,
		Inputs: ports("A", "B", "S"), Outputs: ports("Y"),
		DelayPS: 30, AreaUM2: 3.2,
		Eval: func(in, out []logic.V) { out[0] = logic.Mux(in[2], in[0], in[1]) },
	})
	register(&Def{
		Name: "AOI21X1", Class: Combinational, Rad: RadComb,
		Inputs: ports("A", "B", "C"), Outputs: ports("Y"),
		DelayPS: 26, AreaUM2: 2.4,
		Eval: func(in, out []logic.V) { out[0] = logic.Or(logic.And(in[0], in[1]), in[2]).Not() },
	})
	register(&Def{
		Name: "OAI21X1", Class: Combinational, Rad: RadComb,
		Inputs: ports("A", "B", "C"), Outputs: ports("Y"),
		DelayPS: 26, AreaUM2: 2.4,
		Eval: func(in, out []logic.V) { out[0] = logic.And(logic.Or(in[0], in[1]), in[2]).Not() },
	})
	register(&Def{
		Name: "AOI22X1", Class: Combinational, Rad: RadComb,
		Inputs: ports("A", "B", "C", "D"), Outputs: ports("Y"),
		DelayPS: 30, AreaUM2: 3.0,
		Eval: func(in, out []logic.V) {
			out[0] = logic.Or(logic.And(in[0], in[1]), logic.And(in[2], in[3])).Not()
		},
	})
	register(&Def{
		Name: "OAI22X1", Class: Combinational, Rad: RadComb,
		Inputs: ports("A", "B", "C", "D"), Outputs: ports("Y"),
		DelayPS: 30, AreaUM2: 3.0,
		Eval: func(in, out []logic.V) {
			out[0] = logic.And(logic.Or(in[0], in[1]), logic.Or(in[2], in[3])).Not()
		},
	})
	register(&Def{
		Name: "HAX1", Class: Combinational, Rad: RadComb,
		Inputs: ports("A", "B"), Outputs: ports("S", "CO"),
		DelayPS: 40, AreaUM2: 4.5,
		Eval: func(in, out []logic.V) {
			out[0], out[1] = logic.Xor(in[0], in[1]), logic.And(in[0], in[1])
		},
	})
	register(&Def{
		Name: "FAX1", Class: Combinational, Rad: RadComb,
		Inputs: ports("A", "B", "CI"), Outputs: ports("S", "CO"),
		DelayPS: 52, AreaUM2: 6.2,
		Eval: func(in, out []logic.V) {
			a, b, ci := in[0], in[1], in[2]
			out[0] = logic.Xor(logic.Xor(a, b), ci)
			out[1] = logic.Or(logic.And(a, b), logic.And(ci, logic.Xor(a, b)))
		},
	})
	register(&Def{
		Name: "TIELO", Class: Combinational, Rad: RadComb,
		Inputs: nil, Outputs: ports("Y"),
		DelayPS: 0, AreaUM2: 0.6,
		Eval: func(_, out []logic.V) { out[0] = logic.L0 },
	})
	register(&Def{
		Name: "TIEHI", Class: Combinational, Rad: RadComb,
		Inputs: nil, Outputs: ports("Y"),
		DelayPS: 0, AreaUM2: 0.6,
		Eval: func(_, out []logic.V) { out[0] = logic.L1 },
	})

	// D flip-flop family. The name DFFDEGLX2 matches the database example
	// in Fig. 3 of the paper.
	register(&Def{
		Name: "DFFX1", Class: Sequential, Rad: RadFF,
		Inputs: ports("D", "CK"), Outputs: ports("Q", "QN"),
		DelayPS: 80, AreaUM2: 7.5,
		Seq: &SeqSpec{Clock: "CK", DataPort: "D", HasQN: true},
	})
	register(&Def{
		Name: "DFFDEGLX2", Class: Sequential, Rad: RadFF,
		Inputs: ports("D", "CK"), Outputs: ports("Q", "QN"),
		DelayPS: 72, AreaUM2: 9.0,
		Seq: &SeqSpec{Clock: "CK", DataPort: "D", HasQN: true},
	})
	register(&Def{
		Name: "DFFRX1", Class: Sequential, Rad: RadFF,
		Inputs: ports("D", "CK", "RN"), Outputs: ports("Q", "QN"),
		DelayPS: 86, AreaUM2: 8.6,
		Seq: &SeqSpec{Clock: "CK", DataPort: "D", AsyncResetN: "RN", HasQN: true},
	})
	register(&Def{
		Name: "DFFSX1", Class: Sequential, Rad: RadFF,
		Inputs: ports("D", "CK", "SN"), Outputs: ports("Q", "QN"),
		DelayPS: 86, AreaUM2: 8.6,
		Seq: &SeqSpec{Clock: "CK", DataPort: "D", AsyncSetN: "SN", HasQN: true},
	})
	register(&Def{
		Name: "DFFEX1", Class: Sequential, Rad: RadFF,
		Inputs: ports("D", "CK", "E"), Outputs: ports("Q", "QN"),
		DelayPS: 92, AreaUM2: 9.4,
		Seq: &SeqSpec{Clock: "CK", DataPort: "D", Enable: "E", HasQN: true},
	})

	// Memory bit macros: write-enabled storage bits with distinct radiation
	// classes; Table I's SRAM/DRAM/Rad-hard SRAM sweep rests on these.
	register(&Def{
		Name: "SRAMBITX1", Class: Memory, Rad: RadSRAM,
		Inputs: ports("D", "WE", "CK"), Outputs: ports("Q"),
		DelayPS: 60, AreaUM2: 1.9,
		Seq: &SeqSpec{Clock: "CK", DataPort: "D", Enable: "WE"},
	})
	register(&Def{
		Name: "DRAMBITX1", Class: Memory, Rad: RadDRAM,
		Inputs: ports("D", "WE", "CK"), Outputs: ports("Q"),
		DelayPS: 110, AreaUM2: 0.9,
		Seq: &SeqSpec{Clock: "CK", DataPort: "D", Enable: "WE"},
	})
	register(&Def{
		Name: "RHSRAMBITX1", Class: Memory, Rad: RadRHSRAM,
		Inputs: ports("D", "WE", "CK"), Outputs: ports("Q"),
		DelayPS: 75, AreaUM2: 3.8,
		Seq: &SeqSpec{Clock: "CK", DataPort: "D", Enable: "WE"},
	})
}

// NextState computes a sequential cell's next stored value given the
// current state, a rising clock edge having occurred, and the input port
// values indexed as in d.Inputs. Async controls override the clocked path.
func (d *Def) NextState(state logic.V, in []logic.V) logic.V {
	if d.Seq == nil {
		panic("cell: NextState on combinational cell " + d.Name)
	}
	if v, active := d.AsyncState(in); active {
		return v
	}
	if p := d.Seq.enPin; p >= 0 {
		switch in[p] {
		case logic.L0:
			return state
		case logic.L1:
			// fall through to capture
		default:
			return logic.X
		}
	}
	return in[d.Seq.dataPin]
}

// AsyncState returns the value forced by asynchronous controls regardless of
// the clock, or (X, false) when no async control is active.
func (d *Def) AsyncState(in []logic.V) (logic.V, bool) {
	if d.Seq == nil {
		return logic.X, false
	}
	if p := d.Seq.rstNPin; p >= 0 && in[p] == logic.L0 {
		return logic.L0, true
	}
	if p := d.Seq.setNPin; p >= 0 && in[p] == logic.L0 {
		return logic.L1, true
	}
	return logic.X, false
}

// StateOutputs writes the cell's output values for a stored state (Q and,
// when present, QN) into the caller-owned out.
func (d *Def) StateOutputs(state logic.V, out []logic.V) {
	if d.Seq == nil {
		panic("cell: StateOutputs on combinational cell " + d.Name)
	}
	out[0] = state
	if d.Seq.HasQN {
		out[1] = state.Not()
	}
}
