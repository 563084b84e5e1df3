package sim

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Versioned binary wire codec for Checkpoint. The format is
// deterministic: encoding the same checkpoint always yields the same
// bytes, which is what makes checkpoints content-addressable in the
// artifact lake. Decoding is strict — a truncated or corrupted stream is
// rejected with an error, never silently accepted, and every length and
// enum is validated before use so a hostile blob cannot make Restore
// index out of bounds.
//
// Tail aliasing (ShareTails) is flattened on encode: the combined
// events ++ tail list is written as one sequence, and a decoded
// checkpoint owns all of its storage. Callers that decode a whole
// checkpoint schedule may re-run ShareTails over it to recover the
// memory sharing; semantics are unchanged either way.

const (
	ckptMagic   uint32 = 0x534b5031 // "SKP1"
	ckptVersion byte   = 1

	kindTagEvent byte = 1
	kindTagLevel byte = 2

	// maxCodecLen bounds every decoded count before allocation so a
	// corrupt length prefix cannot force a huge allocation.
	maxCodecLen = 1 << 28
)

// CheckDesign validates that ck can restore an engine of its own kind
// simulating design f — the eager form of the validation Restore performs,
// for callers that adopt decoded checkpoints and want to refuse a
// mismatched artifact before touching any engine.
func (ck *Checkpoint) CheckDesign(f *netlist.Flat) error {
	if ck == nil {
		return fmt.Errorf("sim: nil checkpoint")
	}
	return ck.check(ck.Kind, f)
}

// EncodeCheckpoint writes ck to w in the versioned binary wire format.
func EncodeCheckpoint(w io.Writer, ck *Checkpoint) error {
	if ck == nil {
		return fmt.Errorf("sim: encode nil checkpoint")
	}
	e := &encoder{w: bufio.NewWriter(w)}
	e.u32(ckptMagic)
	e.byte(ckptVersion)
	switch ck.Kind {
	case KindEvent:
		e.byte(kindTagEvent)
	case KindLevel:
		e.byte(kindTagLevel)
	default:
		return fmt.Errorf("sim: encode checkpoint of unknown kind %q", ck.Kind)
	}
	e.u64(ck.TimePS)
	e.u64(ck.Evals)
	e.str(ck.design)
	e.uvarint(uint64(ck.nets))
	e.uvarint(uint64(ck.cells))
	switch ck.Kind {
	case KindEvent:
		if ck.ev == nil {
			return fmt.Errorf("sim: event checkpoint missing payload")
		}
		encodeEventCheckpoint(e, ck.ev)
	case KindLevel:
		if ck.lv == nil {
			return fmt.Errorf("sim: level checkpoint missing payload")
		}
		encodeLevelCheckpoint(e, ck.lv)
	}
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

func encodeEventCheckpoint(e *encoder, ev *eventCheckpoint) {
	e.u64(ev.seqBase)
	e.vSlice(ev.cur)
	e.vSlice(ev.driven)
	e.bSlice(ev.forced)
	e.vSlice(ev.state)
	n := ev.numEvents()
	e.uvarint(uint64(n))
	for i := 0; i < n; i++ {
		ce := ev.eventAt(i)
		e.u64(ce.t)
		e.u64(ce.seq)
		e.uvarint(uint64(ce.phase))
		e.byte(byte(ce.kind))
		e.uvarint(uint64(ce.net))
		e.uvarint(uint64(ce.cellID))
		e.byte(byte(ce.val))
	}
	e.uvarint(uint64(len(ev.pendingIdx)))
	for _, idx := range ev.pendingIdx {
		e.varint(int64(idx))
	}
}

func encodeLevelCheckpoint(e *encoder, lv *levelCheckpoint) {
	e.vSlice(lv.cur)
	e.vSlice(lv.inputVal)
	e.bSlice(lv.forced)
	e.vSlice(lv.forcedVal)
	e.vSlice(lv.state)
	e.vSlice(lv.prevClk)
	n := lv.numTimes()
	e.uvarint(uint64(n))
	for i := 0; i < n; i++ {
		e.u64(lv.timeAt(i))
		acts := lv.actionsAt(i)
		e.uvarint(uint64(len(acts)))
		for _, a := range acts {
			e.byte(byte(a.kind))
			e.uvarint(uint64(a.net))
			e.uvarint(uint64(a.cellID))
			e.byte(byte(a.val))
		}
	}
}

// DecodeCheckpoint reads one checkpoint in the wire format produced by
// EncodeCheckpoint. The returned checkpoint owns all of its storage.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	d := &decoder{r: bufio.NewReader(r)}
	if m := d.u32(); d.err == nil && m != ckptMagic {
		return nil, fmt.Errorf("sim: checkpoint blob has bad magic %#x", m)
	}
	if v := d.byte(); d.err == nil && v != ckptVersion {
		return nil, fmt.Errorf("sim: unsupported checkpoint codec version %d", v)
	}
	tag := d.byte()
	ck := &Checkpoint{}
	ck.TimePS = d.u64()
	ck.Evals = d.u64()
	ck.design = d.str()
	ck.nets = d.count("nets")
	ck.cells = d.count("cells")
	if d.err != nil {
		return nil, d.err
	}
	switch tag {
	case kindTagEvent:
		ck.Kind = KindEvent
		ck.ev = decodeEventCheckpoint(d, ck.nets, ck.cells)
	case kindTagLevel:
		ck.Kind = KindLevel
		ck.lv = decodeLevelCheckpoint(d, ck.nets, ck.cells)
	default:
		return nil, fmt.Errorf("sim: checkpoint blob has unknown kind tag %d", tag)
	}
	if d.err != nil {
		return nil, d.err
	}
	return ck, nil
}

func decodeEventCheckpoint(d *decoder, nets, cells int) *eventCheckpoint {
	ev := &eventCheckpoint{}
	ev.seqBase = d.u64()
	ev.cur = d.vSlice("cur", nets)
	ev.driven = d.vSlice("driven", nets)
	ev.forced = d.bSlice("forced", nets)
	ev.state = d.vSlice("state", cells)
	n := d.count("events")
	if d.err != nil {
		return nil
	}
	ev.events = make([]ckptEvent, n)
	for i := range ev.events {
		ce := &ev.events[i]
		ce.t = d.u64()
		ce.seq = d.u64()
		ce.phase = uint32(d.count("phase"))
		k := evKind(d.byte())
		ce.kind = k
		ce.net = d.count("net")
		ce.cellID = d.count("cellID")
		ce.val = logic.V(d.byte())
		if d.err != nil {
			return nil
		}
		if k >= evFunc {
			d.fail(fmt.Errorf("sim: checkpoint event %d has invalid kind %d", i, k))
			return nil
		}
		if ce.net >= nets || ce.cellID >= cells && ce.cellID != 0 {
			d.fail(fmt.Errorf("sim: checkpoint event %d targets out-of-range net/cell", i))
			return nil
		}
		if ce.val > logic.Z {
			d.fail(fmt.Errorf("sim: checkpoint event %d has invalid logic value %d", i, ce.val))
			return nil
		}
		// Restore copies the list straight into the engine's heap, which
		// is only valid in strict queue order.
		if i > 0 && cmpCkptEvent(ev.events[i-1], *ce) >= 0 {
			d.fail(fmt.Errorf("sim: checkpoint event %d is out of queue order", i))
			return nil
		}
	}
	np := d.count("pendingIdx")
	if d.err != nil {
		return nil
	}
	if np != nets {
		d.fail(fmt.Errorf("sim: checkpoint pendingIdx length %d, want %d", np, nets))
		return nil
	}
	ev.pendingIdx = make([]int32, np)
	for i := range ev.pendingIdx {
		v := d.varint()
		if d.err != nil {
			return nil
		}
		if v < -1 || v >= int64(n) {
			d.fail(fmt.Errorf("sim: checkpoint pendingIdx[%d]=%d out of range", i, v))
			return nil
		}
		ev.pendingIdx[i] = int32(v)
	}
	return ev
}

func decodeLevelCheckpoint(d *decoder, nets, cells int) *levelCheckpoint {
	lv := &levelCheckpoint{}
	lv.cur = d.vSlice("cur", nets)
	lv.inputVal = d.vSlice("inputVal", nets)
	lv.forced = d.bSlice("forced", nets)
	lv.forcedVal = d.vSlice("forcedVal", nets)
	lv.state = d.vSlice("state", cells)
	lv.prevClk = d.vSlice("prevClk", cells)
	n := d.count("times")
	if d.err != nil {
		return nil
	}
	lv.times = make([]uint64, n)
	lv.actions = make([][]lsAction, n)
	var prev uint64
	for i := 0; i < n; i++ {
		t := d.u64()
		na := d.count("actions")
		if d.err != nil {
			return nil
		}
		if i > 0 && t <= prev {
			d.fail(fmt.Errorf("sim: checkpoint agenda times not strictly ascending at %d", i))
			return nil
		}
		prev = t
		if na == 0 {
			d.fail(fmt.Errorf("sim: checkpoint agenda time %d holds no actions", t))
			return nil
		}
		acts := make([]lsAction, na)
		for j := range acts {
			a := &acts[j]
			k := lsKind(d.byte())
			a.kind = k
			a.net = d.count("net")
			a.cellID = d.count("cellID")
			a.val = logic.V(d.byte())
			if d.err != nil {
				return nil
			}
			if k >= lsFunc {
				d.fail(fmt.Errorf("sim: checkpoint action has invalid kind %d", k))
				return nil
			}
			if a.net >= nets || a.cellID >= cells && a.cellID != 0 {
				d.fail(fmt.Errorf("sim: checkpoint action targets out-of-range net/cell"))
				return nil
			}
			if a.val > logic.Z {
				d.fail(fmt.Errorf("sim: checkpoint action has invalid logic value %d", a.val))
				return nil
			}
		}
		lv.times[i] = t
		lv.actions[i] = acts
	}
	return lv
}

// encoder accumulates little-endian primitives into a buffered writer,
// latching the first error.
type encoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *encoder) write(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
}

func (e *encoder) byte(b byte) {
	if e.err != nil {
		return
	}
	e.err = e.w.WriteByte(b)
}

func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.write(e.buf[:4])
}

func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.write(e.buf[:8])
}

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.write(e.buf[:n])
}

func (e *encoder) varint(v int64) {
	n := binary.PutVarint(e.buf[:], v)
	e.write(e.buf[:n])
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *encoder) vSlice(v []logic.V) {
	e.uvarint(uint64(len(v)))
	for _, x := range v {
		e.byte(byte(x))
	}
}

func (e *encoder) bSlice(v []bool) {
	e.uvarint(uint64(len(v)))
	for _, x := range v {
		if x {
			e.byte(1)
		} else {
			e.byte(0)
		}
	}
}

// decoder reads the primitives encoder writes, latching the first error.
type decoder struct {
	r   *bufio.Reader
	buf [8]byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) read(n int) []byte {
	if d.err != nil {
		return nil
	}
	if _, err := io.ReadFull(d.r, d.buf[:n]); err != nil {
		d.fail(fmt.Errorf("sim: truncated checkpoint blob: %w", err))
		return nil
	}
	return d.buf[:n]
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.fail(fmt.Errorf("sim: truncated checkpoint blob: %w", err))
		return 0
	}
	return b
}

func (d *decoder) u32() uint32 {
	b := d.read(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.read(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.fail(fmt.Errorf("sim: truncated checkpoint blob: %w", err))
		return 0
	}
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.fail(fmt.Errorf("sim: truncated checkpoint blob: %w", err))
		return 0
	}
	return v
}

// count reads a uvarint and bounds it so corrupt data cannot force a
// huge allocation.
func (d *decoder) count(what string) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > maxCodecLen {
		d.fail(fmt.Errorf("sim: checkpoint %s count %d exceeds limit", what, v))
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.count("string")
	if d.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.fail(fmt.Errorf("sim: truncated checkpoint blob: %w", err))
		return ""
	}
	return string(b)
}

// vSlice reads a logic-value slice and requires its length to equal want,
// so Restore's copy() targets are always fully written.
func (d *decoder) vSlice(what string, want int) []logic.V {
	n := d.count(what)
	if d.err != nil {
		return nil
	}
	if n != want {
		d.fail(fmt.Errorf("sim: checkpoint %s length %d, want %d", what, n, want))
		return nil
	}
	out := make([]logic.V, n)
	for i := range out {
		b := d.byte()
		if d.err != nil {
			return nil
		}
		if logic.V(b) > logic.Z {
			d.fail(fmt.Errorf("sim: checkpoint %s[%d] has invalid logic value %d", what, i, b))
			return nil
		}
		out[i] = logic.V(b)
	}
	return out
}

func (d *decoder) bSlice(what string, want int) []bool {
	n := d.count(what)
	if d.err != nil {
		return nil
	}
	if n != want {
		d.fail(fmt.Errorf("sim: checkpoint %s length %d, want %d", what, n, want))
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		b := d.byte()
		if d.err != nil {
			return nil
		}
		if b > 1 {
			d.fail(fmt.Errorf("sim: checkpoint %s[%d] has invalid bool byte %d", what, i, b))
			return nil
		}
		out[i] = b == 1
	}
	return out
}
