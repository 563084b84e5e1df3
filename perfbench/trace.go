package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call into the program's public functions. Spans of one
// operation share Op; Parent is the ID of the span that caused it (0 for
// the operation's root).
type span struct {
	ID, Parent, Op int
	Name           string
	Start, End     time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps one traced operation's spans and counts in memory. A nil
// *tracer is the untraced mode: every method is a no-op, so workloads
// call the same code either way.
type tracer struct {
	op     int
	spans  []span
	counts map[string]float64
}

func newTracer(op int) *tracer {
	return &tracer{op: op, counts: map[string]float64{}}
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: time.Now()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Now()
}

// call runs fn inside a span named name under parent.
func (t *tracer) call(name string, parent int, fn func() error) error {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return err
}

// count adds v to the named counter, recorded at the same boundary as
// the span around the call that did the work.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] += v
}

// set records a derived value, such as a ratio, in place of a count.
func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] = v
}

// spanTotals sums, per span name, the inclusive duration and the self
// time: a span's duration minus the part of its interval that its child
// spans cover. Overlapping children (calls made in parallel) are counted
// once, and children are clipped to their parent's interval.
func spanTotals(spans []span) (incl, self map[string]time.Duration) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	incl = map[string]time.Duration{}
	self = map[string]time.Duration{}
	for _, s := range spans {
		incl[s.Name] += s.dur()
		self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return incl, self
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}
