package main

import (
	"strings"
	"testing"
)

// drive runs n generated ops on one terminal of a freshly built cluster.
func drive(t *testing.T, w *workload, n int) (*cluster, *terminal) {
	t.Helper()
	c, err := build(w)
	if err != nil {
		t.Fatal(err)
	}
	term := &terminal{c: c, exp: c.newExpect()}
	g := newGen(w, 1, 0, phaseClosed, 0)
	for i := 0; i < n; i++ {
		o := g.next()
		if res, err := c.exec(term, o); res == failed {
			t.Fatalf("op %d failed: %v", i, err)
		}
	}
	if len(term.problems) != 0 {
		t.Fatalf("problems during ops: %v", term.problems)
	}
	return c, term
}

func TestGatePassesOnCleanRun(t *testing.T) {
	for _, name := range []string{"tp1-dist", "browse-mix"} {
		c, term := drive(t, findWorkload(name), 200)
		if probs := c.verify(term.exp); len(probs) != 0 {
			t.Errorf("%s: gate failed a clean run: %v", name, probs)
		}
	}
}

func TestGateCatchesUncountedCommit(t *testing.T) {
	w := findWorkload("tp1-dist")
	c, term := drive(t, w, 50)
	// A committed transaction the benchmark never counted: the teller,
	// branch and Monitor Audit Trail checks must all notice.
	o := newGen(w, 99, 0, phaseClosed, 0).next()
	if _, err := c.tp1(&terminal{c: c, exp: c.newExpect()}, o); err != nil {
		t.Fatal(err)
	}
	probs := strings.Join(c.verify(term.exp), "\n")
	for _, want := range []string{"tell ", "brch ", "Monitor Audit Trail"} {
		if !strings.Contains(probs, want) {
			t.Errorf("gate did not report %q; reported:\n%s", want, probs)
		}
	}
}

func TestGateCatchesAbortCountedAsCommit(t *testing.T) {
	w := findWorkload("tp1-dist")
	c, term := drive(t, w, 50)
	// Run a voluntary abort but credit its amounts as if it committed:
	// the database must not show them.
	o := newGen(w, 99, 0, phaseClosed, 0).next()
	o.abort = true
	if res, err := c.tp1(term, o); res != aborted {
		t.Fatalf("voluntary abort ended %v: %v", res, err)
	}
	term.exp.tell[o.branch*int32(w.tellers)+o.teller] += int64(o.amount)
	term.exp.brch[o.branch] += int64(o.amount)
	if probs := c.verify(term.exp); len(probs) == 0 {
		t.Error("gate passed with an aborted transaction's amounts expected")
	}
}
