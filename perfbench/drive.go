package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"encompass"
)

// terminals is the number of load terminals: one per host CPU, all in
// this one process.
func terminals() int { return runtime.NumCPU() }

// terminal is one closed- or paced-loop client. Its fields are touched
// only by its own goroutine until the phase ends.
type terminal struct {
	id  int
	c   *cluster
	exp expect

	lat       []time.Duration // per completed op, this phase
	late      []time.Duration // paced: how far past due the op was sent, when the terminal was idle
	attempted int
	completed int // done or voluntarily aborted
	failed    int
	userBytes int64
	problems  []string
	errs      []string

	// Tracing, on during the traced phase only.
	tracing bool
	base    time.Time
	spans   []span
	root    int32
}

func (t *terminal) problem(s string) {
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf("terminal %d: %s", t.id, s))
	}
}

// resetPhase clears per-phase measurements, keeping expected state.
func (t *terminal) resetPhase() {
	t.lat = t.lat[:0]
	t.late = t.late[:0]
	t.attempted, t.completed, t.failed = 0, 0, 0
	t.userBytes = 0
}

// run executes one op, timing it from start (its due time when paced).
func (t *terminal) run(o op, start time.Time) {
	t.attempted++
	if t.tracing {
		t.root = int32(len(t.spans))
		t.spans = append(t.spans, span{kind: spOp, parent: -1, start: int64(start.Sub(t.base))})
	}
	res, err := t.c.exec(t, o)
	end := time.Now()
	if t.tracing {
		t.spans[t.root].end = int64(end.Sub(t.base))
	}
	switch res {
	case done, aborted:
		t.completed++
		t.lat = append(t.lat, end.Sub(start))
	default:
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// phaseResult aggregates one phase over all terminals.
type phaseResult struct {
	elapsed   time.Duration
	attempted int
	completed int
	failed    int
	lat       []time.Duration // sorted
	late      []time.Duration // sorted
	userBytes int64
}

// pool merges results: counts, samples and elapsed times add.
func pool(rs []phaseResult) phaseResult {
	var p phaseResult
	for _, r := range rs {
		p.elapsed += r.elapsed
		p.attempted += r.attempted
		p.completed += r.completed
		p.failed += r.failed
		p.lat = append(p.lat, r.lat...)
		p.late = append(p.late, r.late...)
		p.userBytes += r.userBytes
	}
	slices.Sort(p.lat)
	slices.Sort(p.late)
	return p
}

func gather(terms []*terminal, elapsed time.Duration) phaseResult {
	rs := make([]phaseResult, len(terms))
	for i, t := range terms {
		rs[i] = phaseResult{attempted: t.attempted, completed: t.completed, failed: t.failed,
			lat: t.lat, late: t.late, userBytes: t.userBytes}
	}
	r := pool(rs)
	r.elapsed = elapsed
	return r
}

// closed runs every terminal with no think time until the terminals
// together have started n ops; each terminal draws its ops from its own
// stream. elapsed runs to the last completion. A fixed amount of work,
// not a fixed time, keeps the committed count, and so the retained heap,
// the same on both sides of a comparison.
func closed(terms []*terminal, seed int64, phase, round, n int) phaseResult {
	var wg sync.WaitGroup
	var left atomic.Int64
	left.Store(int64(n))
	start := time.Now()
	for _, t := range terms {
		t.resetPhase()
		g := newGen(t.c.w, seed, t.id, phase, round)
		wg.Add(1)
		go func(t *terminal) {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				t.run(g.next(), time.Now())
			}
		}(t)
	}
	wg.Wait()
	return gather(terms, time.Since(start))
}

// paced runs each terminal's precomputed Poisson schedule. A request's
// latency runs from its due time, so a stall charges every request that
// came due during it.
func paced(terms []*terminal, seed int64, round int, d time.Duration) phaseResult {
	var wg sync.WaitGroup
	rate := terms[0].c.w.pacedRate / float64(len(terms))
	scheds := make([][]pacedOp, len(terms))
	for i, t := range terms {
		t.resetPhase()
		scheds[i] = schedule(t.c.w, seed, t.id, round, rate, d)
	}
	start := time.Now().Add(2 * time.Millisecond)
	for i, t := range terms {
		wg.Add(1)
		go func(t *terminal, sched []pacedOp) {
			defer wg.Done()
			for _, p := range sched {
				due := start.Add(p.due)
				if wait := time.Until(due); wait > 0 {
					sleepUntil(due)
					t.late = append(t.late, time.Since(due))
				}
				t.run(p.op, due)
			}
		}(t, scheds[i])
	}
	wg.Wait()
	return gather(terms, time.Since(start))
}

// sleepUntil blocks in nanosleep(2) until due. time.Sleep rounds sub-ms
// waits up to the runtime timer's granularity, which would make the
// paced phase measure the timer instead of the system.
func sleepUntil(due time.Time) {
	for {
		wait := time.Until(due)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop recomputes the remainder
	}
}

// Span kinds: the root is one terminal request; the others are the public
// calls it makes.
const (
	spOp byte = iota
	spBegin
	spReadLock
	spUpdate
	spAppend
	spCommit
	spAbort
	spRead
	spRange
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"op", "begin", "readlock", "update", "append", "commit", "abort", "read", "range"}

// span is one recorded call. Times are ns since the traced phase began;
// parent indexes the terminal's span list (-1 for a root).
type span struct {
	kind       byte
	parent     int32
	start, end int64
	tx         *encompass.Tx
}

func (t *terminal) mark() time.Time {
	if !t.tracing {
		return time.Time{}
	}
	return time.Now()
}

func (t *terminal) span(kind byte, s time.Time) {
	if !t.tracing {
		return
	}
	t.spans = append(t.spans, span{kind: kind, parent: t.root, start: int64(s.Sub(t.base)), end: int64(time.Since(t.base))})
}

func (t *terminal) setTx(tx *encompass.Tx) {
	if t.tracing {
		t.spans[t.root].tx = tx
	}
}
