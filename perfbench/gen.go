package main

import (
	"math"
	"math/rand"
	"time"
)

// Op kinds. A terminal request is exactly one op.
const (
	opTP1    byte = iota + 1 // DebitCredit: account, teller, branch, history
	opRead                   // browse: one unlocked FS.Read
	opRange                  // browse: one FS.ReadRange of rangeLen records
	opUpdate                 // browse-mix write: ReadLock + Update + Commit
)

// Phases select independent op streams for one terminal; each round of a
// phase draws its own stream.
const (
	phaseWarmup = iota
	phaseClosed
	phaseTraced
	phasePaced
)

// op is one generated terminal request. The workload interprets the
// fields; the generator alone decides them, from the seed.
type op struct {
	kind   byte
	abort  bool  // TP1: end in ABORT-TRANSACTION after the updates
	home   int32 // node index the transaction begins on
	branch int32 // TP1: global branch index (teller and branch records)
	teller int32
	abr    int32 // TP1: global branch index owning the account
	acct   int32 // TP1: account within abr; browse: record index
	amount int32 // TP1: signed, never zero
}

// gen draws one terminal's op stream for one phase.
type gen struct {
	w   *workload
	rng *rand.Rand
}

// subSeed derives an independent stream seed (splitmix64 finaliser).
func subSeed(seed int64, parts ...int) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x)
}

func newGen(w *workload, seed int64, term, phase, round int) *gen {
	return &gen{w: w, rng: rand.New(rand.NewSource(subSeed(seed, term, phase, round)))}
}

func (g *gen) next() op {
	w, r := g.w, g.rng
	if w.browse {
		o := op{acct: int32(r.Intn(w.records))}
		switch p := r.Intn(100); {
		case p < 80:
			o.kind = opRead
		case p < 90:
			o.kind = opRange
		default:
			o.kind = opUpdate
		}
		return o
	}
	o := op{kind: opTP1, home: int32(r.Intn(w.nodes))}
	o.branch = o.home*int32(w.branches) + int32(r.Intn(w.branches))
	o.teller = int32(r.Intn(w.tellers))
	acctNode := o.home
	if w.nodes > 1 {
		acctNode = (o.home + 1 + int32(r.Intn(w.nodes-1))) % int32(w.nodes)
		o.abr = acctNode*int32(w.branches) + int32(r.Intn(w.branches))
	} else {
		o.abr = o.branch // TP1: the account belongs to the teller's branch
	}
	o.acct = int32(r.Intn(w.accounts))
	o.amount = int32(1 + r.Intn(999))
	if r.Intn(2) == 0 {
		o.amount = -o.amount
	}
	o.abort = r.Float64() < w.abortFrac
	return o
}

// pacedOp is one scheduled request: due is its offset from phase start.
type pacedOp struct {
	due time.Duration
	op  op
}

// schedule precomputes one terminal's Poisson arrivals at rate op/s over
// [0, dur) for one round. The rate is a fixed property of the workload,
// never derived from measured throughput.
func schedule(w *workload, seed int64, term, round int, rate float64, dur time.Duration) []pacedOp {
	g := newGen(w, seed, term, phasePaced, round)
	arr := rand.New(rand.NewSource(subSeed(seed, term, phasePaced, round, 1)))
	var out []pacedOp
	t := 0.0
	for {
		t += arr.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, pacedOp{due: due, op: g.next()})
	}
}

// quantile returns the nearest-rank p-quantile of sorted samples and how
// many samples lie strictly beyond it.
func quantile(sorted []time.Duration, p float64) (v time.Duration, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	v = sorted[i]
	j := i
	for j < n && sorted[j] == v {
		j++
	}
	return v, n - j
}
