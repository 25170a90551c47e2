package main

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// encode renders an op as fixed-width bytes, for stream comparison.
func (o op) encode(b []byte) []byte {
	b = append(b, o.kind)
	if o.abort {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for _, v := range []int32{o.home, o.branch, o.teller, o.abr, o.acct, o.amount} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// streamBytes encodes the first n ops of a closed round and the schedule
// of a paced round, for terminal term out of terms.
func streamBytes(w *workload, seed int64, term, terms, round, n int, pacedDur time.Duration) []byte {
	g := newGen(w, seed, term, phaseClosed, round)
	var b []byte
	for i := 0; i < n; i++ {
		b = g.next().encode(b)
	}
	for _, p := range schedule(w, seed, term, round, w.pacedRate/float64(terms), pacedDur) {
		b = binary.LittleEndian.AppendUint64(b, uint64(p.due))
		b = p.op.encode(b)
	}
	return b
}

func TestOpStreamDeterministic(t *testing.T) {
	const terms, n, paced = 2, 2000, 2 * time.Second
	for _, w := range workloads {
		for term := 0; term < terms; term++ {
			a := streamBytes(w, 42, term, terms, 3, n, paced)
			b := streamBytes(w, 42, term, terms, 3, n, paced)
			if !bytes.Equal(a, b) {
				t.Errorf("%s terminal %d: same seed gave different op streams", w.name, term)
			}
			if c := streamBytes(w, 43, term, terms, 3, n, paced); bytes.Equal(a, c) {
				t.Errorf("%s terminal %d: seeds 42 and 43 gave the same op stream", w.name, term)
			}
			if c := streamBytes(w, 42, term, terms, 4, n, paced); bytes.Equal(a, c) {
				t.Errorf("%s terminal %d: rounds 3 and 4 gave the same op stream", w.name, term)
			}
		}
		if bytes.Equal(streamBytes(w, 42, 0, terms, 3, n, paced), streamBytes(w, 42, 1, terms, 3, n, paced)) {
			t.Errorf("%s: terminals 0 and 1 drew the same op stream", w.name)
		}
	}
}

func TestOpsMatchWorkloadShape(t *testing.T) {
	for _, w := range workloads {
		g := newGen(w, 7, 0, phaseClosed, 0)
		kinds := map[byte]int{}
		aborts := 0
		const n = 20000
		for i := 0; i < n; i++ {
			o := g.next()
			kinds[o.kind]++
			if o.abort {
				aborts++
			}
			if w.browse {
				if o.acct < 0 || int(o.acct) >= w.records {
					t.Fatalf("%s: record %d out of range", w.name, o.acct)
				}
				continue
			}
			if o.amount == 0 {
				t.Fatalf("%s: zero amount", w.name)
			}
			if int(o.branch)/w.branches != int(o.home) {
				t.Fatalf("%s: teller branch %d not on home node %d", w.name, o.branch, o.home)
			}
			remote := int(o.abr)/w.branches != int(o.home)
			if remote != (w.nodes > 1) {
				t.Fatalf("%s: account branch %d, home node %d: remote=%v", w.name, o.abr, o.home, remote)
			}
		}
		if w.browse {
			if r := kinds[opRead]; r < n*75/100 || r > n*85/100 {
				t.Errorf("%s: %d reads of %d, want about 80%%", w.name, r, n)
			}
			if u := kinds[opUpdate]; u < n*8/100 || u > n*12/100 {
				t.Errorf("%s: %d updates of %d, want about 10%%", w.name, u, n)
			}
		} else if want := w.abortFrac * n; float64(aborts) < want*0.7 || float64(aborts) > want*1.3+1 {
			t.Errorf("%s: %d voluntary aborts of %d, want about %.0f", w.name, aborts, n, want)
		}
	}
}

func TestQuantileExact(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 1000; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	if v, beyond := quantile(d, 0.50); v != 500*time.Millisecond || beyond != 500 {
		t.Errorf("p50 = %v with %d beyond, want 500ms with 500", v, beyond)
	}
	if v, beyond := quantile(d, 0.99); v != 990*time.Millisecond || beyond != 10 {
		t.Errorf("p99 = %v with %d beyond, want 990ms with 10", v, beyond)
	}
	// Latencies far beyond any fixed histogram bucket are reported as is.
	d[999] = time.Minute
	if v, _ := quantile(d, 1); v != time.Minute {
		t.Errorf("max = %v, want 1m", v)
	}
}
