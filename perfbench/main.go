// Command perfbench is the repository benchmark. It builds one workload's
// cluster through the public encompass API, drives it from this process
// with one terminal per CPU, checks every result, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload tp1-local --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it adds
// a traced closed phase and reports the per-layer metrics, writing one
// span per public call to .bench_build/trace. Layers are measured only from
// outside: by timing calls into public functions and by diffing public
// counters over the measured window.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: tp1-local, tp1-dist or browse-mix")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "nominal measured seconds: seconds/2 rounds of one closed and one paced window")
	trace := flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "build and seed once, print setup_s, exit")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *setupOnly {
		start := time.Now()
		if _, err := build(w); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("setup_s=%.9f\n", time.Since(start).Seconds())
		return
	}
	res, err := runBench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupChild builds the workload in a child process and returns its
// setup time.
func setupChild(w *workload) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(exe, "--workload", w.name, "--setup-only").Output()
	if err != nil {
		return 0, fmt.Errorf("setup child: %w", err)
	}
	s := strings.TrimSpace(string(out))
	v, err := strconv.ParseFloat(strings.TrimPrefix(s, "setup_s="), 64)
	if err != nil {
		return 0, fmt.Errorf("setup child printed %q", s)
	}
	return v, nil
}

// gcGap is an idle pause before each paced window. A closed window leaves
// at most one GC cycle in flight; on idle CPUs its mark phase finishes
// well within the gap, so a paced window sees the GC work of its own load
// rather than the closed window's.
const gcGap = 250 * time.Millisecond

// traceDir receives one span file per workload, relative to the checkout
// root the benchmark runs from.
const traceDir = ".bench_build/trace"

// window is the nominal length of one closed or paced window. A run
// measures seconds/(2*window) interleaved rounds. Every end-to-end timing
// is a median over rounds of that round's figure, so a stall on the host
// that spans a few rounds moves those rounds, not the result.
const window = time.Second

func runBench(w *workload, seed int64, seconds time.Duration, tracing bool) (result, error) {
	var setups []float64
	for i := 0; i < w.setups-1; i++ {
		s, err := setupChild(w)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}
	start := time.Now()
	c, err := build(w)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	setups = append(setups, time.Since(start).Seconds())
	slices.Sort(setups)

	terms := make([]*terminal, terminals())
	base := time.Now()
	for i := range terms {
		terms[i] = &terminal{id: i, c: c, exp: c.newExpect(), base: base}
		if tracing {
			terms[i].spans = make([]span, 0, 1<<16)
		}
	}
	runtime.GC()

	// Each round runs a closed window, then (traced runs only) a traced
	// closed window, then an idle gap, then a paced window.
	rounds := max(1, int(seconds/(2*window)))
	closed(terms, seed, phaseWarmup, 0, 2*w.windowOps)
	var cls, trs, pcs []phaseResult
	var cpu []float64 // closed-window CPU per op, us
	ledger := snap{}
	first := takeSnap(c)
	for r := 0; r < rounds; r++ {
		before := takeSnap(c)
		cl := closed(terms, seed, phaseClosed, r, w.windowOps)
		after := takeSnap(c)
		ledger.addDelta(before, after)
		cls = append(cls, cl)
		cpu = append(cpu, ratio((after["cpu_ns"]-before["cpu_ns"])/1e3, float64(cl.completed)))
		if tracing {
			for _, t := range terms {
				t.tracing = true
			}
			trs = append(trs, closed(terms, seed, phaseTraced, r, w.windowOps))
			for _, t := range terms {
				t.tracing = false
			}
		}
		time.Sleep(gcGap)
		pcs = append(pcs, paced(terms, seed, r, window))
	}
	end := takeSnap(c)

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	exp := c.newExpect()
	var probs []string
	for _, t := range terms {
		exp.merge(t.exp)
		probs = append(probs, t.problems...)
	}
	probs = append(probs, c.verify(exp)...)

	cl, tr, pc := pool(cls), pool(trs), pool(pcs)
	attempted := cl.attempted + tr.attempted + pc.attempted
	failedOps := cl.failed + tr.failed + pc.failed
	res := result{Correct: len(probs) == 0, Attempted: attempted, Failed: failedOps, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	report(w, seed, setups, cls, pcs, cpu, cl, pc)
	for _, t := range terms {
		for _, e := range t.errs {
			fmt.Printf("  error: terminal %d: %s\n", t.id, e)
		}
	}
	if len(probs) == 0 {
		fmt.Println("correctness: ok")
	}
	for _, p := range probs {
		fmt.Println("correctness FAILED:", p)
	}

	if !tracing {
		put("setup_s", setups[len(setups)/2], "s")
		put("ops_per_s", medianOf(cls, rate), "op/s")
		put("p50_ms", medianOf(cls, q(0.50)), "ms")
		put("p99_ms", medianOf(cls, q(0.99)), "ms")
		put("cpu_us_per_op", median(cpu), "us")
		put("paced.p50_ms", medianOf(pcs, q(0.50)), "ms")
		put("heap_mb", float64(mem.HeapAlloc)/(1<<20), "MB")
		put("ok_frac", 1-ratio(float64(failedOps), float64(attempted)), "ratio")
		return res, nil
	}

	var spans [][]span
	for _, t := range terms {
		spans = append(spans, t.spans)
	}
	layerMetrics(put, ledger, first, end, cl, pc, spans)
	put("failed_frac", ratio(float64(failedOps), float64(attempted)), "ratio")
	put("trace.overhead_frac", 1-ratio(medianOf(trs, rate), medianOf(cls, rate)), "ratio")
	if err := writeSpans(filepath.Join(traceDir, w.name+".jsonl"), spans); err != nil {
		return result{}, err
	}
	return res, nil
}

// rate is a window's completed ops per second.
func rate(r phaseResult) float64 { return ratio(float64(r.completed), r.elapsed.Seconds()) }

// q returns a window's exact p-quantile latency in ms.
func q(p float64) func(phaseResult) float64 {
	return func(r phaseResult) float64 {
		v, _ := quantile(r.lat, p)
		return ms(v)
	}
}

func medianOf(rs []phaseResult, f func(phaseResult) float64) float64 {
	var v []float64
	for _, r := range rs {
		v = append(v, f(r))
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = slices.Clone(v)
	slices.Sort(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// quants renders a window's sample count and exact quantiles, each with
// the number of samples beyond it.
func quants(r phaseResult, ps ...float64) string {
	s := fmt.Sprintf("samples %d", len(r.lat))
	for _, p := range ps {
		v, beyond := quantile(r.lat, p)
		s += fmt.Sprintf(" p%.0f %.3fms (%d beyond)", p*100, ms(v), beyond)
	}
	return s
}

// report prints the human-readable summary: each round's figures, whose
// medians are the reported timings, then every round's samples pooled.
func report(w *workload, seed int64, setups []float64, cls, pcs []phaseResult, cpu []float64, cl, pc phaseResult) {
	fmt.Printf("workload %s seed %d terminals %d\n", w.name, seed, terminals())
	fmt.Printf("setup: %d builds, seconds %v\n", len(setups), setups)
	for r := range cls {
		fmt.Printf("round %d: closed %.0f op/s cpu %.1fus/op %s; paced %s\n",
			r, rate(cls[r]), cpu[r], quants(cls[r], 0.50, 0.99), quants(pcs[r], 0.50))
	}
	fmt.Printf("pooled over %d rounds:\n", len(cls))
	for _, ph := range []struct {
		name string
		r    phaseResult
	}{{"closed", cl}, {"paced", pc}} {
		r := ph.r
		fmt.Printf("%s: elapsed %.3fs attempted %d completed %d failed %d %s\n",
			ph.name, r.elapsed.Seconds(), r.attempted, r.completed, r.failed, quants(r, 0.50, 0.99))
	}
	if len(pc.late) > 0 {
		l50, _ := quantile(pc.late, 0.50)
		l99, _ := quantile(pc.late, 0.99)
		fmt.Printf("generator: %d timed waits, late p50 %.1fus p99 %.1fus\n", len(pc.late), us(l50), us(l99))
	}
}

func writeSpans(path string, spans [][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var n int
	for term, ss := range spans {
		for i, s := range ss {
			// A request's spans share its transid, or for a browse op
			// the id of its root span.
			root := i
			if s.parent >= 0 {
				root = int(s.parent)
			}
			req := fmt.Sprintf("t%d.%d", term, root)
			if tx := ss[root].tx; tx != nil {
				req = tx.ID.String()
			}
			parent := "null"
			if s.parent >= 0 {
				parent = fmt.Sprintf("\"%d.%d\"", term, s.parent)
			}
			fmt.Fprintf(bw, "{\"id\":\"%d.%d\",\"parent\":%s,\"req\":%q,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
				term, i, parent, req, spanNames[s.kind], s.start, s.end)
			n++
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", n, path)
	return nil
}
