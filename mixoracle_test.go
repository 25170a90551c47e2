package encompass_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"encompass"
	"encompass/internal/txid"
)

// TestMixStateOracle runs a seeded mix of conflicting and non-conflicting
// transactions, under whatever detector the invocation selects (`make
// race` runs it with -race), and checks the final volume against contents
// computed from the mix itself: each hot key holds the sum of the deltas
// of its committed iterations, and each private key exists exactly when
// its iteration committed. Every captured trace must also pass the Figure
// 3 oracle with zero runtime-checker violations.
//
// The mix mirrors the DiscWorkers oracle (order-independent final state
// under strict 2PL) and adds a server-class leg: a third of the hot-key
// updates run inside an application-server handler reached through
// CallServerFrom from every CPU of the node, so the link manager and the
// instances' mailboxes sit on the exercised path.
func TestMixStateOracle(t *testing.T) {
	got := runBatchMix(t)
	want := expectedBatchMix(batchIters())
	for key, v := range want {
		if gv, ok := got[key]; !ok || string(gv) != string(v) {
			t.Errorf("batch/%s = %q, want %q", key, gv, v)
		}
	}
	for key, v := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("batch/%s = %q: no committed iteration wrote it", key, v)
		}
	}
}

const (
	batchHotKeys    = 4
	batchGoroutines = 6
)

func batchIters() int {
	if testing.Short() {
		return 12
	}
	return 36
}

// expectedBatchMix is the mix file's final contents, derived from the
// iterations alone: batchIteration commits every iteration outside the
// planned-abort subset (i%8 == 3), so each hot key sums the deltas of its
// committed iterations and each committed iteration leaves its private key.
func expectedBatchMix(iters int) map[string][]byte {
	sums := make([]int, batchHotKeys)
	want := map[string][]byte{}
	for w := 0; w < batchGoroutines; w++ {
		for i := 0; i < iters; i++ {
			if i%8 == 3 {
				continue
			}
			sums[(w+i)%batchHotKeys] += batchDelta(w, i)
			want[batchPrivKey(w, i)] = []byte(fmt.Sprintf("w%d-i%d", w, i))
		}
	}
	for h, sum := range sums {
		want[batchHotKey(h)] = []byte(strconv.Itoa(sum))
	}
	return want
}

// runBatchMix runs the seeded mix and returns the mix file's final
// contents as the volume holds them.
func runBatchMix(t *testing.T) map[string][]byte {
	t.Helper()
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "solo", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "v1", Audited: true, CacheSize: 256}}},
		},
		TraceCapacity: 32768,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := sys.Node("solo")
	if err := sys.CreateFileEverywhere(encompass.LocalFile("batch", encompass.KeySequenced, "solo", "v1")); err != nil {
		t.Fatal(err)
	}
	// The server-class leg: apply a commutative delta to a hot record
	// inside the CALLER's transaction — the handler shape mfg's
	// apply-replica uses. Requests reach it via CallServerFrom.
	if _, err := node.StartServerClass(encompass.ServerClassConfig{
		Class:        "mixer",
		MinInstances: 2,
		MaxInstances: 8,
		Handler: func(tx txid.ID, f map[string]string) (map[string]string, error) {
			cur, err := node.FS.ReadLock(tx, "batch", f["KEY"])
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(string(cur))
			if err != nil {
				return nil, fmt.Errorf("hot record %s corrupt: %q", f["KEY"], cur)
			}
			d, _ := strconv.Atoi(f["DELTA"])
			if err := node.FS.Update(tx, "batch", f["KEY"], []byte(strconv.Itoa(n+d))); err != nil {
				return nil, err
			}
			return map[string]string{"STATUS": "OK"}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	seedTx, err := node.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < batchHotKeys; h++ {
		if err := seedTx.Insert("batch", batchHotKey(h), []byte("0")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seedTx.Commit(); err != nil {
		t.Fatal(err)
	}

	iters := batchIters()
	var wg sync.WaitGroup
	errs := make(chan error, batchGoroutines*iters)
	for w := 0; w < batchGoroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := batchIteration(node, w, i); err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	if validated := validateAllTraces(t, sys); validated == 0 {
		t.Fatal("no traces captured")
	}
	return node.Volumes["v1"].Disk.Snapshot()["batch"]
}

// batchIteration runs one transaction of the mix, retrying on lock
// timeout: hot-key delta (every third iteration through the server class),
// a disjoint private insert, and a fixed abort subset whose backout must
// erase the work.
func batchIteration(node *encompass.Node, w, i int) error {
	for attempt := 0; ; attempt++ {
		tx, err := node.Begin()
		if err != nil {
			return err
		}
		retry, err := func() (bool, error) {
			hot := batchHotKey((w + i) % batchHotKeys)
			delta := batchDelta(w, i)
			if i%3 == 0 {
				if _, err := node.CallServerFrom(w%4, "", "mixer", tx.ID, map[string]string{
					"KEY": hot, "DELTA": strconv.Itoa(delta),
				}, 5*time.Second); err != nil {
					return true, tx.Abort("server-side update refused, retrying")
				}
			} else {
				cur, err := tx.ReadLock("batch", hot)
				if err != nil {
					return true, tx.Abort("lock timeout, retrying")
				}
				n, err := strconv.Atoi(string(cur))
				if err != nil {
					return false, fmt.Errorf("hot record %s corrupt: %q", hot, cur)
				}
				if err := tx.Update("batch", hot, []byte(strconv.Itoa(n+delta))); err != nil {
					return true, tx.Abort("update refused, retrying")
				}
			}
			if err := tx.Insert("batch", batchPrivKey(w, i), []byte(fmt.Sprintf("w%d-i%d", w, i))); err != nil {
				return true, tx.Abort("insert refused, retrying")
			}
			if i%8 == 3 { // fixed abort subset
				return false, tx.Abort("planned abort")
			}
			return false, tx.Commit()
		}()
		if err != nil {
			return err
		}
		if !retry {
			return nil
		}
		if attempt > 50 {
			return fmt.Errorf("starved after %d lock-timeout retries", attempt)
		}
	}
}

func batchDelta(w, i int) int      { return w*31 + i%7 + 1 }
func batchHotKey(h int) string     { return fmt.Sprintf("bhot-%d", h) }
func batchPrivKey(w, i int) string { return fmt.Sprintf("bown-w%d-i%03d", w, i) }
