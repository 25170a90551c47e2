package mfg

import (
	"fmt"
	"testing"
	"time"
)

// TestDrainBatchChunksConverge: a backlog of deferred updates built up
// behind a partition must, once healed, converge to exactly the per-key
// final values, the suspense file must drain to zero, and the applied
// counter must account for every queued entry.
func TestDrainBatchChunksConverge(t *testing.T) {
	sys, app := buildMfg(t)
	const items = 5
	for i := 0; i < items; i++ {
		if err := app.SeedItem("item-master", fmt.Sprintf("batch-%d", i), "cupertino", "v0"); err != nil {
			t.Fatal(err)
		}
	}
	sys.Partition("neufahrn")
	for i := 0; i < items; i++ {
		if err := app.UpdateItem("cupertino", "item-master", fmt.Sprintf("batch-%d", i), fmt.Sprintf("final-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	sys.Heal()
	for i := 0; i < items; i++ {
		key := fmt.Sprintf("batch-%d", i)
		if !app.WaitConverged("item-master", key, 10*time.Second) {
			t.Fatalf("%s did not converge", key)
		}
		for _, node := range DefaultNodes {
			if _, p, _ := app.ReadItem(node, "item-master", key); p != fmt.Sprintf("final-%d", i) {
				t.Errorf("%s at %s = %q, want final-%d", key, node, p, i)
			}
		}
	}
	// Every queued entry is eventually applied (3 replica targets x items),
	// and the suspense file empties.
	want := uint64(3 * items)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && app.Stats().DeferredApplied < want {
		time.Sleep(5 * time.Millisecond)
	}
	if st := app.Stats(); st.DeferredApplied != want {
		t.Errorf("DeferredApplied = %d, want %d (stats = %+v)", st.DeferredApplied, want, st)
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && app.SuspenseDepth("cupertino") != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if d := app.SuspenseDepth("cupertino"); d != 0 {
		t.Errorf("suspense depth = %d after the backlog drained", d)
	}
}

// TestDrainBatchOrderPreserved: a backlog of sequential updates to ONE
// key must apply in FIFO order when the partition heals.
func TestDrainBatchOrderPreserved(t *testing.T) {
	sys, app := buildMfg(t)
	app.SeedItem("item-master", "chunked", "cupertino", "v0")
	sys.Partition("neufahrn")
	for i := 1; i <= 4; i++ {
		if err := app.UpdateItem("cupertino", "item-master", "chunked", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	sys.Heal()
	if !app.WaitConverged("item-master", "chunked", 10*time.Second) {
		t.Fatal("did not converge")
	}
	if _, p, _ := app.ReadItem("neufahrn", "item-master", "chunked"); p != "v4" {
		t.Errorf("neufahrn = %q, want v4 (backlog drain broke FIFO order)", p)
	}
}
