package workload

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"encompass"
	"encompass/internal/lock"
	"encompass/internal/msg"
)

func buildSys(t *testing.T, nodes ...string) *encompass.System {
	t.Helper()
	var specs []encompass.NodeSpec
	for _, n := range nodes {
		specs = append(specs, encompass.NodeSpec{
			Name: n, CPUs: 4,
			Volumes: []encompass.VolumeSpec{{Name: "v-" + n, Audited: true, CacheSize: 256}},
		})
	}
	sys, err := encompass.Build(encompass.Config{Nodes: specs})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBankSingleNode(t *testing.T) {
	sys := buildSys(t, "a")
	bank, err := SetupBank(sys, BankConfig{
		Placement: []Placement{{Node: "a", Volume: "v-a"}},
		Branches:  2, Tellers: 3, Accounts: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := bank.Run("a", 50, 4)
	if res.Committed != 50 {
		t.Errorf("committed = %d/%d (aborted %d)", res.Committed, 50, res.Aborted)
	}
	if res.TPS() <= 0 {
		t.Error("TPS not positive")
	}
	if res.Percentile(50) <= 0 || res.Percentile(95) < res.Percentile(50) {
		t.Errorf("latency percentiles: p50=%v p95=%v", res.Percentile(50), res.Percentile(95))
	}
	if err := bank.VerifyConsistency(); err != nil {
		t.Error(err)
	}
}

func TestBankDistributed(t *testing.T) {
	sys := buildSys(t, "a", "b")
	bank, err := SetupBank(sys, BankConfig{
		Placement: []Placement{{Node: "a", Volume: "v-a"}, {Node: "b", Volume: "v-b"}},
		Branches:  4, Tellers: 2, Accounts: 10,
		RemoteFraction: 1.0, // every transaction crosses nodes
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	framesBefore := sys.Network.Stats().Frames
	res := bank.Run("a", 30, 2)
	if res.Committed != 30 {
		t.Errorf("committed = %d (aborted %d)", res.Committed, res.Aborted)
	}
	if sys.Network.Stats().Frames == framesBefore {
		t.Error("distributed workload exchanged no frames")
	}
	if err := bank.VerifyConsistency(); err != nil {
		t.Error(err)
	}
}

func TestBankHotSpotContention(t *testing.T) {
	sys := buildSys(t, "a")
	sys.Node("a").FS.LockTimeout = 100 * time.Millisecond
	bank, err := SetupBank(sys, BankConfig{
		Placement: []Placement{{Node: "a", Volume: "v-a"}},
		Branches:  1, Tellers: 2, Accounts: 4,
		HotAccounts: 1.0, // everyone fights for account 0
		MaxRetries:  20,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := bank.Run("a", 40, 8)
	if res.Committed != 40 {
		t.Errorf("committed = %d (aborted %d, retries %d)", res.Committed, res.Aborted, res.Retries)
	}
	if err := bank.VerifyConsistency(); err != nil {
		t.Error(err)
	}
}

func TestOneTxDeterministicWithSeed(t *testing.T) {
	sys := buildSys(t, "a")
	bank, err := SetupBank(sys, BankConfig{
		Placement: []Placement{{Node: "a", Volume: "v-a"}},
		Branches:  2, Tellers: 2, Accounts: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		if _, err := bank.OneTx("a", rng); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	if err := bank.VerifyConsistency(); err != nil {
		t.Error(err)
	}
}

func TestConsistencySurvivesCPUFailureMidRun(t *testing.T) {
	// The F1 experiment in miniature: kill a CPU mid-workload; affected
	// transactions abort or retry, and the TP1 invariant still holds.
	sys := buildSys(t, "a")
	bank, err := SetupBank(sys, BankConfig{
		Placement: []Placement{{Node: "a", Volume: "v-a"}},
		Branches:  2, Tellers: 3, Accounts: 20, Seed: 9, MaxRetries: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Result, 1)
	go func() { done <- bank.Run("a", 60, 4) }()
	time.Sleep(20 * time.Millisecond)
	sys.Node("a").HW.FailCPU(1)
	res := <-done
	if res.Committed == 0 {
		t.Fatal("nothing committed through the failure")
	}
	if err := bank.VerifyConsistency(); err != nil {
		t.Errorf("invariant violated after CPU failure: %v", err)
	}
	t.Logf("committed=%d aborted=%d retries=%d", res.Committed, res.Aborted, res.Retries)
}

// TestIsRetryable: a transaction the system aborted while it waited on a
// lock sees its wait released, directly or as a server's remote error; the
// terminal restarts it like a lock timeout. Other failures are final.
func TestIsRetryable(t *testing.T) {
	for _, c := range []struct {
		err  error
		want bool
	}{
		{lock.ErrTimeout, true},
		{lock.ErrReleased, true},
		{&msg.RemoteError{Msg: lock.ErrReleased.Error()}, true},
		{errors.New("tmf: transaction aborted"), true},
		{errors.New("fsys: no such file"), false},
	} {
		if got := isRetryable(c.err); got != c.want {
			t.Errorf("isRetryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
