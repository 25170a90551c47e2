package msg

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCoalescedMailboxFIFO: the drain-many mailbox's one observable
// contract is total FIFO order over the queue with exactly-once delivery —
// draining many messages per wakeup may change timing, never ordering.
func TestCoalescedMailboxFIFO(t *testing.T) {
	s := newSys(t, 2)
	const n = 500
	got := make(chan int, n)
	if _, err := s.Spawn(1, "sink", func(p *Process) {
		for i := 0; i < n; i++ {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			got <- m.Payload.(int)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn(0, "sender", func(p *Process) {
		for i := 0; i < n; i++ {
			if err := p.Send(Addr{Name: "sink"}, "seq", i); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case v := <-got:
			if v != i {
				t.Fatalf("message %d delivered as %d: coalesced mailbox broke FIFO order", i, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery stalled after %d of %d messages", i, n)
		}
	}
	wakeups, messages, maxBatch := s.CoalesceStats()
	if messages < n {
		t.Errorf("CoalesceStats messages = %d, want >= %d", messages, n)
	}
	if wakeups == 0 || wakeups > messages {
		t.Errorf("wakeups = %d for %d messages", wakeups, messages)
	}
	if maxBatch == 0 {
		t.Error("max batch = 0: no drain ever carried a message")
	}
}

// TestCoalescedRequestReply: concurrent calls from every CPU through the
// full call path (request, correlated reply) all get their own answer.
func TestCoalescedRequestReply(t *testing.T) {
	s := newSys(t, 3)
	if _, err := s.Spawn(1, "echo", func(p *Process) {
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			p.Reply(m, m.Payload)
		}
	}); err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			r, err := s.ClientCall(ctx, i%3, Addr{Name: "echo"}, "echo", i)
			if err != nil {
				errs <- err
				return
			}
			if r.Payload != i {
				errs <- fmt.Errorf("call %d echoed %v", i, r.Payload)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// fillMailbox queues inboxDepth one-way messages (payloads 0..inboxDepth-1)
// for the named process, sent from CPU 0; the receiver must not be
// draining, so every later send finds the mailbox full.
func fillMailbox(t *testing.T, s *System, name string) {
	t.Helper()
	for i := 0; i < inboxDepth; i++ {
		if err := s.send(Message{From: PID{Node: s.node.Name()}, To: Addr{Name: name}, Kind: "seq", Payload: i}); err != nil {
			t.Fatalf("fill send %d: %v", i, err)
		}
	}
}

// sendAsync sends one message from CPU 0 and closes the returned channel
// when the send returns. A send accepted by the transfer reports nil even
// when the full mailbox later drops it, so callers judge the outcome by
// what the receiver gets, not by the error.
func sendAsync(s *System, name string, payload int) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.send(Message{From: PID{Node: s.node.Name()}, To: Addr{Name: name}, Kind: "seq", Payload: payload})
	}()
	return done
}

// TestMailboxFullReleasedByDrain: senders that find the mailbox at
// inboxDepth block; one drain by the receiver releases all of them through
// the space token, long before inboxFullTimeout, and none of their
// messages is dropped.
func TestMailboxFullReleasedByDrain(t *testing.T) {
	s := newSys(t, 2)
	const blocked = 3
	first := make(chan struct{}) // closed: take one message (one drain)
	rest := make(chan struct{})  // closed: take everything else
	got := make(chan int, inboxDepth+blocked)
	sink, err := s.Spawn(1, "sink", func(p *Process) {
		<-first
		for i := 0; i < inboxDepth+blocked; i++ {
			if i == 1 {
				<-rest
			}
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			got <- m.Payload.(int)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	fillMailbox(t, s, "sink")
	var senders []<-chan struct{}
	for j := 0; j < blocked; j++ {
		senders = append(senders, sendAsync(s, "sink", inboxDepth+j))
	}
	time.Sleep(100 * time.Millisecond)
	for j, done := range senders {
		select {
		case <-done:
			t.Fatalf("sender %d returned while the mailbox was full and undrained", j)
		default:
		}
	}

	close(first)
	release := time.After(inboxFullTimeout / 2)
	for j, done := range senders {
		select {
		case <-done:
		case <-release:
			t.Fatalf("sender %d still blocked after the receiver drained", j)
		}
	}
	sink.mbox.mu.Lock()
	queued := len(sink.mbox.q)
	sink.mbox.mu.Unlock()
	if queued != blocked {
		t.Fatalf("%d messages queued after the release, want the %d blocked sends", queued, blocked)
	}

	close(rest)
	late := map[int]bool{}
	for i := 0; i < inboxDepth+blocked; i++ {
		var v int
		select {
		case v = <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery stalled after %d messages", i)
		}
		if i < inboxDepth && v != i {
			t.Fatalf("message %d delivered as %d: FIFO order broken", i, v)
		}
		if i >= inboxDepth {
			late[v] = true
		}
	}
	for j := 0; j < blocked; j++ {
		if !late[inboxDepth+j] {
			t.Errorf("blocked send %d never delivered", j)
		}
	}
}

// TestMailboxFullSenderReleasedOnCPUFailure: a sender blocked on a full
// mailbox whose process's CPU then fails returns at once — the message is
// undeliverable — instead of waiting out inboxFullTimeout. The receiver is
// stuck in a handler that never looks at its context, so it is the CPU
// failure, not the process exiting, that must release the sender.
func TestMailboxFullSenderReleasedOnCPUFailure(t *testing.T) {
	s := newSys(t, 2)
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	if _, err := s.Spawn(1, "stuck", func(p *Process) { <-hold }); err != nil {
		t.Fatal(err)
	}
	fillMailbox(t, s, "stuck")
	done := sendAsync(s, "stuck", inboxDepth)
	time.Sleep(100 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("sender returned while the mailbox was full and the CPU up")
	default:
	}
	if err := s.node.FailCPU(1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(inboxFullTimeout / 5):
		t.Fatal("blocked sender not released by the receiver's CPU failure")
	}
}
