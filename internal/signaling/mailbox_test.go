package signaling

import (
	"sync"
	"testing"
)

func msgWithHop(h int) message {
	return message{kind: kindSetup, hop: h}
}

func TestMailboxFIFO(t *testing.T) {
	mb := newMailbox()
	for i := 0; i < 5; i++ {
		mb.put(msgWithHop(i))
	}
	for i := 0; i < 5; i++ {
		got, ok := mb.get()
		if !ok {
			t.Fatalf("get %d: closed", i)
		}
		if got.hop != i {
			t.Fatalf("message %d out of order: hop %d", i, got.hop)
		}
	}
}

func TestMailboxBlocksUntilPut(t *testing.T) {
	mb := newMailbox()
	done := make(chan message, 1)
	go func() {
		m, ok := mb.get()
		if !ok {
			t.Error("unexpected close")
		}
		done <- m
	}()
	mb.put(msgWithHop(7))
	if got := <-done; got.hop != 7 {
		t.Fatalf("got hop %d", got.hop)
	}
}

func TestMailboxCloseDrainsThenEnds(t *testing.T) {
	mb := newMailbox()
	mb.put(msgWithHop(1))
	mb.put(msgWithHop(2))
	mb.close()
	// Pending messages are still delivered after close.
	for i := 1; i <= 2; i++ {
		got, ok := mb.get()
		if !ok || got.hop != i {
			t.Fatalf("drain %d: got %v, %v", i, got.hop, ok)
		}
	}
	if _, ok := mb.get(); ok {
		t.Fatal("get succeeded on a drained, closed mailbox")
	}
	// Puts after close are dropped.
	mb.put(msgWithHop(3))
	if _, ok := mb.get(); ok {
		t.Fatal("message accepted after close")
	}
}

func TestMailboxCloseUnblocksReader(t *testing.T) {
	mb := newMailbox()
	done := make(chan bool, 1)
	go func() {
		_, ok := mb.get()
		done <- ok
	}()
	mb.close()
	if ok := <-done; ok {
		t.Fatal("blocked reader received a message from an empty closed mailbox")
	}
}

func TestMailboxConcurrentProducers(t *testing.T) {
	mb := newMailbox()
	const producers, per = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				mb.put(msgWithHop(p*per + i))
			}
		}(p)
	}
	received := make(chan int, 1)
	go func() {
		count := 0
		for count < producers*per {
			if _, ok := mb.get(); !ok {
				break
			}
			count++
		}
		received <- count
	}()
	wg.Wait()
	if got := <-received; got != producers*per {
		t.Fatalf("received %d of %d messages", got, producers*per)
	}
}
