package dist

import (
	"errors"
	"testing"
	"time"

	"appfit/internal/buffer"
	"appfit/internal/rt"
	"appfit/internal/simnet"
	"appfit/internal/simtime"
)

func TestDirectFIFOAndPending(t *testing.T) {
	d := NewDirect()
	m := Match{Src: 0, Dst: 1, Class: ClassP2P, Tag: 3}
	d.Send(m, buffer.F64{1})
	d.Send(m, buffer.F64{2})
	if p := d.Pending(); p != 2 {
		t.Fatalf("Pending = %d, want 2", p)
	}
	for want := 1.0; want <= 2; want++ {
		p, err := d.Recv(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.(buffer.F64)[0]; got != want {
			t.Fatalf("Recv = %v, want %v (FIFO violated)", got, want)
		}
	}
	if p := d.Pending(); p != 0 {
		t.Fatalf("Pending = %d, want 0", p)
	}
}

func TestDirectCloseUnblocksRecv(t *testing.T) {
	d := NewDirect()
	done := make(chan error, 1)
	go func() {
		_, err := d.Recv(Match{Src: 0, Dst: 1})
		done <- err
	}()
	d.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after Close = %v, want ErrClosed", err)
	}
}

func TestSimTransportChargesTheFabric(t *testing.T) {
	// A World over the simnet transport delivers the same values as Direct
	// while accounting every message's latency + bandwidth cost with
	// per-link serialization.
	const k = 8
	const n = 1 << 10
	cfg := simnet.Marenostrum()
	sim := NewSim(cfg)
	w := NewWorld(Config{Ranks: 2, Transport: sim})
	a := buffer.NewF64(n)
	d := buffer.NewF64(n)
	sum := buffer.NewF64(1)
	for i := 0; i < k; i++ {
		v := float64(i + 1)
		w.Rank(0).Runtime().Submit("fill", func(ctx *rt.Ctx) {
			x := ctx.F64(0)
			for j := range x {
				x[j] = v
			}
		}, rt.Out("a", a))
		w.Comm().Rank(0).Send(1, i, "a", a)
		w.Comm().Rank(1).Recv(0, i, "d", d)
		w.Rank(1).Runtime().Submit("acc", func(ctx *rt.Ctx) {
			ctx.F64(1)[0] += ctx.F64(0)[0]
		}, rt.In("d", d), rt.Inout("sum", sum))
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if want := float64(k * (k + 1) / 2); sum[0] != want {
		t.Fatalf("sum = %v, want %v", sum[0], want)
	}
	if got := sim.Messages(); got != k {
		t.Fatalf("Messages = %d, want %d", got, k)
	}
	if got, want := sim.BytesSent(), int64(k*n*8); got != want {
		t.Fatalf("BytesSent = %d, want %d", got, want)
	}
	// All k messages cross the same directed link, so the virtual clock must
	// show exactly k serialized transfers.
	if got, want := sim.Now(), simtime.Time(k)*cfg.TransferTime(n*8); got != want {
		t.Fatalf("virtual time = %v, want %v", got, want)
	}
}

// parkedOn reports how many receivers are parked on m's wait queue, and how
// many wait queues exist in all.
func parkedOn(d *Direct, m Match) (parked, queues int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if w := d.waiters[m]; w != nil {
		parked = w.parked
	}
	return parked, len(d.waiters)
}

// waitParked polls until m has want parked receivers.
func waitParked(t *testing.T, d *Direct, m Match, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if p, _ := parkedOn(d, m); p == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("receivers never parked on %+v (want %d)", m, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDirectSendWakesParkedReceiver: two receivers parked on one mailbox
// each get exactly one of two sends. Send signals one waiter of its own
// mailbox, so a lost wakeup would leave a receiver parked with a message
// queued.
func TestDirectSendWakesParkedReceiver(t *testing.T) {
	d := NewDirect()
	m := Match{Src: 0, Dst: 1, Class: ClassP2P, Tag: 5}
	got := make(chan float64, 2)
	for i := 0; i < 2; i++ {
		go func() {
			p, err := d.Recv(m)
			if err != nil {
				got <- -1
				return
			}
			got <- p.(buffer.F64)[0]
		}()
	}
	waitParked(t, d, m, 2)
	d.Send(m, buffer.F64{1})
	d.Send(m, buffer.F64{2})
	seen := map[float64]bool{}
	for i := 0; i < 2; i++ {
		select {
		case v := <-got:
			seen[v] = true
		case <-time.After(10 * time.Second):
			t.Fatal("a parked receiver was never woken")
		}
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("receivers got %v, want one each of 1 and 2", seen)
	}
	if _, queues := parkedOn(d, m); queues != 0 {
		t.Fatalf("%d wait queues left after both receivers left", queues)
	}
}

// TestDirectCloseReleasesEveryMailbox: Close wakes every receiver, parked
// on different mailboxes and two deep on one, and each returns ErrClosed.
func TestDirectCloseReleasesEveryMailbox(t *testing.T) {
	d := NewDirect()
	const n = 3
	errs := make(chan error, n+1)
	for i := 0; i < n; i++ {
		m := Match{Src: i, Dst: n, Tag: i}
		depth := 1
		if i == 0 {
			depth = 2
		}
		for j := 0; j < depth; j++ {
			go func() {
				_, err := d.Recv(m)
				errs <- err
			}()
		}
		waitParked(t, d, m, depth)
	}
	if _, queues := parkedOn(d, Match{}); queues != n {
		t.Fatalf("%d wait queues, want %d", queues, n)
	}
	d.Close()
	for i := 0; i < n+1; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv after Close = %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close left a receiver parked")
		}
	}
}

// TestDirectDrainedWorldLeavesNoWaitQueue: after a World whose receivers
// park (receives submitted before their sends) drains, no message and no
// wait queue is left in the table.
func TestDirectDrainedWorldLeavesNoWaitQueue(t *testing.T) {
	const n = 8
	d := NewDirect()
	w := NewWorld(Config{Ranks: n, Transport: d})
	c := w.Comm()
	halo := make([]buffer.F64, n)
	own := make([]buffer.F64, n)
	red := make([]buffer.F64, n)
	for i := 0; i < n; i++ {
		halo[i] = buffer.NewF64(1)
		own[i] = buffer.F64{float64(i)}
		red[i] = buffer.F64{1}
		c.Rank(i).Recv((i+n-1)%n, 0, "halo", halo[i])
	}
	for i := 0; i < n; i++ {
		c.Rank(i).Send((i+1)%n, 0, "own", own[i])
	}
	c.AllreduceSum(1, "red", red)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if halo[0][0] != n-1 || red[0][0] != n {
		t.Fatalf("halo %v red %v", halo[0][0], red[0][0])
	}
	if p := d.Pending(); p != 0 {
		t.Fatalf("Pending = %d after drain", p)
	}
	if _, queues := parkedOn(d, Match{}); queues != 0 {
		t.Fatalf("%d wait queues left after drain", queues)
	}
}
