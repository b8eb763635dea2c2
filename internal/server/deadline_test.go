package server_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// deadlineTimers is the system timeline, counting the deadlines armed
// through it.
type deadlineTimers struct {
	clock.SystemTimers
	armed atomic.Int64
}

func (d *deadlineTimers) WithTimeout(parent context.Context, dur time.Duration) (context.Context, context.CancelFunc) {
	d.armed.Add(1)
	return d.SystemTimers.WithTimeout(parent, dur)
}

// TestServerLockWaitDeadlineOnlyWhenWaiting pins that only a waiting
// lock request arms the lock-wait deadline. No-wait requests never
// park: a write-lock batch and a read that meets a frozen write settle
// at once without a timer, while a waiting read blocked on an unfrozen
// write still gives up at LockWaitTimeout.
func TestServerLockWaitDeadlineOnlyWhenWaiting(t *testing.T) {
	const lockWait = 50 * time.Millisecond
	timers := &deadlineTimers{}
	n := transport.NewMem(transport.LatencyModel{})
	srv, err := server.New(server.Config{
		Addr:             "srv",
		Network:          n,
		LockWaitTimeout:  lockWait,
		WriteLockTimeout: time.Minute,
		Timers:           timers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c := dialRaw(t, n, "srv")

	// Commit x at 15; leave an unfrozen write lock on y.
	at15 := timestamp.NewSet(timestamp.Point(ts(15)))
	if res := c.writeOne(1, "x", at15, []byte("v1")); res.Status != wire.StatusOK || !res.Got.Equal(at15) {
		t.Fatalf("%+v", res)
	}
	f := c.call(wire.TDecideReq, wire.DecideReq{Txn: 1, Proposal: wire.DecideCommit, TS: ts(15)})
	if d, err := wire.DecodeDecideResp(f.Body()); err != nil || d.Kind != wire.DecideCommit {
		t.Fatalf("%+v %v", d, err)
	}
	if ack := c.freezeOne(1, "x", ts(15)); ack.Status != wire.StatusOK {
		t.Fatalf("%+v", ack)
	}
	held := timestamp.NewSet(timestamp.Span(ts(10), ts(20)))
	if res := c.writeOne(2, "y", held, []byte("v2")); res.Status != wire.StatusOK {
		t.Fatalf("%+v", res)
	}
	if got := timers.armed.Load(); got != 0 {
		t.Fatalf("no-wait write-lock batches armed %d deadlines, want 0", got)
	}

	// A no-wait read up to 15 meets the frozen write at its top and
	// settles below it.
	res := c.readOne(3, "x", ts(15))
	if res.Status != wire.StatusOK || res.VersionTS != timestamp.Zero || res.Got.IsEmpty() || !res.Got.Hi.Before(ts(15)) {
		t.Fatalf("no-wait read at the frozen write: %+v", res)
	}
	if got := timers.armed.Load(); got != 0 {
		t.Fatalf("no-wait read armed %d deadlines, want 0", got)
	}

	// A waiting read blocked on y's unfrozen write lock times out.
	start := time.Now()
	f = c.call(wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: 4, Upper: ts(100), Wait: true, Keys: []string{"y"}})
	waited := time.Since(start)
	resp, err := wire.DecodeReadLockBatchResp(f.Body())
	if err != nil || resp.Status != wire.StatusOK || len(resp.Results) != 1 {
		t.Fatalf("%+v %v", resp, err)
	}
	if r := resp.Results[0]; r.Status != wire.StatusConflict {
		t.Fatalf("waiting read on an unfrozen write lock: %+v, want a lock-wait timeout", r)
	}
	if waited < lockWait {
		t.Fatalf("waiting read gave up after %v, before LockWaitTimeout %v", waited, lockWait)
	}
	if got := timers.armed.Load(); got != 1 {
		t.Fatalf("waiting read armed %d deadlines, want 1", got)
	}
}
