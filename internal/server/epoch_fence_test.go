package server_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// TestLockRequestsFencedOnEpoch checks that every lock request is fenced
// on the epoch it carries: a head promoted to epoch 3 turns away read
// and write batches stamped with any other epoch, and an interactive
// write from a coordinator whose route is still at epoch 0 aborts
// without leaving a write lock behind.
func TestLockRequestsFencedOnEpoch(t *testing.T) {
	srv, n := startServer(t, time.Minute)
	srv.Promote(3)
	c := dialRaw(t, n, "srv")
	set := timestamp.NewSet(timestamp.Span(ts(10), ts(20)))

	for _, epoch := range []uint64{0, 2, 4} {
		f := c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{
			Txn: 1, Epoch: epoch, DecisionSrv: "srv",
			Items: []wire.WriteLockItem{{Key: "x", Set: set, Value: []byte("v")}},
		})
		wresp, err := wire.DecodeWriteLockBatchResp(f.Body())
		if err != nil || wresp.Status != wire.StatusWrongEpoch {
			t.Fatalf("write-lock batch at epoch %d: %+v %v", epoch, wresp, err)
		}
		f = c.call(wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: 1, Epoch: epoch, Upper: ts(100), Keys: []string{"x"}})
		rresp, err := wire.DecodeReadLockBatchResp(f.Body())
		if err != nil || rresp.Status != wire.StatusWrongEpoch {
			t.Fatalf("read-lock batch at epoch %d: %+v %v", epoch, rresp, err)
		}
	}
	// The fence admits the head's own epoch.
	f := c.call(wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: 2, Epoch: 3, Upper: ts(100), Keys: []string{"x"}})
	if rresp, err := wire.DecodeReadLockBatchResp(f.Body()); err != nil || rresp.Status != wire.StatusOK {
		t.Fatalf("read-lock batch at the head's epoch: %+v %v", rresp, err)
	}

	// A coordinator without a router routes at epoch 0: its interactive
	// write is stale and must abort.
	cl, err := client.New(client.Config{ID: 1, Servers: []string{"srv"}, Network: n, Mode: client.ModeTILEarly})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()
	tx, err := cl.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(ctx, "y", []byte("stale")); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("write from a stale route: got %v, want an abort", err)
	}
	// No write lock remains on the key: a write lock over every
	// timestamp, requested at the head's epoch, is granted in full.
	all := timestamp.NewSet(timestamp.Span(timestamp.Zero.Next(), timestamp.Infinity))
	f = c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{
		Txn: 3, Epoch: 3, DecisionSrv: "srv",
		Items: []wire.WriteLockItem{{Key: "y", Set: all, Value: []byte("probe")}},
	})
	wresp, err := wire.DecodeWriteLockBatchResp(f.Body())
	if err != nil || wresp.Status != wire.StatusOK || len(wresp.Results) != 1 {
		t.Fatalf("probe write-lock: %+v %v", wresp, err)
	}
	if got := wresp.Results[0]; got.Status != wire.StatusOK || !got.Got.Equal(all) {
		t.Fatalf("a fenced write left a write lock behind: %+v", got)
	}
}
