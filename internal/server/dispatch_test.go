package server_test

import (
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// The dispatch tests pin which requests the server runs off the read
// loop: a lock batch that may wait gets a goroutine, so it can park
// without stalling the connection; a no-wait batch runs inline, in
// arrival order.

// startPatientServer is startServer with a lock-wait budget far longer
// than any test step, so a parked request is answered only once it is
// released, never by its timeout.
func startPatientServer(t *testing.T) *transport.Mem {
	t.Helper()
	n := transport.NewMem(transport.LatencyModel{})
	srv, err := server.New(server.Config{
		Addr:             "srv",
		Network:          n,
		LockWaitTimeout:  10 * time.Second,
		WriteLockTimeout: time.Minute,
		ScanInterval:     25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return n
}

// send writes one request frame without waiting for its reply.
func (c *rawClient) send(id uint64, mt wire.MsgType, m wire.Message) {
	c.t.Helper()
	fb := wire.GetFrameBuf()
	if err := fb.SetFrame(id, mt, m); err != nil {
		c.t.Fatal(err)
	}
	if err := c.conn.Send(fb); err != nil {
		c.t.Fatal(err)
	}
}

// recv returns the next reply frame, which the caller must release.
func (c *rawClient) recv() *wire.FrameBuf {
	c.t.Helper()
	f, err := c.conn.Recv()
	if err != nil {
		c.t.Fatal(err)
	}
	return f
}

// parkRead leaves txn 1's pending write on key and, on the same
// connection, sends txn 2's waiting read of key under id. It returns
// once the server's wait-for graph shows the read parked on txn 1; the
// wait-graph polls that show it travel on the same connection, so they
// are answered only if the parked read is not holding the read loop.
func parkRead(c *rawClient, id uint64, key string) {
	c.t.Helper()
	if res := c.writeOne(1, key, timestamp.NewSet(timestamp.Span(ts(10), ts(20))), []byte("v1")); res.Status != wire.StatusOK || res.Got.IsEmpty() {
		c.t.Fatalf("write-lock %q: %+v", key, res)
	}
	c.send(id, wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: 2, Upper: ts(20), Wait: true, Keys: []string{key}})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		f := c.call(wire.TWaitGraphReq, nil)
		resp, err := wire.DecodeWaitGraphResp(f.Body())
		f.Release()
		if err != nil {
			c.t.Fatal(err)
		}
		for _, e := range resp.Edges {
			if e.Waiter == 2 && e.Holder == 1 && e.Key == key {
				return
			}
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("read of %q never parked on txn 1", key)
		}
	}
}

// freezeParked sends the freeze that commits txn 1's write on key at
// ts(15) under freezeID and checks both replies, which may come in
// either order: the freeze wakes the parked read before its own reply
// is queued. The freeze must succeed, and the read must see the write.
func freezeParked(c *rawClient, freezeID, readID uint64, key string) {
	c.t.Helper()
	c.send(freezeID, wire.TFreezeBatchReq, wire.FreezeBatchReq{Txn: 1, TS: ts(15), WriteKeys: []string{key}, Release: []string{key}})
	for _, f := range []*wire.FrameBuf{c.recv(), c.recv()} {
		switch f.ID() {
		case freezeID:
			resp, err := wire.DecodeFreezeBatchResp(f.Body())
			if err != nil || len(resp.WriteAcks) != 1 || resp.WriteAcks[0].Status != wire.StatusOK {
				c.t.Fatalf("freeze: %+v %v", resp, err)
			}
		case readID:
			resp, err := wire.DecodeReadLockBatchResp(f.Body())
			if err != nil || resp.Status != wire.StatusOK || len(resp.Results) != 1 {
				c.t.Fatalf("parked read: %+v %v", resp, err)
			}
			if r := resp.Results[0]; r.Status != wire.StatusOK || r.VersionTS != ts(15) || string(r.Value) != "v1" {
				c.t.Fatalf("parked read did not see the frozen write: %+v", r)
			}
		default:
			c.t.Fatalf("unexpected reply %d", f.ID())
		}
		f.Release()
	}
}

// TestWaitingReadReleasedByFreezeOnSameConn parks a waiting read batch
// on a pending write, then sends the freeze that releases it on the
// same connection. The freeze can only be read, and the read released,
// if the parked batch is not holding the read loop.
func TestWaitingReadReleasedByFreezeOnSameConn(t *testing.T) {
	c := dialRaw(t, startPatientServer(t), "srv")
	parkRead(c, 100, "k")
	freezeParked(c, 101, 100, "k")
}

// TestNoWaitBatchesAnsweredInArrivalOrder sends a burst of no-wait read
// and write batches behind a parked waiting read: each is answered at
// once, in the order it arrived, while the waiting read stays parked.
func TestNoWaitBatchesAnsweredInArrivalOrder(t *testing.T) {
	c := dialRaw(t, startPatientServer(t), "srv")
	parkRead(c, 100, "hot")
	const burst = 40
	for i := uint64(0); i < burst; i++ {
		id, txn, key := 200+i, 10+i, "k"+string(rune('a'+i%8))
		if i%2 == 0 {
			c.send(id, wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: txn, Upper: ts(50), Keys: []string{key, "other"}})
		} else {
			set := timestamp.NewSet(timestamp.Span(ts(int64(60+i)), ts(int64(60+i))))
			c.send(id, wire.TWriteLockBatchReq, wire.WriteLockBatchReq{Txn: txn, DecisionSrv: "srv",
				Items: []wire.WriteLockItem{{Key: key, Set: set, Value: []byte("w")}}})
		}
	}
	for i := uint64(0); i < burst; i++ {
		f := c.recv()
		if f.ID() != 200+i {
			t.Fatalf("reply %d has id %d, want %d: no-wait batches answered out of order", i, f.ID(), 200+i)
		}
		ok := false
		if i%2 == 0 {
			resp, err := wire.DecodeReadLockBatchResp(f.Body())
			ok = err == nil && resp.Status == wire.StatusOK && len(resp.Results) == 2
		} else {
			resp, err := wire.DecodeWriteLockBatchResp(f.Body())
			ok = err == nil && resp.Status == wire.StatusOK && len(resp.Results) == 1 && resp.Results[0].Status == wire.StatusOK
		}
		f.Release()
		if !ok {
			t.Fatalf("reply %d: request failed", 200+i)
		}
	}
	freezeParked(c, 101, 100, "hot")
}

// TestTruncatedLockBatchGetsStatusError sends lock batches cut short at
// every byte, with and without the Wait flag: whether the cut leaves
// the flag readable (an inline request) or not (a spawned one), each
// is answered with StatusError, and the server keeps serving.
func TestTruncatedLockBatchGetsStatusError(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	for _, wait := range []bool{false, true} {
		bodies := map[wire.MsgType][]byte{
			wire.TReadLockBatchReq: wire.ReadLockBatchReq{Txn: 7, Upper: ts(9), Wait: wait, Keys: []string{"a", "b"}}.AppendTo(nil),
			wire.TWriteLockBatchReq: wire.WriteLockBatchReq{Txn: 7, DecisionSrv: "srv", Wait: wait,
				Items: []wire.WriteLockItem{{Key: "a", Set: timestamp.NewSet(timestamp.Point(ts(5))), Value: []byte("v")}}}.AppendTo(nil),
		}
		for _, mt := range []wire.MsgType{wire.TReadLockBatchReq, wire.TWriteLockBatchReq} {
			body := bodies[mt]
			for cut := 0; cut < len(body); cut++ {
				f := c.call(mt, wire.Raw(body[:cut]))
				var status wire.Status
				var err error
				if mt == wire.TReadLockBatchReq {
					var resp wire.ReadLockBatchResp
					resp, err = wire.DecodeReadLockBatchResp(f.Body())
					status = resp.Status
				} else {
					var resp wire.WriteLockBatchResp
					resp, err = wire.DecodeWriteLockBatchResp(f.Body())
					status = resp.Status
				}
				f.Release()
				if err != nil || status != wire.StatusError {
					t.Fatalf("type %d, wait %v, cut at %d/%d: status %v, err %v; want StatusError", mt, wait, cut, len(body), status, err)
				}
			}
		}
	}
	if res := c.readOne(8, "a", ts(9)); res.Status != wire.StatusOK {
		t.Fatalf("server stopped serving after truncated batches: %+v", res)
	}
}
