package server_test

import (
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// rawClient drives a server with hand-built frames, testing the handler
// layer beneath the coordinator abstraction.
type rawClient struct {
	t    *testing.T
	conn transport.Conn
	next uint64
}

func dialRaw(t *testing.T, n transport.Network, addr string) *rawClient {
	t.Helper()
	conn, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &rawClient{t: t, conn: conn, next: 1}
}

// call sends m as one frame and returns the response frame. Response
// buffers are deliberately never released back to the pool here, so
// decoded views in the tests stay valid for the test's lifetime.
func (c *rawClient) call(mt wire.MsgType, m wire.Message) *wire.FrameBuf {
	c.t.Helper()
	id := c.next
	c.next++
	fb := wire.GetFrameBuf()
	if err := fb.SetFrame(id, mt, m); err != nil {
		c.t.Fatal(err)
	}
	if err := c.conn.Send(fb); err != nil {
		c.t.Fatal(err)
	}
	f, err := c.conn.Recv()
	if err != nil {
		c.t.Fatal(err)
	}
	if f.ID() != id {
		c.t.Fatalf("response id %d for request %d", f.ID(), id)
	}
	return f
}

// readOne runs the read step for one key as a batch of one and returns
// its per-key result, failing the test on a request-level error.
func (c *rawClient) readOne(txn uint64, key string, upper timestamp.Timestamp) wire.ReadLockResult {
	c.t.Helper()
	f := c.call(wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: txn, Upper: upper, Keys: []string{key}})
	resp, err := wire.DecodeReadLockBatchResp(f.Body())
	if err != nil || resp.Status != wire.StatusOK || len(resp.Results) != 1 {
		c.t.Fatalf("read %q: %+v %v", key, resp, err)
	}
	return resp.Results[0]
}

// writeOne write-locks set on one key as a batch of one, buffering
// value, and returns its per-key result, failing the test on a
// request-level error.
func (c *rawClient) writeOne(txn uint64, key string, set timestamp.Set, value []byte) wire.WriteLockResult {
	c.t.Helper()
	f := c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{
		Txn: txn, DecisionSrv: "srv", Items: []wire.WriteLockItem{{Key: key, Set: set, Value: value}},
	})
	resp, err := wire.DecodeWriteLockBatchResp(f.Body())
	if err != nil || resp.Status != wire.StatusOK || len(resp.Results) != 1 {
		c.t.Fatalf("write-lock %q: %+v %v", key, resp, err)
	}
	return resp.Results[0]
}

// freezeOne commits txn's pending write on key at commitTS and returns
// the key's ack.
func (c *rawClient) freezeOne(txn uint64, key string, commitTS timestamp.Timestamp) wire.Ack {
	c.t.Helper()
	f := c.call(wire.TFreezeBatchReq, wire.FreezeBatchReq{Txn: txn, TS: commitTS, WriteKeys: []string{key}})
	resp, err := wire.DecodeFreezeBatchResp(f.Body())
	if err != nil || resp.Status != wire.StatusOK || len(resp.WriteAcks) != 1 {
		c.t.Fatalf("freeze %q: %+v %v", key, resp, err)
	}
	return resp.WriteAcks[0]
}

func startServer(t *testing.T, wlTimeout time.Duration) (*server.Server, *transport.Mem) {
	t.Helper()
	n := transport.NewMem(transport.LatencyModel{})
	srv, err := server.New(server.Config{
		Addr:             "srv",
		Network:          n,
		LockWaitTimeout:  200 * time.Millisecond,
		WriteLockTimeout: wlTimeout,
		ScanInterval:     25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, n
}

func ts(v int64) timestamp.Timestamp { return timestamp.New(v, 0) }

func TestServerReadFreshKey(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	resp := c.readOne(1, "x", ts(100))
	if resp.Status != wire.StatusOK || resp.Value != nil || resp.VersionTS != timestamp.Zero {
		t.Fatalf("%+v", resp)
	}
	if resp.Got.IsEmpty() {
		t.Fatal("read should have locked an interval")
	}
}

func TestServerWriteLockFreezeReadBack(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")

	set := timestamp.NewSet(timestamp.Span(ts(10), ts(20)))
	wresp := c.writeOne(1, "x", set, []byte("v1"))
	if wresp.Status != wire.StatusOK || !wresp.Got.Equal(set) {
		t.Fatalf("%+v", wresp)
	}

	// Commit at 15: decide, then freeze.
	f := c.call(wire.TDecideReq, wire.DecideReq{Txn: 1, Proposal: wire.DecideCommit, TS: ts(15)})
	dresp, err := wire.DecodeDecideResp(f.Body())
	if err != nil || dresp.Kind != wire.DecideCommit {
		t.Fatalf("%+v %v", dresp, err)
	}
	if ack := c.freezeOne(1, "x", ts(15)); ack.Status != wire.StatusOK {
		t.Fatalf("%+v", ack)
	}
	// Release leftover locks.
	c.call(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: 1, Keys: []string{"x"}})

	// A later reader sees the committed value.
	rresp := c.readOne(2, "x", ts(100))
	if rresp.Status != wire.StatusOK {
		t.Fatalf("%+v", rresp)
	}
	if string(rresp.Value) != "v1" || rresp.VersionTS != ts(15) {
		t.Fatalf("value %q at %v", rresp.Value, rresp.VersionTS)
	}
}

// TestServerFreezeWithoutPendingFails checks freeze misuse: the batch
// itself succeeds (freezeOne asserts that) and the failure is reported
// in the key's ack.
func TestServerFreezeWithoutPendingFails(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	if ack := c.freezeOne(9, "x", ts(5)); ack.Status == wire.StatusOK {
		t.Fatal("freeze without a pending write must fail")
	}
}

func TestServerWriteConflictStatus(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	set := timestamp.NewSet(timestamp.Point(ts(5)))
	c.writeOne(1, "x", set, []byte("a"))
	// Exact conflicting request from another txn, no wait, no partial
	// fallback server-side: server always acquires partially, so Got is
	// empty and Denied covers the point.
	resp := c.writeOne(2, "x", set, []byte("b"))
	if !resp.Got.IsEmpty() || !resp.Denied.Contains(ts(5)) {
		t.Fatalf("%+v", resp)
	}
}

func TestServerSuspectsDeadCoordinator(t *testing.T) {
	_, n := startServer(t, 150*time.Millisecond)
	c := dialRaw(t, n, "srv")
	set := timestamp.NewSet(timestamp.Span(ts(10), ts(20)))
	c.writeOne(7, "x", set, []byte("doomed"))
	// Coordinator goes silent. The suspicion scanner must abort txn 7
	// and release its locks.
	deadline := time.Now().Add(3 * time.Second)
	other := dialRaw(t, n, "srv")
	for {
		// Not writeOne: the scanner may decide txn 8 too, and a
		// request-level refusal is one more reason to retry.
		f := other.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{
			Txn: 8, DecisionSrv: "srv", Items: []wire.WriteLockItem{{Key: "x", Set: set, Value: []byte("winner")}},
		})
		resp, err := wire.DecodeWriteLockBatchResp(f.Body())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == wire.StatusOK && len(resp.Results) == 1 &&
			resp.Results[0].Status == wire.StatusOK && resp.Results[0].Got.Equal(set) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("orphaned write locks never released")
		}
		time.Sleep(25 * time.Millisecond)
	}
	// The commitment object must have decided abort for txn 7; a late
	// commit proposal from the "dead" coordinator is refused.
	f := c.call(wire.TDecideReq, wire.DecideReq{Txn: 7, Proposal: wire.DecideCommit, TS: ts(15)})
	dresp, err := wire.DecodeDecideResp(f.Body())
	if err != nil {
		t.Fatal(err)
	}
	if dresp.Kind != wire.DecideAbort {
		t.Fatalf("agreement violated: late coordinator saw %v", dresp.Kind)
	}
}

func TestServerPurgeAndStats(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	// Install three versions.
	for i, v := range []int64{10, 20, 30} {
		txn := uint64(i + 1)
		set := timestamp.NewSet(timestamp.Point(ts(v)))
		c.writeOne(txn, "x", set, []byte{byte(v)})
		c.call(wire.TDecideReq, wire.DecideReq{Txn: txn, Proposal: wire.DecideCommit, TS: ts(v)})
		c.freezeOne(txn, "x", ts(v))
	}
	f := c.call(wire.TStatsReq, nil)
	st, err := wire.DecodeStatsResp(f.Body())
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 1 || st.Versions != 4 { // 3 writes + ⊥
		t.Fatalf("stats = %+v", st)
	}
	f = c.call(wire.TPurgeReq, wire.PurgeReq{Bound: ts(25)})
	presp, err := wire.DecodePurgeResp(f.Body())
	if err != nil {
		t.Fatal(err)
	}
	if presp.Versions != 2 { // ⊥ and v10 dropped; v20 kept as boundary
		t.Fatalf("purged %d versions", presp.Versions)
	}
}

func TestServerMalformedFrame(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	f := c.call(wire.TReadLockBatchReq, wire.Raw{1, 2, 3})
	resp, err := wire.DecodeReadLockBatchResp(f.Body())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusError {
		t.Fatalf("malformed request must yield StatusError, got %+v", resp)
	}
}

func TestServerConcurrentRequestsOneConn(t *testing.T) {
	_, n := startServer(t, time.Minute)
	conn, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	// Issue 20 pipelined reads without waiting for responses, then
	// collect: every one of them must be answered.
	for i := uint64(1); i <= 20; i++ {
		req := wire.ReadLockBatchReq{Txn: i, Upper: ts(int64(100 + i)), Keys: []string{"k"}}
		fb := wire.GetFrameBuf()
		if err := fb.SetFrame(i, wire.TReadLockBatchReq, req); err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(fb); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		f, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		seen[f.ID()] = true
		f.Release()
	}
	if len(seen) != 20 {
		t.Fatalf("got %d distinct responses", len(seen))
	}
}

// TestServerEpilogueFreezesThenReleases covers a committed
// transaction's one-frame epilogue: the freeze batch installs and
// freezes the pending write and the read range, and only then releases
// the unfrozen remainder on the keys of its Release list. A release run
// first would drop the write lock the freeze needs, losing a durably
// committed write.
func TestServerEpilogueFreezesThenReleases(t *testing.T) {
	srv, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")

	set := timestamp.NewSet(timestamp.Span(ts(10), ts(20)))
	if wresp := c.writeOne(1, "x", set, []byte("v1")); wresp.Status != wire.StatusOK {
		t.Fatalf("%+v", wresp)
	}
	rres := c.readOne(1, "y", ts(20))
	if rres.Status != wire.StatusOK || rres.Got.IsEmpty() {
		t.Fatalf("%+v", rres)
	}
	// No decide here: this server plays a participant whose commitment
	// object lives elsewhere, so the epilogue frame alone installs x.
	f := c.call(wire.TFreezeBatchReq, wire.FreezeBatchReq{
		Txn: 1, TS: ts(15), WriteKeys: []string{"x"},
		Reads:   []wire.FreezeReadItem{{Key: "y", Lo: rres.VersionTS.Next(), Hi: ts(15)}},
		Release: []string{"x", "y"},
	})
	fresp, err := wire.DecodeFreezeBatchResp(f.Body())
	if err != nil || len(fresp.WriteAcks) != 1 || fresp.WriteAcks[0].Status != wire.StatusOK {
		t.Fatalf("freeze: %+v %v", fresp, err)
	}
	if live := srv.LiveTxns(); live != 0 {
		t.Fatalf("epilogue left %d live transactions", live)
	}
	// The unfrozen remainders are released: a later writer gets them
	// whole, while the frozen read range still turns it away.
	above := timestamp.NewSet(timestamp.Span(ts(16), ts(20)))
	for _, key := range []string{"x", "y"} {
		if res := c.writeOne(5, key, above, []byte("w")); res.Status != wire.StatusOK || !res.Got.Equal(above) {
			t.Fatalf("write-lock %q above the commit: %+v", key, res)
		}
	}
	if res := c.writeOne(6, "y", timestamp.NewSet(timestamp.Point(ts(12))), []byte("w")); !res.Got.IsEmpty() {
		t.Fatalf("write-lock inside the frozen read range: %+v", res)
	}
	// The committed value is readable, not dropped.
	rresp := c.readOne(2, "x", ts(16))
	if rresp.Status != wire.StatusOK {
		t.Fatalf("%+v", rresp)
	}
	if string(rresp.Value) != "v1" || rresp.VersionTS != ts(15) {
		t.Fatalf("committed write lost: value %q at %v, want \"v1\" at %v", rresp.Value, rresp.VersionTS, ts(15))
	}
	// A release batch (the abort epilogue) drops pending writes.
	set2 := timestamp.NewSet(timestamp.Span(ts(30), ts(40)))
	c.writeOne(3, "z", set2, []byte("v2"))
	c.call(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: 3, Keys: []string{"z"}})
	rresp = c.readOne(4, "z", ts(100))
	if rresp.Status != wire.StatusOK {
		t.Fatalf("%+v", rresp)
	}
	if len(rresp.Value) != 0 || rresp.VersionTS != timestamp.Zero {
		t.Fatalf("aborted write leaked: value %q at %v", rresp.Value, rresp.VersionTS)
	}
}
