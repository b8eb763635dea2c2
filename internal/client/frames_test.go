package client_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/strhash"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// TestCommitFrameCounts pins the exact frames a transaction costs on a
// 3-server cell, one key per server. Reads are one batch per server,
// an interactive write is one batch, the decision is one call, and the
// epilogue is one cast per server that no frame answers.
func TestCommitFrameCounts(t *testing.T) {
	mem := transport.NewMem(transport.LatencyModel{})
	addrs := startServers(t, mem, 3)
	n := newCountingNetwork(mem)
	cl, err := client.New(client.Config{ID: 1, Servers: addrs, Network: n, Mode: client.ModeTILEarly, DeadlockPoll: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()

	keys := make([]string, 3) // keys[i] lives on addrs[i]
	for i, found := 0, 0; found < 3; i++ {
		k := fmt.Sprintf("key-%d", i)
		if p := strhash.FNV1a(k) % 3; keys[p] == "" {
			keys[p] = k
			found++
		}
	}
	// settle returns once every server has handled all the frames sent
	// so far: with one connection per server, a stats call is answered
	// only after everything ahead of it, reply frames included.
	settle := func() (sent, recvd int64) {
		t.Helper()
		for _, addr := range addrs {
			if _, err := cl.ServerStats(ctx, addr); err != nil {
				t.Fatal(err)
			}
		}
		return n.totals()
	}
	seed, _ := cl.Begin(ctx)
	for _, k := range keys {
		if err := seed.Write(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name             string
		write, commit    bool
		wantSent, wantRx int64
	}{
		// 3 reads + 1 write + decide + 3 epilogue casts; 5 replies.
		{name: "committed", write: true, commit: true, wantSent: 8, wantRx: 5},
		// 3 reads + 3 epilogue casts; no decide, 3 replies.
		{name: "read-only", commit: true, wantSent: 6, wantRx: 3},
		// 3 reads + 1 write + decide abort + 3 release casts; 5 replies.
		{name: "aborted", write: true, wantSent: 8, wantRx: 5},
	} {
		sent0, rx0 := settle()
		tx, _ := cl.Begin(ctx)
		if _, err := tx.(*client.DTxn).GetMulti(ctx, keys); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.write {
			if err := tx.Write(ctx, keys[0], []byte("w")); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if tc.commit {
			err = tx.Commit(ctx)
		} else {
			err = tx.Abort(ctx)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sent1, rx1 := settle()
		// Less the closing settle's own stats calls.
		sent, rx := sent1-sent0-int64(len(addrs)), rx1-rx0-int64(len(addrs))
		if sent != tc.wantSent || rx != tc.wantRx {
			t.Errorf("%s: coordinator sent %d frames and servers %d, want %d and %d", tc.name, sent, rx, tc.wantSent, tc.wantRx)
		}
	}
}
