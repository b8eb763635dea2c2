package main

import (
	"context"
	"fmt"
	"time"

	"github.com/lpd-epfl/mvtl"
	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/workload"
)

// spec is one named workload: which program surface it drives and the
// shape of the operations it generates.
type spec struct {
	name string
	why  string
	// cell selects three storage servers over TCP loopback driven by
	// coordinators; otherwise the embedded mvtl.Store is driven.
	cell bool
	mode client.Mode    // coordinator mode (cell only)
	algo mvtl.Algorithm // store policy (embedded only)
	// shape feeds workload.NewGen: Keys, Dist, OpsPerTxn, WriteFraction,
	// ValueSize.
	shape workload.Config
	// batchReads issues a transaction's leading reads as one
	// kv.GetMulti, as workload.Config.BatchReads does.
	batchReads bool
}

// Deployment constants shared by every workload. GC runs as a
// deployment's timestamp service would (§8.1): every gcPeriod, state
// older than gcRetention is purged. Both are fixed because throughput
// on the contended workloads depends on them.
const (
	servers     = 3
	gcPeriod    = 100 * time.Millisecond
	gcRetention = 50 * time.Millisecond
	valueSize   = 8 // the value codec needs all eight bytes
)

var specs = []spec{
	{
		name: "cell-point",
		why:  "3 TCP servers, MVTIL-early, uniform over 10k keys, 8 ops 25% writes, GetMulti reads: nearly no conflicts, so wire, transport, rpc, server and coordinator cost dominate",
		cell: true, mode: client.ModeTILEarly,
		shape:      workload.Config{Keys: 10_000, Dist: workload.Uniform, OpsPerTxn: 8, WriteFraction: 0.25, ValueSize: valueSize},
		batchReads: true,
	},
	{
		name: "cell-hot",
		why:  "same cell with MVTO+, Zipf 1.2 over 1k keys, 16 ops 50% writes, one read at a time: lock table, batched commit path and aborts under contention",
		cell: true, mode: client.ModeTO,
		shape: workload.Config{Keys: 1_000, Dist: workload.Zipf, OpsPerTxn: 16, WriteFraction: 0.5, ValueSize: valueSize},
	},
	{
		name:  "embedded-hot",
		why:   "in-process mvtl.Store, MVTIL-early, Zipf 1.2 over 1k keys, 16 ops 50% writes: lock table, timestamp sets and versions without any codec or network",
		algo:  mvtl.TILEarly,
		shape: workload.Config{Keys: 1_000, Dist: workload.Zipf, OpsPerTxn: 16, WriteFraction: 0.5, ValueSize: valueSize},
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// system is one set-up instance of the program under test.
type system interface {
	// db returns client i's handle; each client has its own.
	db(i int) kv.DB
	// purge removes state below bound (microseconds) and reports what
	// it removed.
	purge(ctx context.Context, bound int64) (versions, locks int64, err error)
	// state reports the state size summed over the whole system.
	state(ctx context.Context) (stateSample, error)
	close()
}

// stateSample is one reading of the system's state size.
type stateSample struct {
	keys, lockEntries, frozen, versions, liveTxns int64
}

// setupConfig carries what set-up needs beyond the spec.
type setupConfig struct {
	clients  int
	net      *netTracer        // cell only; nil leaves the transport bare
	owners   []*owner          // one per client, then one for GC (cell only)
	recorder *history.Recorder // cell only; nil records nothing
	preload  [][]preloadTxn    // per client
}

// preloadTxn is one set-up transaction: keys written with their values.
type preloadTxn struct {
	keys   []string
	values [][]byte
}

// setUp builds the system for s and preloads its keyspace.
func setUp(ctx context.Context, s spec, cfg setupConfig) (system, error) {
	var sys system
	var err error
	if s.cell {
		sys, err = startCell(s, cfg)
	} else {
		sys = &embedded{store: mvtl.Open(mvtl.Options{Algorithm: s.algo})}
	}
	if err != nil {
		return nil, err
	}
	if err := preload(ctx, sys, cfg); err != nil {
		sys.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return sys, nil
}

// preload runs every client's set-up transactions, clients in parallel.
func preload(ctx context.Context, sys system, cfg setupConfig) error {
	errs := make(chan error, cfg.clients)
	for i := 0; i < cfg.clients; i++ {
		go func(i int) {
			db := sys.db(i)
			for _, p := range cfg.preload[i] {
				if err := writeAll(ctx, db, p); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	var first error
	for i := 0; i < cfg.clients; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeAll commits one preload transaction. The keys of different
// clients are disjoint, so an abort is a failure, not contention.
func writeAll(ctx context.Context, db kv.DB, p preloadTxn) error {
	tx, err := db.Begin(ctx)
	if err != nil {
		return err
	}
	for i, k := range p.keys {
		if err := tx.Write(ctx, k, p.values[i]); err != nil {
			_ = tx.Abort(ctx)
			return err
		}
	}
	return tx.Commit(ctx)
}

// cell is three storage servers on TCP loopback in this process, one
// coordinator per client and one for the timestamp service.
type cell struct {
	servers []*server.Server
	clients []*client.Client
	gc      *client.Client
	addrs   []string
}

func startCell(s spec, cfg setupConfig) (*cell, error) {
	c := &cell{}
	var srvNet transport.Network = transport.TCP{}
	if cfg.net != nil {
		srvNet = cfg.net
	}
	for i := 0; i < servers; i++ {
		srv, err := server.New(server.Config{
			Addr:             "127.0.0.1:0",
			Network:          srvNet,
			LockWaitTimeout:  500 * time.Millisecond,
			WriteLockTimeout: 2 * time.Second,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.addrs = append(c.addrs, srv.Addr())
	}
	// One coordinator per client, and a last one for the GC loop.
	for i := 0; i <= cfg.clients; i++ {
		cc := client.Config{ID: int32(i + 1), Servers: c.addrs, Network: transport.TCP{}, Mode: s.mode}
		if cfg.net != nil {
			cc.Network = cfg.net.forOwner(cfg.owners[i])
		}
		if i < cfg.clients {
			cc.Recorder = cfg.recorder
		}
		cl, err := client.New(cc)
		if err != nil {
			c.close()
			return nil, err
		}
		if i < cfg.clients {
			c.clients = append(c.clients, cl)
		} else {
			c.gc = cl
		}
	}
	return c, nil
}

func (c *cell) db(i int) kv.DB { return c.clients[i] }

func (c *cell) purge(ctx context.Context, bound int64) (int64, int64, error) {
	v, l, err := c.gc.PurgeServers(ctx, timestamp.New(bound, 0))
	if err != nil {
		return v, l, err
	}
	// Clients advance to the bound, as on a timestamp-service broadcast,
	// so none starts a transaction that needs purged versions.
	for _, cl := range c.clients {
		cl.AdvanceClock(bound)
	}
	return v, l, nil
}

func (c *cell) state(ctx context.Context) (stateSample, error) {
	var st stateSample
	for _, a := range c.addrs {
		r, err := c.gc.ServerStats(ctx, a)
		if err != nil {
			return st, err
		}
		st.keys += r.Keys
		st.lockEntries += r.LockEntries
		st.frozen += r.FrozenLocks
		st.versions += r.Versions
		st.liveTxns += r.LiveTxns
	}
	return st, nil
}

func (c *cell) close() {
	for _, cl := range c.clients {
		_ = cl.Close()
	}
	if c.gc != nil {
		_ = c.gc.Close()
	}
	for _, s := range c.servers {
		_ = s.Close()
	}
}

// embedded is the in-process mvtl.Store, driven through kv.DB so the
// closed loop is the same code for both kinds of system.
type embedded struct{ store *mvtl.Store }

func (e *embedded) db(int) kv.DB { return storeDB{e.store} }

func (e *embedded) purge(_ context.Context, bound int64) (int64, int64, error) {
	v, l := e.store.Purge(bound, 0)
	return int64(v), int64(l), nil
}

func (e *embedded) state(context.Context) (stateSample, error) {
	st := e.store.Stats()
	return stateSample{keys: int64(st.Keys), lockEntries: int64(st.LockEntries), frozen: int64(st.FrozenLockEntries), versions: int64(st.Versions)}, nil
}

func (e *embedded) close() {}

type storeDB struct{ s *mvtl.Store }

func (d storeDB) Begin(ctx context.Context) (kv.Txn, error) {
	tx, err := d.s.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return storeTxn{tx}, nil
}

type storeTxn struct{ tx *mvtl.Txn }

func (t storeTxn) Read(ctx context.Context, key string) ([]byte, error) { return t.tx.Get(ctx, key) }
func (t storeTxn) Write(ctx context.Context, key string, v []byte) error {
	return t.tx.Set(ctx, key, v)
}
func (t storeTxn) Commit(ctx context.Context) error { return t.tx.Commit(ctx) }
func (t storeTxn) Abort(ctx context.Context) error  { return t.tx.Abort(ctx) }
func (t storeTxn) ID() uint64                       { return t.tx.ID() }
