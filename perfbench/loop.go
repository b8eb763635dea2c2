package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/rpc"
)

// Phases a transaction can start in. Only the first two are measured.
const (
	phaseUntraced = iota
	phaseTraced
	phaseWarm
	phases
)

type outcome uint8

// Every attempt ends in exactly one outcome. A clean abort is
// kv.ErrAborted (deadlock victims included) and nothing else; an
// uncertain commit, a timeout or a transport error is an error, even
// where the coordinator wrapped it in kv.ErrAborted.
const (
	outCommit outcome = iota + 1
	outAbort
	outError
)

// site is where an attempt stopped when it did not commit.
type site uint8

const (
	atRead site = iota
	atWrite
	atCommit
	atBegin
	sites
)

// counts tallies attempts by outcome and shape.
type counts struct {
	attempts, commits, aborts, errors int64
	abortsAt                          [sites]int64
	ops, writes, getMulti             int64
}

func (t *counts) add(o *counts) {
	t.attempts += o.attempts
	t.commits += o.commits
	t.aborts += o.aborts
	t.errors += o.errors
	for i := range t.abortsAt {
		t.abortsAt[i] += o.abortsAt[i]
	}
	t.ops += o.ops
	t.writes += o.writes
	t.getMulti += o.getMulti
}

// phaseStats is what one client saw of the attempts it started in one
// phase.
type phaseStats struct {
	counts
	latency offLog[uint64] // committed attempts, Begin to Commit return, ns
}

// clientRun is one closed-loop client: it runs one transaction at a
// time and starts the next only when the previous one has finished.
type clientRun struct {
	no         int // value codec client number, from 1
	db         kv.DB
	names      []string
	batchReads bool
	keyBuf     []string
	warm, main *stream
	arena      arena
	seq        uint32
	own        *owner // nil unless the run is traced
	spans      offLog[span]
	ph         [phases]phaseStats
	hits       []int64 // measured operations per key index
	reads      readCheck
	writes     offLog[uint64] // codes of every value written, preload excluded
	firstErr   error          // the first attempt that ended in an error
}

func newClientRun(no int, db kv.DB, s spec, ks *keyspace, warm, main *stream) *clientRun {
	return &clientRun{
		no: no, db: db, names: ks.names, batchReads: s.batchReads,
		keyBuf: make([]string, 0, s.shape.OpsPerTxn),
		warm:   warm, main: main,
		hits: make([]int64, len(ks.names)),
	}
}

// loop runs attempts until stop is set. Each attempt reads the phase it
// starts in; its whole outcome is counted there.
func (c *clientRun) loop(ctx context.Context, phase *atomic.Int32, stop *atomic.Bool) {
	for !stop.Load() {
		p := phase.Load()
		st := c.main
		if p == phaseWarm {
			st = c.warm
		}
		ops := st.next()
		var txn uint64
		if p == phaseTraced {
			txn = newSpanID()
			c.own.traced.Store(true)
		}
		start := now()
		out, at, lead := c.attempt(ctx, ops, txn)
		end := now()
		if txn != 0 {
			c.own.traced.Store(false)
			c.spans.add(span{id: txn, kind: kTxn, status: uint8(out), start: start, end: end})
		}
		c.count(&c.ph[p], ops, out, at, lead, end-start, p != phaseWarm)
	}
}

// runN runs n attempts from the warm-up stream, uncounted.
func (c *clientRun) runN(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		ops := c.warm.next()
		out, at, lead := c.attempt(ctx, ops, 0)
		c.count(&c.ph[phaseWarm], ops, out, at, lead, 0, false)
	}
}

func (c *clientRun) count(ps *phaseStats, ops []op, out outcome, at site, lead bool, lat int64, measured bool) {
	ps.attempts++
	switch out {
	case outCommit:
		ps.commits++
		ps.latency.add(uint64(lat))
	case outAbort:
		ps.aborts++
		ps.abortsAt[at]++
	case outError:
		ps.errors++
	}
	ps.ops += int64(len(ops))
	if lead {
		ps.getMulti++
	}
	for _, o := range ops {
		if o.write() {
			ps.writes++
		}
		if measured {
			c.hits[o.key()]++
		}
	}
}

// attempt runs one transaction; txn is its span id, 0 when untraced.
// lead reports whether its leading reads went out as one GetMulti.
func (c *clientRun) attempt(ctx context.Context, ops []op, txn uint64) (out outcome, at site, lead bool) {
	c.seq++
	tx, err := c.db.Begin(ctx)
	if err != nil {
		c.fail(err)
		return outError, atBegin, false
	}
	rest := ops
	if c.batchReads {
		n := 0
		for n < len(ops) && !ops[n].write() {
			n++
		}
		if n > 1 {
			lead = true
			keys := c.keyBuf[:0]
			for _, o := range ops[:n] {
				keys = append(keys, c.names[o.key()])
			}
			s := c.open(txn, kGetMulti)
			vals, err := kv.GetMulti(ctx, tx, keys)
			c.close(s, err)
			if err != nil {
				out, at = c.end(ctx, tx, err, atRead)
				return out, at, lead
			}
			for _, o := range ops[:n] {
				c.reads.observe(o.key(), vals[c.names[o.key()]])
			}
			rest = ops[n:]
		}
	}
	for _, o := range rest {
		key := c.names[o.key()]
		if o.write() {
			code := valueCode(c.no, c.seq, o.key())
			c.writes.add(code)
			s := c.open(txn, kWrite)
			err := tx.Write(ctx, key, c.arena.value(code))
			c.close(s, err)
			if err != nil {
				out, at = c.end(ctx, tx, err, atWrite)
				return out, at, lead
			}
			continue
		}
		s := c.open(txn, kRead)
		v, err := tx.Read(ctx, key)
		c.close(s, err)
		if err != nil {
			out, at = c.end(ctx, tx, err, atRead)
			return out, at, lead
		}
		c.reads.observe(o.key(), v)
	}
	s := c.open(txn, kCommit)
	err = tx.Commit(ctx)
	c.close(s, err)
	if err != nil {
		out, at = c.end(ctx, tx, err, atCommit)
		return out, at, lead
	}
	return outCommit, 0, lead
}

// end classifies a failed attempt and makes sure it is finished.
func (c *clientRun) end(ctx context.Context, tx kv.Txn, err error, at site) (outcome, site) {
	_ = tx.Abort(ctx) // a no-op where the engine already finished it
	out := classify(err)
	if out == outError {
		c.fail(err)
	}
	return out, at
}

// classify sorts a failed attempt's error. Order matters: an abort
// caused by an unreachable server or a timeout wraps both kv.ErrAborted
// and the transport error, and is an error, not a conflict.
func classify(err error) outcome {
	switch {
	case errors.Is(err, kv.ErrUncertain):
		return outError
	case errors.Is(err, kv.ErrDeadlock):
		return outAbort
	case rpc.IsRetryable(err) || errors.Is(err, context.DeadlineExceeded):
		return outError
	case errors.Is(err, kv.ErrAborted):
		return outAbort
	default:
		return outError
	}
}

func (c *clientRun) fail(err error) {
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// open starts a call span under txn, or returns nil when the attempt
// is not traced.
func (c *clientRun) open(txn uint64, k spanKind) *span {
	if txn == 0 {
		return nil
	}
	id := newSpanID()
	c.own.call.Store(id)
	return c.spans.add(span{id: id, parent: txn, kind: k, start: now()})
}

func (c *clientRun) close(s *span, err error) {
	if s == nil {
		return
	}
	s.end = now()
	c.own.call.Store(0)
	if err != nil {
		s.status = 1
	}
}

// startClients starts every client's loop; the returned wait blocks
// until stop is set and every client has finished its current attempt.
func startClients(ctx context.Context, cs []*clientRun, phase *atomic.Int32, stop *atomic.Bool) (wait func()) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(ctx, phase, stop)
		}()
	}
	return wg.Wait
}
