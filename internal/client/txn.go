package client

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// txnRoute is a transaction's pinned route for one partition: every
// message the transaction sends the partition goes to this head under
// this epoch, even if a failover happens mid-flight (the stale pin is
// fenced server-side; the transaction aborts and the retry re-routes).
type txnRoute struct {
	addr  string
	epoch uint64
}

// errStaleRoute marks a request rejected by the epoch fence before it
// reached any decision point: provably not acted on, so the coordinator
// may abort cleanly instead of reporting an uncertain outcome.
var errStaleRoute = errors.New("stale route: wrong epoch")

// DTxn is one distributed transaction (Alg. 11). Not safe for concurrent
// use by multiple goroutines.
type DTxn struct {
	client *Client
	id     uint64
	start  timestamp.Timestamp

	// routes pins each partition's (head, epoch) at first use; partOf
	// maps a pinned head back to its partition for epoch lookups and
	// route-failure reporting.
	routes map[int]txnRoute
	partOf map[string]int

	// interval is MVTIL's shrinking set I.
	interval timestamp.Set
	// ts is the fixed timestamp in TO mode.
	ts timestamp.Timestamp

	readLocked  map[string]timestamp.Set
	writeLocked map[string]timestamp.Set
	readVers    map[string]timestamp.Timestamp
	readOrder   []string
	writes      map[string][]byte
	writeOrder  []string
	touched     map[string]bool

	decisionSrv string
	done        bool
	committed   bool

	// CommitTS is the serialization timestamp after a successful commit.
	CommitTS timestamp.Timestamp
	// RestartHint suggests a clock value for a retry (set on aborts
	// caused by frozen conflicts).
	RestartHint int64
}

var _ kv.Txn = (*DTxn)(nil)

// ID implements kv.Txn.
func (tx *DTxn) ID() uint64 { return tx.id }

// route returns the transaction's pinned route for key's partition,
// pinning the client's current route on first use.
func (tx *DTxn) route(key string) txnRoute {
	p := tx.client.partitionFor(key)
	if r, ok := tx.routes[p]; ok {
		return r
	}
	addr, epoch := tx.client.routeFor(p)
	r := txnRoute{addr: addr, epoch: epoch}
	tx.routes[p] = r
	tx.partOf[addr] = p
	return r
}

// epochFor returns the epoch pinned with addr (0 when addr was never
// pinned — the unreplicated paths).
func (tx *DTxn) epochFor(addr string) uint64 {
	if p, ok := tx.partOf[addr]; ok {
		return tx.routes[p].epoch
	}
	return 0
}

// routeFail reports a pinned route gone stale — the server at addr is
// unreachable or fenced this transaction's epoch — so the router
// re-resolves the partition. The pin itself is kept: a transaction
// never switches servers mid-flight; it aborts, and the retry pins
// fresh routes.
func (tx *DTxn) routeFail(addr string) {
	if r := tx.client.cfg.Router; r != nil {
		if p, ok := tx.partOf[addr]; ok {
			r.Refresh(p)
		}
	}
}

// Committed reports whether Commit succeeded.
func (tx *DTxn) Committed() bool { return tx.committed }

// abortErr marks the transaction aborted, performs distributed cleanup,
// and wraps the cause. Both errors stay in the chain, so callers can
// test errors.Is(err, kv.ErrAborted) as before and additionally
// errors.Is(err, kv.ErrDeadlock) to pick a retry policy.
func (tx *DTxn) abortErr(ctx context.Context, cause error) error {
	tx.abort(ctx)
	return fmt.Errorf("%w (%w)", kv.ErrAborted, cause)
}

// uncertainErr finishes the transaction in the unknown state: the
// commit proposal departed but its outcome never came back, so the
// commitment object may have decided commit — reporting an abort here
// would be a lie the fault bed is built to catch. No locks are
// released and no abort is proposed (either could fight a decided
// commit); the servers' suspicion path resolves the outcome through
// the commitment object and cleans up either way (Lemma 4). The
// recorder, when present, is told the commit is a "maybe" at commitTS
// so the checker can resolve it from observation.
func (tx *DTxn) uncertainErr(commitTS timestamp.Timestamp, cause error) error {
	tx.done = true
	tx.CommitTS = commitTS
	if rec := tx.client.cfg.Recorder; rec != nil {
		reads := make([]history.Read, 0, len(tx.readOrder))
		for _, key := range tx.readOrder {
			reads = append(reads, history.Read{Key: key, VersionTS: tx.readVers[key]})
		}
		rec.Record(history.Commit{
			ID:        tx.id,
			CommitTS:  commitTS,
			Reads:     reads,
			WriteKeys: append([]string(nil), tx.writeOrder...),
			Maybe:     true,
		})
	}
	return fmt.Errorf("%w (%w)", kv.ErrUncertain, cause)
}

// Read implements kv.Txn (Alg. 11 lines 10-14): a batch of one key
// through GetMulti — one read path, two entry points.
func (tx *DTxn) Read(ctx context.Context, key string) ([]byte, error) {
	out, err := tx.GetMulti(ctx, []string{key})
	if err != nil {
		return nil, err
	}
	return out[key], nil
}

// GetMulti implements kv.MultiGetter: it reads a static set of keys,
// grouping them by owning server and issuing one batched read-lock
// request per server in parallel, so an R-key read set costs O(servers)
// round trips instead of O(R) — mirroring the write-side batching of
// Commit. Duplicate keys are read once; keys the transaction has
// written are served from the write buffer. The returned map has one
// entry per distinct key (a nil value means ⊥). Any per-key failure
// aborts the transaction, as a failed Read would.
//
// The whole batch is requested under the transaction's upper bound at
// call time: under MVTIL a batched read may pick a newer version than a
// sequential Read loop (whose interval shrinks between reads) and abort
// where the loop would have settled for an older version — retry as
// with any abort.
func (tx *DTxn) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	if tx.done {
		return nil, kv.ErrTxnDone
	}
	out := make(map[string][]byte, len(keys))
	remote := make([]string, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		if v, ok := tx.writes[k]; ok {
			out[k] = v
			continue
		}
		remote = append(remote, k)
	}
	if len(remote) == 0 {
		return out, nil
	}

	mode := tx.client.cfg.Mode
	var upper timestamp.Timestamp
	wait := false
	switch mode {
	case ModeTILEarly, ModeTILLate:
		m, ok := tx.interval.Max()
		if !ok {
			return nil, tx.abortErr(ctx, fmt.Errorf("mvtil: interval exhausted"))
		}
		upper = m
	case ModeTO:
		upper, wait = tx.ts, true
	case ModePessimistic:
		upper, wait = timestamp.Infinity, true
	}

	batches := tx.fanOutBatches(ctx, tx.serverGroups(remote), wire.TReadLockBatchReq, wait, func(addr string, keys []string) wire.Message {
		return wire.ReadLockBatchReq{Txn: tx.id, Epoch: tx.epochFor(addr), Upper: upper, Wait: wait, Keys: keys}
	})
	// Decoded read results borrow their Value views from the response
	// frames, so the pooled buffers stay alive until the folds below
	// have copied every escaping value out.
	defer func() {
		for _, r := range batches {
			r.fb.Release()
		}
	}()
	byKey := make(map[string]wire.ReadLockResult, len(remote))
	var firstErr error
	// One response struct for the whole fan-in: DecodeInto reuses its
	// Results capacity across batches (byKey copies the per-key result
	// values, so overwriting between iterations is safe).
	var resp wire.ReadLockBatchResp
	for _, r := range batches {
		if r.err == nil {
			r.err = resp.DecodeInto(r.fb.Body())
		}
		if det := tx.client.det; det != nil && r.err == nil {
			det.observe(r.addr, resp.Edges)
		}
		switch {
		case r.err != nil:
			// transport/codec error: the head may be gone
			tx.routeFail(r.addr)
		case resp.Status == wire.StatusWrongEpoch:
			tx.routeFail(r.addr)
			r.err = fmt.Errorf("read batch via %s: %s: %w", r.addr, resp.Err, errStaleRoute)
		case resp.Status != wire.StatusOK:
			r.err = fmt.Errorf("read batch via %s: %s", r.addr, resp.Err)
		case len(resp.Results) != len(r.keys):
			r.err = fmt.Errorf("read batch via %s: %d results for %d keys", r.addr, len(resp.Results), len(r.keys))
		}
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		for i, k := range r.keys {
			byKey[k] = resp.Results[i]
		}
	}
	// Record every acquired lock before acting on any failure: the
	// abort path releases what tx.touched names, so a key locked on a
	// healthy server must be tracked even when a sibling batch failed
	// or an earlier key in the fold below aborts the transaction —
	// otherwise its read locks would linger server-side until purge.
	for k, res := range byKey {
		if res.Status == wire.StatusOK {
			tx.touched[k] = true
			tx.readLocked[k] = tx.readLocked[k].Union(setOf(res.Got))
		}
	}
	if firstErr != nil {
		return nil, tx.abortErr(ctx, firstErr)
	}

	// Fold per-key results in the caller's key order, so interval
	// narrowing and the reported abort cause are deterministic.
	for _, k := range remote {
		res := byKey[k]
		if res.Status != wire.StatusOK {
			if res.Status == wire.StatusDeadlock {
				return nil, tx.abortErr(ctx, fmt.Errorf("read %q: %w: %s", k, kv.ErrDeadlock, res.Err))
			}
			return nil, tx.abortErr(ctx, fmt.Errorf("read %q: %s", k, res.Err))
		}
		if _, read := tx.readVers[k]; !read {
			tx.readOrder = append(tx.readOrder, k)
		}
		tx.readVers[k] = res.VersionTS
		// res.Value is a borrowed view of a pooled response frame; the
		// result map outlives it (bytes.Clone keeps nil nil, so ⊥
		// round-trips).
		out[k] = bytes.Clone(res.Value)
		if mode == ModeTILEarly || mode == ModeTILLate {
			if res.Got.IsEmpty() {
				return nil, tx.abortErr(ctx, fmt.Errorf("mvtil: read of %q locked nothing", k))
			}
			tx.interval = tx.interval.IntersectInterval(timestamp.Span(res.VersionTS.Next(), res.Got.Hi))
			if tx.interval.IsEmpty() {
				return nil, tx.abortErr(ctx, fmt.Errorf("mvtil: read of %q emptied the interval", k))
			}
		}
	}
	return out, nil
}

// Write implements kv.Txn (Alg. 11 lines 3-9).
func (tx *DTxn) Write(ctx context.Context, key string, value []byte) error {
	if tx.done {
		return kv.ErrTxnDone
	}
	mode := tx.client.cfg.Mode
	if mode == ModeTO {
		// Timestamp ordering locks the write set only at commit.
		tx.bufferWrite(key, value)
		return nil
	}

	var req timestamp.Set
	wait := false
	switch mode {
	case ModeTILEarly, ModeTILLate:
		if tx.interval.IsEmpty() {
			return tx.abortErr(ctx, fmt.Errorf("mvtil: interval exhausted"))
		}
		req = tx.interval
	case ModePessimistic:
		req = timestamp.NewSet(timestamp.Span(timestamp.Zero.Next(), timestamp.Infinity))
		wait = true
	}
	res, err := tx.writeLock(ctx, key, req, wait, value)
	if err != nil {
		return tx.abortErr(ctx, err)
	}
	tx.bufferWrite(key, value)
	tx.writeLocked[key] = tx.writeLocked[key].Union(res.Got)
	if mode == ModeTILEarly || mode == ModeTILLate {
		if max, ok := res.Denied.Max(); ok && max.Time > tx.RestartHint {
			tx.RestartHint = max.Time
		}
		tx.interval = tx.interval.Intersect(res.Got)
		if tx.interval.IsEmpty() {
			return tx.abortErr(ctx, fmt.Errorf("mvtil: write of %q emptied the interval", key))
		}
	}
	return nil
}

// writeLock write-locks one key as a batch of one under the partition's
// pinned epoch, establishing the decision server on first use (§H.1:
// the first server reached by a write). It is called directly rather
// than through fanOutBatches, as it needs no server grouping.
func (tx *DTxn) writeLock(ctx context.Context, key string, req timestamp.Set, wait bool, value []byte) (wire.WriteLockResult, error) {
	rt := tx.route(key)
	if tx.decisionSrv == "" {
		tx.decisionSrv = rt.addr
	}
	f, err := tx.client.callWaitable(ctx, rt.addr, tx.id, wire.TWriteLockBatchReq, wire.WriteLockBatchReq{
		Txn:         tx.id,
		Epoch:       rt.epoch,
		DecisionSrv: tx.decisionSrv,
		Wait:        wait,
		Items:       []wire.WriteLockItem{{Key: key, Set: req, Value: value}},
	}, wait)
	resp, err := tx.writeLockResp(rt.addr, 1, f, err)
	if err != nil {
		return wire.WriteLockResult{}, err
	}
	res := resp.Results[0]
	if res.Status != wire.StatusOK {
		if res.Status == wire.StatusDeadlock {
			return res, fmt.Errorf("write-lock %q: %w: %s", key, kv.ErrDeadlock, res.Err)
		}
		return res, fmt.Errorf("write-lock %q: %s", key, res.Err)
	}
	tx.touched[key] = true
	return res, nil
}

// writeLockResp settles one write-lock batch sent to addr for n keys:
// it decodes and releases the response frame f (or takes the call's
// transport error), feeds the piggybacked wait-for edges to the
// deadlock detector, and turns a failed call, a stale-route fence, a
// request-level failure or a short result list into an error. Per-key
// outcomes are left to the caller.
func (tx *DTxn) writeLockResp(addr string, n int, f *wire.FrameBuf, err error) (wire.WriteLockBatchResp, error) {
	var resp wire.WriteLockBatchResp
	if err == nil {
		resp, err = wire.DecodeWriteLockBatchResp(f.Body())
		f.Release() // nothing borrowed: Sets and strings are owned
	}
	if det := tx.client.det; det != nil && err == nil {
		det.observe(addr, resp.Edges)
	}
	switch {
	case err != nil:
		// transport/codec error: the head may be gone
		tx.routeFail(addr)
	case resp.Status == wire.StatusWrongEpoch:
		tx.routeFail(addr)
		err = fmt.Errorf("write-lock batch via %s: %s: %w", addr, resp.Err, errStaleRoute)
	case resp.Status != wire.StatusOK:
		err = fmt.Errorf("write-lock batch via %s: %s", addr, resp.Err)
	case len(resp.Results) != n:
		err = fmt.Errorf("write-lock batch via %s: %d results for %d keys", addr, len(resp.Results), n)
	}
	return resp, err
}

func (tx *DTxn) bufferWrite(key string, value []byte) {
	if _, dup := tx.writes[key]; !dup {
		tx.writeOrder = append(tx.writeOrder, key)
	}
	tx.writes[key] = value
	tx.touched[key] = true
}

// serverGroup is one server's share of a key list.
type serverGroup struct {
	addr string
	keys []string
}

// serverGroups partitions keys by their owning server, in partition
// order, preserving the given key order within each group: the same
// keys always yield the same requests in the same order. The groups
// share one backing array.
func (tx *DTxn) serverGroups(keys []string) []serverGroup {
	part := tx.client.partitionFor
	sorted := slices.Clone(keys)
	slices.SortStableFunc(sorted, func(a, b string) int { return cmp.Compare(part(a), part(b)) })
	var groups []serverGroup
	for i := 0; i < len(sorted); {
		p, j := part(sorted[i]), i+1
		for j < len(sorted) && part(sorted[j]) == p {
			j++
		}
		groups = append(groups, serverGroup{addr: tx.route(sorted[i]).addr, keys: sorted[i:j:j]})
		i = j
	}
	return groups
}

// serverBatch is one settled per-server batch request: the group and
// either the pooled response frame (owned by the caller, who must
// Release it after folding) or the transport error.
type serverBatch struct {
	serverGroup
	fb  *wire.FrameBuf
	err error
}

// fanOutBatches issues one request per server group in parallel —
// build constructs a group's request message from its keys, encoded
// straight into a pooled frame by the RPC layer — and returns, in
// group order, once every batch has settled. It is the shared scaffold
// of the batched read and write paths; decoding, per-key folding and
// releasing the response frames stay with the caller.
func (tx *DTxn) fanOutBatches(ctx context.Context, groups []serverGroup, t wire.MsgType, wait bool, build func(addr string, keys []string) wire.Message) []serverBatch {
	out := make([]serverBatch, len(groups))
	if len(groups) == 1 {
		// One server needs no fan-out goroutine.
		out[0] = tx.callBatch(ctx, groups[0], t, wait, build)
		return out
	}
	join := clock.NewJoin(tx.client.timers, len(groups))
	for i := range groups {
		tx.client.timers.Go(func() {
			out[i] = tx.callBatch(ctx, groups[i], t, wait, build)
			join.Done() // while this child is still a registered actor
		})
	}
	// Credited join, not an Idle-bracketed channel drain: the last
	// child's Done wakes this goroutine with a runnability credit, so
	// the virtual timeline cannot slip timer fires into the handoff.
	join.Wait()
	return out
}

// callBatch sends one group's batch request and waits for it to settle.
func (tx *DTxn) callBatch(ctx context.Context, g serverGroup, t wire.MsgType, wait bool, build func(addr string, keys []string) wire.Message) serverBatch {
	f, err := tx.client.callWaitable(ctx, g.addr, tx.id, t, build(g.addr, g.keys), wait)
	return serverBatch{serverGroup: g, fb: f, err: err}
}

// writeLockBatches write-locks the transaction's whole write set at ts
// with one batch request per server, fanning out across servers in
// parallel: a W-write commit costs O(servers) round trips instead of
// O(W). Acquired sets are folded into writeLocked; the first per-key
// denial or transport failure is returned after all batches settle.
func (tx *DTxn) writeLockBatches(ctx context.Context, ts timestamp.Timestamp) error {
	batches := tx.fanOutBatches(ctx, tx.serverGroups(tx.writeOrder), wire.TWriteLockBatchReq, false, func(addr string, keys []string) wire.Message {
		items := make([]wire.WriteLockItem, len(keys))
		for i, k := range keys {
			items[i] = wire.WriteLockItem{Key: k, Set: setOf(timestamp.Point(ts)), Value: tx.writes[k]}
		}
		return wire.WriteLockBatchReq{Txn: tx.id, Epoch: tx.epochFor(addr), DecisionSrv: tx.decisionSrv, Items: items}
	})
	var firstErr error
	for _, r := range batches {
		resp, err := tx.writeLockResp(r.addr, len(r.keys), r.fb, r.err)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for i, k := range r.keys {
			res := resp.Results[i]
			if res.Status != wire.StatusOK || !res.Got.Contains(ts) {
				if firstErr == nil {
					firstErr = fmt.Errorf("write-lock %q at %v denied: %s", k, ts, res.Err)
				}
				continue
			}
			tx.writeLocked[k] = tx.writeLocked[k].Union(res.Got)
		}
	}
	return firstErr
}

// Commit implements kv.Txn (Alg. 11 lines 15-29).
func (tx *DTxn) Commit(ctx context.Context) error {
	if tx.done {
		return kv.ErrTxnDone
	}
	mode := tx.client.cfg.Mode

	// Commit-time locking: TO write-locks its timestamp on every
	// written key, without waiting (Alg. 8 via the wire protocol),
	// batched per server.
	if mode == ModeTO && len(tx.writeOrder) > 0 {
		if tx.decisionSrv == "" {
			tx.decisionSrv = tx.route(tx.writeOrder[0]).addr
		}
		if err := tx.writeLockBatches(ctx, tx.ts); err != nil {
			return tx.abortErr(ctx, err)
		}
	}

	// Find a commonly locked timestamp (Alg. 11 line 17).
	candidates := timestamp.NewSet(timestamp.Full)
	for key := range tx.readVers {
		if _, alsoWritten := tx.writes[key]; alsoWritten {
			continue
		}
		candidates = candidates.Intersect(tx.readLocked[key].Union(tx.writeLocked[key]))
	}
	for _, key := range tx.writeOrder {
		candidates = candidates.Intersect(tx.writeLocked[key])
	}
	if candidates.IsEmpty() {
		return tx.abortErr(ctx, fmt.Errorf("no commonly locked timestamp"))
	}

	var commitTS timestamp.Timestamp
	var ok bool
	switch mode {
	case ModeTILEarly:
		narrowed := candidates.Intersect(tx.interval)
		if !narrowed.IsEmpty() {
			candidates = narrowed
		}
		commitTS, ok = candidates.Min()
	case ModeTILLate:
		narrowed := candidates.Intersect(tx.interval)
		if !narrowed.IsEmpty() {
			candidates = narrowed
		}
		commitTS, ok = candidates.Max()
	case ModeTO:
		commitTS, ok = tx.ts, candidates.Contains(tx.ts)
	case ModePessimistic:
		commitTS, ok = candidates.At(candidates.NumIntervals()-1).Lo, true
	}
	if !ok {
		return tx.abortErr(ctx, fmt.Errorf("no usable commit timestamp in %v", candidates))
	}

	// Decide the outcome via the commitment object (Alg. 11 line 23).
	if len(tx.writeOrder) > 0 {
		d, err := tx.decide(ctx, wire.DecideCommit, commitTS)
		if err != nil {
			// A dial that never connected provably never delivered the
			// proposal, and an epoch fence provably rejected it before
			// the commitment object; only the coordinator proposes
			// commit, so in both cases the outcome can still only be
			// abort. Any other failure — timeout, reset, partition —
			// leaves the proposal possibly delivered and possibly
			// decided: the outcome is unknown.
			if errors.Is(err, transport.ErrUnavailable) || errors.Is(err, errStaleRoute) {
				return tx.abortErr(ctx, err)
			}
			return tx.uncertainErr(commitTS, err)
		}
		if d.Kind != wire.DecideCommit {
			return tx.abortErr(ctx, fmt.Errorf("commitment object decided abort"))
		}
	}
	tx.CommitTS = commitTS
	tx.committed = true
	tx.done = true

	if rec := tx.client.cfg.Recorder; rec != nil {
		reads := make([]history.Read, 0, len(tx.readOrder))
		for _, key := range tx.readOrder {
			reads = append(reads, history.Read{Key: key, VersionTS: tx.readVers[key]})
		}
		rec.Record(history.Commit{
			ID:        tx.id,
			CommitTS:  commitTS,
			Reads:     reads,
			WriteKeys: append([]string(nil), tx.writeOrder...),
		})
	}

	// The epilogue (Alg. 11 lines 27-34): one freeze batch per server,
	// cast without waiting for replies (the decision is already durable
	// at the commitment object, and a server that never gets the frame
	// applies the decision through the suspicion path). It freezes the
	// write locks at the commit timestamp and exposes the values; and —
	// except under timestamp ordering, which leaves its read locks
	// behind like MVTO+ read timestamps — it freezes the read locks
	// between version read and commit timestamp and then drops every
	// remaining unfrozen lock (garbage collection). Servers go in
	// partition order and keys in write and read order, so a seed sends
	// byte-identical frames.
	keys := tx.writeOrder
	if mode != ModeTO {
		keys = slices.Clone(tx.writeOrder)
		for _, key := range tx.readOrder {
			if _, written := tx.writes[key]; !written {
				keys = append(keys, key)
			}
		}
	}
	var castErr error
	for _, g := range tx.serverGroups(keys) {
		req := wire.FreezeBatchReq{Txn: tx.id, Epoch: tx.epochFor(g.addr), TS: commitTS}
		if mode != ModeTO {
			req.Reads = make([]wire.FreezeReadItem, 0, len(g.keys))
			req.Release = g.keys
		}
		for _, key := range g.keys {
			if _, written := tx.writes[key]; written {
				req.WriteKeys = append(req.WriteKeys, key)
			}
			if vts, read := tx.readVers[key]; read && mode != ModeTO && !vts.Next().After(commitTS) {
				req.Reads = append(req.Reads, wire.FreezeReadItem{Key: key, Lo: vts.Next(), Hi: commitTS})
			}
		}
		if err := tx.client.cast(g.addr, tx.id, wire.TFreezeBatchReq, req); err != nil {
			tx.routeFail(g.addr)
			if castErr == nil {
				castErr = fmt.Errorf("client: freeze batch via %s: %w", g.addr, err)
			}
		}
	}
	return castErr
}

// Abort implements kv.Txn.
func (tx *DTxn) Abort(ctx context.Context) error {
	if tx.done {
		return nil
	}
	tx.abort(ctx)
	return nil
}

// abort decides abort (when writes may be pending anywhere) and releases
// locks.
func (tx *DTxn) abort(ctx context.Context) {
	if tx.done {
		return
	}
	tx.done = true
	if tx.decisionSrv != "" {
		// Ignore failures: servers will suspect us and clean up on
		// their own (Lemma 4).
		_, _ = tx.decide(ctx, wire.DecideAbort, timestamp.Timestamp{})
	}
	tx.releaseAll(tx.client.cfg.Mode == ModeTO)
}

// releaseAll drops the transaction's unfrozen locks on every touched
// key, one release batch per server, fire-and-forget (Alg. 11 line 34).
// Safe on the abort path even when the decide call failed: only the
// coordinator proposes commit, so an aborting coordinator's outcome can
// only be abort and dropping pending writes is correct. Keys are sorted
// so the batches do not depend on map order.
func (tx *DTxn) releaseAll(writesOnly bool) {
	touched := make([]string, 0, len(tx.touched))
	for key := range tx.touched {
		touched = append(touched, key)
	}
	slices.Sort(touched)
	for _, g := range tx.serverGroups(touched) {
		req := wire.ReleaseBatchReq{Txn: tx.id, Epoch: tx.epochFor(g.addr), WritesOnly: writesOnly, Keys: g.keys}
		if err := tx.client.cast(g.addr, tx.id, wire.TReleaseBatchReq, req); err != nil {
			tx.routeFail(g.addr)
		}
	}
}

// decide proposes an outcome to the transaction's commitment object. A
// read-only transaction has no decision server; its outcome is decided
// locally (nothing is pending anywhere).
func (tx *DTxn) decide(ctx context.Context, kind wire.DecisionKind, ts timestamp.Timestamp) (wire.DecideResp, error) {
	if tx.decisionSrv == "" {
		return wire.DecideResp{Status: wire.StatusOK, Kind: kind, TS: ts}, nil
	}
	f, err := tx.client.call(ctx, tx.decisionSrv, tx.id, wire.TDecideReq,
		wire.DecideReq{Txn: tx.id, Epoch: tx.epochFor(tx.decisionSrv), Proposal: kind, TS: ts})
	if err != nil {
		tx.routeFail(tx.decisionSrv)
		return wire.DecideResp{}, err
	}
	resp, err := wire.DecodeDecideResp(f.Body())
	f.Release()
	if err != nil {
		return wire.DecideResp{}, err
	}
	if resp.Status == wire.StatusWrongEpoch {
		// The fence turned the proposal away before the commitment
		// object saw it: provably undecided.
		tx.routeFail(tx.decisionSrv)
		return wire.DecideResp{}, fmt.Errorf("decide %q: %s: %w", tx.decisionSrv, resp.Err, errStaleRoute)
	}
	if resp.Status != wire.StatusOK {
		// A request-level failure is not a decision; treating it as one
		// would report "decided abort" for what was e.g. a codec error.
		return wire.DecideResp{}, fmt.Errorf("decide %q: %s", tx.decisionSrv, resp.Err)
	}
	return resp, nil
}

// setOf wraps one interval in a set.
func setOf(iv timestamp.Interval) timestamp.Set { return timestamp.NewSet(iv) }
