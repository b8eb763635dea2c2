package wire

import (
	"fmt"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Batch messages carry a transaction's whole per-server footprint in one
// frame, so that a commit or abort costs O(servers) round trips instead
// of O(keys) (§7: the coordinator groups Alg. 11's per-key messages by
// the server owning each key). Servers answer with per-key sub-results.
// They are the only lock, freeze and release messages: a single-key
// step, such as an interactive write, is a batch of one.

// lockBatchWaitOffset is where both lock-batch requests carry their
// Wait flag: right after Txn and Epoch, ahead of every variable-length
// field, so a server can tell whether a request may park before it
// decodes anything.
const lockBatchWaitOffset = 16

// LockBatchWaits reports the Wait flag of a ReadLockBatchReq or
// WriteLockBatchReq body by reading its fixed offset, with no decoding
// and no allocation. A body too short to hold the flag reads as
// waiting: it is truncated, and a caller routing it as a request that
// may park loses nothing — the full decode rejects it.
func LockBatchWaits(body []byte) bool {
	return len(body) <= lockBatchWaitOffset || body[lockBatchWaitOffset] != 0
}

// WriteLockItem is one key of a WriteLockBatchReq: the requested lock
// set and the pending value to buffer.
type WriteLockItem struct {
	Key   string
	Set   timestamp.Set
	Value []byte
}

// WriteLockBatchReq asks the server to write-lock a subset of each
// listed key's Set for the transaction and buffer its Value as the
// pending write, all in one pass (Alg. 13, receive-write-lock-message).
// DecisionSrv names the server hosting the transaction's commitment
// object, so that a timeout on this server can reach consensus on
// aborting (§H.1). Epoch is the coordinator's pinned membership epoch
// for the partition (0 on unreplicated clusters); a mismatch is
// answered with StatusWrongEpoch.
type WriteLockBatchReq struct {
	Txn         uint64
	Epoch       uint64
	Wait        bool
	DecisionSrv string
	Items       []WriteLockItem
}

// AppendTo implements Message.
func (m WriteLockBatchReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.U64(m.Txn)
	e.U64(m.Epoch)
	e.Bool(m.Wait)
	e.Str(m.DecisionSrv)
	e.I32(int32(len(m.Items)))
	for _, it := range m.Items {
		e.Str(it.Key)
		e.Set(it.Set)
		e.Blob(it.Value)
	}
	return e.buf
}

// DecodeWriteLockBatchReq deserializes a WriteLockBatchReq.
func DecodeWriteLockBatchReq(b []byte) (WriteLockBatchReq, error) {
	d := NewDecoder(b)
	m := WriteLockBatchReq{Txn: d.U64(), Epoch: d.U64(), Wait: d.Bool(), DecisionSrv: d.Str()}
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		m.Items = append(m.Items, WriteLockItem{Key: d.Str(), Set: d.Set(), Value: d.Blob()})
	}
	return m, d.Err()
}

// WriteLockResult is the per-key outcome of a batch write-lock: the
// acquired and denied subsets of the requested set.
type WriteLockResult struct {
	Status Status
	Err    string
	Got    timestamp.Set
	Denied timestamp.Set
}

// WriteLockBatchResp answers a WriteLockBatchReq. Results is parallel to
// the request's Items; Status reports request-level failures (malformed
// frame, transaction already decided) in which case Results may be nil.
// Edges piggybacks the server's local wait-for edges when any sub-result
// was denied, feeding the coordinator's cross-server deadlock detector
// without an extra round trip.
type WriteLockBatchResp struct {
	Status  Status
	Err     string
	Results []WriteLockResult
	Edges   []WaitEdge
}

// AppendTo implements Message.
func (m WriteLockBatchResp) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.status(m.Status)
	e.Str(m.Err)
	e.I32(int32(len(m.Results)))
	for _, r := range m.Results {
		e.status(r.Status)
		e.Str(r.Err)
		e.Set(r.Got)
		e.Set(r.Denied)
	}
	e.Edges(m.Edges)
	return e.buf
}

// DecodeWriteLockBatchResp deserializes a WriteLockBatchResp.
func DecodeWriteLockBatchResp(b []byte) (WriteLockBatchResp, error) {
	d := NewDecoder(b)
	m := WriteLockBatchResp{Status: d.status(), Err: d.Str()}
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		m.Results = append(m.Results, WriteLockResult{
			Status: d.status(), Err: d.Str(), Got: d.Set(), Denied: d.Set(),
		})
	}
	m.Edges = d.Edges()
	return m, d.Err()
}

// FreezeReadItem is one read-lock range [Lo, Hi] to freeze (garbage
// collection, Alg. 11 line 33).
type FreezeReadItem struct {
	Key    string
	Lo, Hi timestamp.Timestamp
}

// FreezeBatchReq is a committed transaction's whole epilogue on one
// server (Alg. 11 lines 27-34) in one frame: freeze the write locks of
// WriteKeys at TS (installing the pending values first; Alg. 13,
// receive-freeze-write-lock-message), freeze the read-lock ranges of
// Reads, and then drop the transaction's remaining unfrozen locks on
// every key of Release (garbage collection). Freeze and release travel
// together, so a lost frame loses both; the server's suspicion path
// then applies the decision (see server.applyDecision).
type FreezeBatchReq struct {
	Txn       uint64
	Epoch     uint64
	TS        timestamp.Timestamp
	WriteKeys []string
	Reads     []FreezeReadItem
	Release   []string
}

// AppendTo implements Message.
func (m FreezeBatchReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.U64(m.Txn)
	e.U64(m.Epoch)
	e.TS(m.TS)
	e.StrSlice(m.WriteKeys)
	e.I32(int32(len(m.Reads)))
	for _, r := range m.Reads {
		e.Str(r.Key)
		e.TS(r.Lo)
		e.TS(r.Hi)
	}
	e.StrSlice(m.Release)
	return e.buf
}

// DecodeFreezeBatchReq deserializes a FreezeBatchReq.
func DecodeFreezeBatchReq(b []byte) (FreezeBatchReq, error) {
	d := NewDecoder(b)
	m := FreezeBatchReq{Txn: d.U64(), Epoch: d.U64(), TS: d.TS(), WriteKeys: d.StrSlice()}
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		m.Reads = append(m.Reads, FreezeReadItem{Key: d.Str(), Lo: d.TS(), Hi: d.TS()})
	}
	m.Release = d.StrSlice()
	return m, d.Err()
}

// FreezeBatchResp answers a FreezeBatchReq with one ack per write key
// (read freezes and releases cannot fail). Coordinators cast freezes,
// which get no reply; the acks answer a freeze sent as a call, which
// makes the handler testable.
type FreezeBatchResp struct {
	Status Status
	Err    string
	// WriteAcks is parallel to the request's WriteKeys.
	WriteAcks []Ack
}

// AppendTo implements Message.
func (m FreezeBatchResp) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.status(m.Status)
	e.Str(m.Err)
	e.I32(int32(len(m.WriteAcks)))
	for _, a := range m.WriteAcks {
		e.status(a.Status)
		e.Str(a.Err)
	}
	return e.buf
}

// DecodeFreezeBatchResp deserializes a FreezeBatchResp.
func DecodeFreezeBatchResp(b []byte) (FreezeBatchResp, error) {
	d := NewDecoder(b)
	m := FreezeBatchResp{Status: d.status(), Err: d.Str()}
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		m.WriteAcks = append(m.WriteAcks, Ack{Status: d.status(), Err: d.Str()})
	}
	return m, d.Err()
}

// ReleaseBatchReq releases the transaction's unfrozen locks (all of
// them, or only write locks) on every listed key in one pass: the
// epilogue of an aborted transaction.
type ReleaseBatchReq struct {
	Txn        uint64
	Epoch      uint64
	WritesOnly bool
	Keys       []string
}

// AppendTo implements Message.
func (m ReleaseBatchReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.U64(m.Txn)
	e.U64(m.Epoch)
	e.Bool(m.WritesOnly)
	e.StrSlice(m.Keys)
	return e.buf
}

// DecodeReleaseBatchReq deserializes a ReleaseBatchReq.
func DecodeReleaseBatchReq(b []byte) (ReleaseBatchReq, error) {
	d := NewDecoder(b)
	m := ReleaseBatchReq{Txn: d.U64(), Epoch: d.U64(), WritesOnly: d.Bool(), Keys: d.StrSlice()}
	return m, d.Err()
}

// ReadLockBatchReq asks the server to perform the read step for every
// listed key in one pass (Alg. 13, receive-read-lock-message): per key,
// pick the latest committed version below Upper, read-lock from just
// above it toward Upper (waiting on unfrozen write locks if Wait), and
// return the version and the locked interval. Upper and Wait are shared
// by the whole batch — a coordinator issues one batch per server for a
// static read set, all under the transaction's current interval bound.
type ReadLockBatchReq struct {
	Txn   uint64
	Epoch uint64
	Wait  bool
	Upper timestamp.Timestamp
	Keys  []string
}

// AppendTo implements Message.
func (m ReadLockBatchReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.U64(m.Txn)
	e.U64(m.Epoch)
	e.Bool(m.Wait)
	e.TS(m.Upper)
	e.StrSlice(m.Keys)
	return e.buf
}

// DecodeReadLockBatchReq deserializes a ReadLockBatchReq.
func DecodeReadLockBatchReq(b []byte) (ReadLockBatchReq, error) {
	d := NewDecoder(b)
	m := ReadLockBatchReq{Txn: d.U64(), Epoch: d.U64(), Wait: d.Bool(), Upper: d.TS(), Keys: d.StrSlice()}
	return m, d.Err()
}

// ReadLockResult is the per-key outcome of a batch read: the version
// read, its value, and the read-locked interval [VersionTS+1, ...],
// which may be empty.
type ReadLockResult struct {
	Status    Status
	Err       string
	VersionTS timestamp.Timestamp
	Value     []byte
	Got       timestamp.Interval
}

// ReadLockBatchResp answers a ReadLockBatchReq. Results is parallel to
// the request's Keys; Status reports request-level failures (malformed
// frame) in which case Results may be nil. Edges piggybacks the
// server's local wait-for edges when any waiting sub-read conflicted,
// feeding the coordinator's cross-server deadlock detector without an
// extra round trip.
type ReadLockBatchResp struct {
	Status  Status
	Err     string
	Results []ReadLockResult
	Edges   []WaitEdge
}

// AppendTo implements Message.
func (m ReadLockBatchResp) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.status(m.Status)
	e.Str(m.Err)
	e.I32(int32(len(m.Results)))
	for _, r := range m.Results {
		e.status(r.Status)
		e.Str(r.Err)
		e.TS(r.VersionTS)
		e.Blob(r.Value)
		e.Interval(r.Got)
	}
	e.Edges(m.Edges)
	return e.buf
}

// DecodeInto deserializes into m, reusing m.Results' capacity — the
// steady-state decode of the hot read path allocates nothing (values
// are borrowed views into b, see Decoder.Blob). All fields are
// overwritten.
func (m *ReadLockBatchResp) DecodeInto(b []byte) error {
	d := NewDecoder(b)
	m.Status = d.status()
	m.Err = d.Str()
	n := d.count()
	m.Results = m.Results[:0]
	for i := 0; i < n && d.err == nil; i++ {
		m.Results = append(m.Results, ReadLockResult{
			Status: d.status(), Err: d.Str(), VersionTS: d.TS(), Value: d.Blob(), Got: d.Interval(),
		})
	}
	m.Edges = d.Edges()
	return d.Err()
}

// DecodeReadLockBatchResp deserializes a ReadLockBatchResp.
func DecodeReadLockBatchResp(b []byte) (ReadLockBatchResp, error) {
	var m ReadLockBatchResp
	err := m.DecodeInto(b)
	return m, err
}

// count consumes a batch item count, validating its range: every item
// encodes to at least one byte, so a valid count can never exceed the
// remaining buffer — a corrupt prefix fails here instead of driving a
// huge allocation or a long loop over an already-errored decoder.
func (d *Decoder) count() int {
	n := d.I32()
	if d.err != nil {
		return 0
	}
	if n < 0 || int(n) > len(d.buf) {
		d.err = fmt.Errorf("wire: batch count %d invalid", n)
		return 0
	}
	return int(n)
}
