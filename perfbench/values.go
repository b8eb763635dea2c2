package main

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/lpd-epfl/mvtl/internal/workload"
)

// Every value the benchmark writes is eight bytes that name the key and
// the attempt that wrote it, so a read can be checked against what was
// written:
//
//	bits  0-23  key index
//	bits 24-55  attempt sequence number within its client
//	bits 56-63  client number (0 marks the preloaded value)
const (
	keyBits   = 24
	seqBits   = 32
	maxKeys   = 1 << keyBits
	maxClient = 255
)

func valueCode(client int, seq uint32, key int32) uint64 {
	return uint64(client)<<(keyBits+seqBits) | uint64(seq)<<keyBits | uint64(key)
}

func codeKey(code uint64) int32 { return int32(code & (maxKeys - 1)) }

func codeClient(code uint64) int { return int(code >> (keyBits + seqBits)) }

// arena hands out value buffers carved from large blocks. A block is
// never reused: the store may keep a written slice as a version.
type arena struct{ buf []byte }

func (a *arena) value(code uint64) []byte {
	if len(a.buf) < valueSize {
		a.buf = make([]byte, 64<<10)
	}
	v := a.buf[:valueSize:valueSize]
	a.buf = a.buf[valueSize:]
	putCode(v, code)
	return v
}

func putCode(v []byte, code uint64) { binary.LittleEndian.PutUint64(v, code) }

// op is one generated operation: key index<<1 | 1 for a write.
type op uint32

func (o op) key() int32  { return int32(o >> 1) }
func (o op) write() bool { return o&1 == 1 }
func mkOp(key int32, write bool) op {
	if write {
		return op(key)<<1 | 1
	}
	return op(key) << 1
}

// keyspace maps the generator's key names to indices and back.
type keyspace struct {
	names []string
	index map[string]int32
}

func newKeyspace(n int) *keyspace {
	ks := &keyspace{names: make([]string, n), index: make(map[string]int32, n)}
	for i := range ks.names {
		ks.names[i] = workload.Key(i)
		ks.index[ks.names[i]] = int32(i)
	}
	return ks
}

// stream draws one client's transactions from workload.Gen, OpsPerTxn
// operations each. Transactions drawn ahead by fill cost nothing inside
// the timed window; next falls back to drawing on demand, which the
// report shows as draws in the window.
type stream struct {
	gen     *workload.Gen
	ks      *keyspace
	k       int
	ahead   []op // off the heap, k per transaction
	pos     int
	scratch []op
	extra   int
}

func newStream(s spec, ks *keyspace, seed int64) *stream {
	k := s.shape.OpsPerTxn
	return &stream{gen: workload.NewGen(s.shape, seed), ks: ks, k: k, scratch: make([]op, k)}
}

func (st *stream) draw(dst []op) {
	for i, o := range st.gen.Txn() {
		k, ok := st.ks.index[o.Key]
		if !ok {
			panic(fmt.Sprintf("generator produced key %q outside the keyspace", o.Key))
		}
		dst[i] = mkOp(k, o.Write)
	}
}

// fill draws n transactions ahead.
func (st *stream) fill(n int) {
	st.ahead = offHeap[op](n * st.k)
	for i := 0; i < n; i++ {
		st.draw(st.ahead[i*st.k : (i+1)*st.k])
	}
}

// next returns the next transaction's operations, valid until the
// following call.
func (st *stream) next() []op {
	if st.pos+st.k <= len(st.ahead) {
		t := st.ahead[st.pos : st.pos+st.k]
		st.pos += st.k
		return t
	}
	st.extra++
	st.draw(st.scratch)
	return st.scratch
}

func (st *stream) free() {
	freeOffHeap(st.ahead)
	st.ahead = nil
}

// readCheck checks values as they are read. What it can decide from the
// value alone it decides at once; whether some attempt of the run wrote
// the value waits for the end of the run, against every client's
// writes.
type readCheck struct {
	bottom, preloaded int64
	bad               int64
	first             string
	pending           offLog[uint64]
}

func (rc *readCheck) observe(key int32, v []byte) {
	if v == nil {
		rc.bottom++
		return
	}
	if len(v) != valueSize {
		rc.fail(key, v, "not a value this benchmark writes")
		return
	}
	code := binary.LittleEndian.Uint64(v)
	switch {
	case codeKey(code) != key:
		rc.fail(key, v, "value was written for another key")
	case codeClient(code) != 0:
		rc.pending.add(code)
	case code != valueCode(0, 0, key):
		rc.fail(key, v, "not the preloaded value")
	default:
		rc.preloaded++
	}
}

func (rc *readCheck) fail(key int32, v []byte, why string) {
	rc.bad++
	if rc.first == "" {
		rc.first = fmt.Sprintf("read of key %d returned %x: %s", key, v, why)
	}
}

// checkWritten counts the pending reads no attempt wrote and returns
// the count and a description of the first.
func checkWritten(written []uint64, pending []uint64) (int64, string) {
	slices.Sort(written)
	var bad int64
	first := ""
	for _, code := range pending {
		if _, ok := slices.BinarySearch(written, code); !ok {
			if bad == 0 {
				first = fmt.Sprintf("read of key %d returned value %#x that no attempt wrote", codeKey(code), code)
			}
			bad++
		}
	}
	return bad, first
}
