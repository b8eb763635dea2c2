package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// epoch anchors every timestamp of a run; now reads the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

type spanKind uint8

const (
	kTxn spanKind = iota + 1
	kRead
	kGetMulti
	kWrite
	kCommit
	kRPC   // coordinator request to its reply
	kCast  // coordinator one-way request
	kServe // server: request received to reply sent
	kPurge // one purge of the whole system
)

var kindNames = [...]string{
	kTxn: "txn", kRead: "read", kGetMulti: "getmulti", kWrite: "write", kCommit: "commit",
	kRPC: "rpc", kCast: "cast", kServe: "serve", kPurge: "purge",
}

// span is one timed step. Spans of the same transaction share their
// ancestry: call spans name the txn span as parent, rpc and cast spans
// the call span that was open when they were sent. A serve span is
// linked to its rpc or cast span by (link, frame), the connection pair
// and correlation id the two sides share.
type span struct {
	id, parent uint64
	kind       spanKind
	msg        wire.MsgType // request type of rpc, cast and serve spans
	status     uint8        // txn: outcome; call: 1 when it failed
	link       uint32
	frame      uint64
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// spanIDs numbers spans across all goroutines of a run.
var spanIDs atomic.Uint64

func newSpanID() uint64 { return spanIDs.Add(1) }

// owner is a closed-loop client (or the GC loop) as its connections see
// it: whether its current transaction is traced, and which of its call
// spans is open. Each owner runs one transaction at a time over
// connections of its own, so a frame on them belongs to that call.
type owner struct {
	traced atomic.Bool
	call   atomic.Uint64
}

// castFlag marks one-way frames in the rpc layer's correlation ids (see
// package rpc): the server echoes them and the coordinator drops the
// echo, so a cast is complete once sent.
const castFlag = uint64(1) << 63

// pendingReq is a request awaiting its reply.
type pendingReq struct {
	msg    wire.MsgType
	start  int64
	parent uint64
}

// sideStats counts what one side of the connections sent.
type sideStats struct {
	frames, flushes, bytes, sendNs int64
	byType                         [64]struct{ frames, bytes int64 }
}

func (s *sideStats) frame(fb *wire.FrameBuf) {
	n := int64(fb.WireLen())
	s.frames++
	s.bytes += n
	if t := fb.Type(); int(t) < len(s.byType) {
		s.byType[t].frames++
		s.byType[t].bytes += n
	}
}

func (s *sideStats) add(o *sideStats) {
	s.frames += o.frames
	s.flushes += o.flushes
	s.bytes += o.bytes
	s.sendNs += o.sendNs
	for i := range s.byType {
		s.byType[i].frames += o.byType[i].frames
		s.byType[i].bytes += o.byType[i].bytes
	}
}

// netTracer wraps a transport.Network for a cell whose coordinators and
// servers share this process. It pairs each dialed connection with the
// server side that accepts it, so both ends carry the same link number,
// and records spans and send counts while the owner's transaction is
// traced. Untraced frames pass straight through.
type netTracer struct {
	inner transport.Network
	// dialMu admits one dial at a time, so a dial pairs with the next
	// connection its listener accepts.
	dialMu sync.Mutex

	mu       sync.Mutex
	accepted map[string]chan *serverConn
	links    uint32
	clients  []*clientConn
	servers  []*serverConn
}

// pairTimeout bounds how long a dial waits for its server side; a
// connection left unpaired still works, but its serve spans stay
// unlinked.
const pairTimeout = 2 * time.Second

func newNetTracer(inner transport.Network) *netTracer {
	return &netTracer{inner: inner, accepted: map[string]chan *serverConn{}}
}

// forOwner returns the Network one owner dials through.
func (n *netTracer) forOwner(o *owner) transport.Network { return ownerNet{n, o} }

// Dial implements transport.Network for dials no owner makes (server to
// server); their frames are never traced.
func (n *netTracer) Dial(addr string) (transport.Conn, error) { return n.dial(addr, nil) }

func (n *netTracer) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	ch := make(chan *serverConn, 1)
	n.mu.Lock()
	n.accepted[l.Addr()] = ch
	n.mu.Unlock()
	return &tracedListener{Listener: l, n: n, ch: ch}, nil
}

func (n *netTracer) dial(addr string, o *owner) (transport.Conn, error) {
	n.dialMu.Lock()
	defer n.dialMu.Unlock()
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	cc := &clientConn{Conn: c, owner: o, pend: map[uint64]pendingReq{}}
	n.mu.Lock()
	n.links++
	cc.link = n.links
	ch := n.accepted[addr]
	n.clients = append(n.clients, cc)
	n.mu.Unlock()
	if ch != nil {
		select {
		case sc := <-ch:
			sc.peer.Store(cc)
		case <-time.After(pairTimeout):
		}
	}
	return cc, nil
}

type ownerNet struct {
	n *netTracer
	o *owner
}

func (on ownerNet) Dial(addr string) (transport.Conn, error) { return on.n.dial(addr, on.o) }

func (on ownerNet) Listen(addr string) (transport.Listener, error) { return on.n.Listen(addr) }

type tracedListener struct {
	transport.Listener
	n  *netTracer
	ch chan *serverConn
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc := &serverConn{Conn: c, pend: map[uint64]pendingReq{}}
	l.n.mu.Lock()
	l.n.servers = append(l.n.servers, sc)
	l.n.mu.Unlock()
	select {
	case l.ch <- sc: // the dial waiting for its server side
	default:
	}
	return sc, nil
}

// clientConn is the coordinator side of a connection. It opens an rpc
// span when a request is sent and closes it when the reply with the
// same correlation id arrives, in whatever order replies come.
type clientConn struct {
	transport.Conn
	owner *owner // nil for server-to-server connections
	link  uint32
	npend atomic.Int64

	mu    sync.Mutex
	pend  map[uint64]pendingReq
	spans offLog[span]
	stats sideStats
}

func (c *clientConn) traced() bool { return c.owner != nil && c.owner.traced.Load() }

// request records one outgoing frame; the caller holds c.mu and has not
// yet handed fb to the transport, which may consume it.
func (c *clientConn) request(fb *wire.FrameBuf, at int64) {
	c.stats.frame(fb)
	id, parent := fb.ID(), c.owner.call.Load()
	if id&castFlag != 0 {
		c.spans.add(span{id: newSpanID(), parent: parent, kind: kCast, msg: fb.Type(), link: c.link, frame: id, start: at, end: at})
		return
	}
	c.pend[id] = pendingReq{msg: fb.Type(), start: at, parent: parent}
	c.npend.Add(1)
}

func (c *clientConn) flushed(t0 int64) {
	t1 := now()
	c.mu.Lock()
	c.stats.flushes++
	c.stats.sendNs += t1 - t0
	c.mu.Unlock()
}

func (c *clientConn) Send(fb *wire.FrameBuf) error {
	if !c.traced() {
		return c.Conn.Send(fb)
	}
	t0 := now()
	c.mu.Lock()
	c.request(fb, t0)
	c.mu.Unlock()
	err := c.Conn.Send(fb)
	c.flushed(t0)
	return err
}

func (c *clientConn) SendBatch(fbs []*wire.FrameBuf) error {
	if !c.traced() {
		return c.Conn.SendBatch(fbs)
	}
	t0 := now()
	c.mu.Lock()
	for _, fb := range fbs {
		c.request(fb, t0)
	}
	c.mu.Unlock()
	err := c.Conn.SendBatch(fbs)
	c.flushed(t0)
	return err
}

func (c *clientConn) Recv() (*wire.FrameBuf, error) {
	fb, err := c.Conn.Recv()
	if err != nil || c.npend.Load() == 0 {
		return fb, err
	}
	at, id := now(), fb.ID()
	c.mu.Lock()
	if r, ok := c.pend[id]; ok {
		delete(c.pend, id)
		c.npend.Add(-1)
		c.spans.add(span{id: newSpanID(), parent: r.parent, kind: kRPC, msg: r.msg, link: c.link, frame: id, start: r.start, end: at})
	}
	c.mu.Unlock()
	return fb, nil
}

// serverConn is the server side of a connection. It times each request
// from its arrival to the reply that carries its correlation id.
type serverConn struct {
	transport.Conn
	peer  atomic.Pointer[clientConn] // the paired coordinator side
	npend atomic.Int64

	mu    sync.Mutex
	pend  map[uint64]pendingReq
	spans offLog[span]
	stats sideStats
}

func (s *serverConn) traced() bool {
	p := s.peer.Load()
	return p != nil && p.traced()
}

func (s *serverConn) Recv() (*wire.FrameBuf, error) {
	fb, err := s.Conn.Recv()
	if err != nil || !s.traced() {
		return fb, err
	}
	at := now()
	s.mu.Lock()
	s.pend[fb.ID()] = pendingReq{msg: fb.Type(), start: at}
	s.npend.Add(1)
	s.mu.Unlock()
	return fb, nil
}

// reply records one outgoing frame; the caller holds s.mu.
func (s *serverConn) reply(fb *wire.FrameBuf, at int64) {
	s.stats.frame(fb)
	id := fb.ID()
	r, ok := s.pend[id]
	if !ok {
		return
	}
	delete(s.pend, id)
	s.npend.Add(-1)
	s.spans.add(span{id: newSpanID(), kind: kServe, msg: r.msg, link: s.peer.Load().link, frame: id, start: r.start, end: at})
}

func (s *serverConn) flushed(t0 int64) {
	t1 := now()
	s.mu.Lock()
	s.stats.flushes++
	s.stats.sendNs += t1 - t0
	s.mu.Unlock()
}

func (s *serverConn) Send(fb *wire.FrameBuf) error {
	if s.npend.Load() == 0 && !s.traced() {
		return s.Conn.Send(fb)
	}
	t0 := now()
	s.mu.Lock()
	s.reply(fb, t0)
	s.mu.Unlock()
	err := s.Conn.Send(fb)
	s.flushed(t0)
	return err
}

func (s *serverConn) SendBatch(fbs []*wire.FrameBuf) error {
	if s.npend.Load() == 0 && !s.traced() {
		return s.Conn.SendBatch(fbs)
	}
	t0 := now()
	s.mu.Lock()
	for _, fb := range fbs {
		s.reply(fb, t0)
	}
	s.mu.Unlock()
	err := s.Conn.SendBatch(fbs)
	s.flushed(t0)
	return err
}

// netTrace is what a run's connections recorded. Connections owned by
// the GC loop keep their spans apart and stay out of the send counts,
// which describe transaction traffic.
type netTrace struct {
	spans, gcSpans spanLogs
	client, server sideStats
	unpaired       int
}

// spanLogs are span logs read together.
type spanLogs []*offLog[span]

func (ls spanLogs) each(f func(*span)) {
	for _, l := range ls {
		l.each(f)
	}
}

func (n *netTracer) collect(gc *owner) netTrace {
	n.mu.Lock()
	clients, servers := n.clients, n.servers
	n.mu.Unlock()
	var t netTrace
	for _, c := range clients {
		c.mu.Lock()
		if c.owner == gc {
			t.gcSpans = append(t.gcSpans, &c.spans)
		} else {
			t.spans = append(t.spans, &c.spans)
			t.client.add(&c.stats)
		}
		c.mu.Unlock()
	}
	for _, s := range servers {
		p := s.peer.Load()
		if p == nil {
			t.unpaired++
		}
		s.mu.Lock()
		if p != nil && p.owner == gc {
			t.gcSpans = append(t.gcSpans, &s.spans)
		} else {
			t.spans = append(t.spans, &s.spans)
			t.server.add(&s.stats)
		}
		s.mu.Unlock()
	}
	return t
}

// writeSpans writes spans as gzip-compressed tab-separated lines, one
// span per line after a header, grouped by the log that recorded them.
func writeSpans(path string, spans spanLogs) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		_ = f.Close()
		return err
	}
	w := bufio.NewWriterSize(zw, 1<<20)
	fmt.Fprintln(w, "id\tparent\tkind\tmsg\tlink\tframe\tstatus\tstart_ns\tend_ns")
	spans.each(func(s *span) {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%#x\t%d\t%d\t%d\n", s.id, s.parent, kindNames[s.kind], msgName(s.msg), s.link, s.frame, s.status, s.start, s.end)
	})
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
