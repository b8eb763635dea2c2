package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/wire"
)

// countingConn counts the Read calls that reach the underlying conn:
// with the buffered reader in place, that is the number of read
// syscalls a socket would see.
type countingConn struct {
	net.Conn
	reads int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

// frameBytes returns the wire encoding of one frame.
func frameBytes(tb testing.TB, id uint64, body []byte) []byte {
	tb.Helper()
	fb := wire.GetFrameBuf()
	defer fb.Release()
	if err := fb.SetFrame(id, 1, wire.Raw(body)); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, fb); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// pipeConn returns a tcpConn over one end of a net.Pipe, whose reads
// are counted, and the other end for the test to write raw bytes into.
// net.Pipe is synchronous: a Read returns bytes of at most one Write,
// so the test controls exactly how the stream is cut into reads.
func pipeConn(t *testing.T) (*tcpConn, *countingConn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	cc := &countingConn{Conn: a}
	c := newTCPConn(cc, 0, 0)
	t.Cleanup(func() {
		_ = c.Close()
		_ = b.Close()
	})
	return c, cc, b
}

// writeChunks writes each chunk as one Write on w, in a goroutine (a
// pipe Write blocks until it is read), then closes w if closeAfter.
func writeChunks(w net.Conn, chunks [][]byte, closeAfter bool) {
	go func() {
		for _, ch := range chunks {
			if _, err := w.Write(ch); err != nil {
				return
			}
		}
		if closeAfter {
			_ = w.Close()
		}
	}()
}

func recvFrame(t *testing.T, c Conn, id uint64, body []byte) {
	t.Helper()
	f, err := c.Recv()
	if err != nil {
		t.Fatalf("frame %d: %v", id, err)
	}
	defer f.Release()
	if f.ID() != id || !bytes.Equal(f.Body(), body) {
		t.Fatalf("frame %d: got id=%d, %d body bytes", id, f.ID(), len(f.Body()))
	}
}

// TestTCPRecvFrameSplitAcrossReads checks that a frame whose bytes
// arrive over several reads — cut inside the length prefix, inside the
// id, and inside the body — comes back whole.
func TestTCPRecvFrameSplitAcrossReads(t *testing.T) {
	c, _, w := pipeConn(t)
	body := []byte("split-across-reads")
	fr := frameBytes(t, 7, body)
	chunks := [][]byte{fr[:2], fr[2:6], fr[6:15], fr[15:]}
	// A second frame, one byte per write.
	fr2 := frameBytes(t, 8, body)
	for i := range fr2 {
		chunks = append(chunks, fr2[i:i+1])
	}
	writeChunks(w, chunks, false)
	recvFrame(t, c, 7, body)
	recvFrame(t, c, 8, body)
}

// TestTCPRecvBurstSharesOneRead is the deterministic syscall count: 64
// small frames delivered by one write must be decoded from far fewer
// reads than 64 (unbuffered, each frame cost three reads).
func TestTCPRecvBurstSharesOneRead(t *testing.T) {
	c, cc, w := pipeConn(t)
	const frames = 64
	body := []byte("burst")
	var burst []byte
	for i := 0; i < frames; i++ {
		burst = append(burst, frameBytes(t, uint64(i), body)...)
	}
	if len(burst) > 4096 {
		t.Fatalf("burst of %d bytes does not fit one buffer fill", len(burst))
	}
	writeChunks(w, [][]byte{burst}, false)
	for i := 0; i < frames; i++ {
		recvFrame(t, c, uint64(i), body)
	}
	if cc.reads != 1 {
		t.Fatalf("%d frames took %d reads, want 1", frames, cc.reads)
	}
}

// TestTCPRecvBodyLargerThanBuffer checks that a body bigger than the
// read buffer arrives intact, read straight into the frame buffer: one
// read fills the buffer with the header and the start of the body, one
// more reads the rest of the body directly.
func TestTCPRecvBodyLargerThanBuffer(t *testing.T) {
	c, cc, w := pipeConn(t)
	body := make([]byte, 3*4096+17)
	for i := range body {
		body[i] = byte(i * 7)
	}
	small := []byte("after")
	writeChunks(w, [][]byte{frameBytes(t, 1, body), frameBytes(t, 2, small)}, false)
	recvFrame(t, c, 1, body)
	if cc.reads != 2 {
		t.Fatalf("large body took %d reads, want 2 (copied through the buffer?)", cc.reads)
	}
	recvFrame(t, c, 2, small)
}

// TestTCPRecvEOF distinguishes a peer that closes between frames
// (io.EOF: a clean end of stream) from one that closes inside a frame
// (io.ErrUnexpectedEOF: a truncation).
func TestTCPRecvEOF(t *testing.T) {
	body := []byte("whole")
	t.Run("between frames", func(t *testing.T) {
		c, _, w := pipeConn(t)
		writeChunks(w, [][]byte{frameBytes(t, 1, body)}, true)
		recvFrame(t, c, 1, body)
		if _, err := c.Recv(); !errors.Is(err, io.EOF) {
			t.Fatalf("want io.EOF, got %v", err)
		}
	})
	for _, cut := range []int{2, 8, 15} {
		c, _, w := pipeConn(t)
		fr := frameBytes(t, 2, body)
		writeChunks(w, [][]byte{frameBytes(t, 1, body), fr[:cut]}, true)
		recvFrame(t, c, 1, body)
		if _, err := c.Recv(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at byte %d: want io.ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

// TestTCPRecvBufferedFrameAfterDeadline checks that a frame already in
// the read buffer is returned even once the read deadline has passed:
// the deadline bounds waiting on the socket, not decoding what has
// arrived. The next Recv, which must read the socket, times out.
func TestTCPRecvBufferedFrameAfterDeadline(t *testing.T) {
	c, _, w := pipeConn(t)
	body := []byte("buffered")
	writeChunks(w, [][]byte{append(frameBytes(t, 1, body), frameBytes(t, 2, body)...)}, false)
	recvFrame(t, c, 1, body)
	if err := c.c.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	recvFrame(t, c, 2, body)
	if _, err := c.Recv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout once the buffer is empty, got %v", err)
	}
}
