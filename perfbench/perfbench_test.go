package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

func drawN(t *testing.T, s spec, ks *keyspace, seed int64, n int) []op {
	t.Helper()
	st := newStream(s, ks, seed)
	st.fill(n)
	defer st.free()
	return slices.Clone(st.ahead)
}

func TestStreamsFollowTheSeed(t *testing.T) {
	for _, s := range specs {
		ks := newKeyspace(s.shape.Keys)
		a := drawN(t, s, ks, streamSeed(7, 0, seedMain), 200)
		b := drawN(t, s, ks, streamSeed(7, 0, seedMain), 200)
		if !slices.Equal(a, b) {
			t.Errorf("%s: the same seed gave different streams", s.name)
		}
		for _, other := range []int64{streamSeed(8, 0, seedMain), streamSeed(7, 1, seedMain), streamSeed(7, 0, seedWarm)} {
			if slices.Equal(a, drawN(t, s, ks, other, 200)) {
				t.Errorf("%s: seed %d gave the same stream as seed %d", s.name, other, streamSeed(7, 0, seedMain))
			}
		}
	}
}

func TestStreamDrawsOnDemandPastItsEnd(t *testing.T) {
	s := specs[0]
	ks := newKeyspace(s.shape.Keys)
	want := drawN(t, s, ks, 3, 3)
	st := newStream(s, ks, 3)
	st.fill(2)
	defer st.free()
	var got []op
	for i := 0; i < 3; i++ {
		got = append(got, st.next()...)
	}
	if !slices.Equal(got, want) || st.extra != 1 {
		t.Fatalf("stream past its end: %d extra draws, ops equal %v", st.extra, slices.Equal(got, want))
	}
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{1, 2, 10, 20, 21, 22, 100, 500, 1000, 1011, 5000} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(i)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			v := percentile(xs, q)
			beyond := n - 1 - int(v)
			rank := int(float64(n)*q+0.999999) - 1
			switch {
			case n-1-rank >= minBeyond && rank >= (n-1)/2:
				if int(v) != rank {
					t.Errorf("n=%d q=%v: got index %d, want nearest rank %d", n, q, v, rank)
				}
			case n >= 2*minBeyond+1:
				if beyond != minBeyond {
					t.Errorf("n=%d q=%v: %d samples beyond, want exactly %d", n, q, beyond, minBeyond)
				}
			default:
				if int(v) != (n-1)/2 {
					t.Errorf("n=%d q=%v: got index %d, want the median %d", n, q, v, (n-1)/2)
				}
			}
		}
	}
	if percentile(nil, 0.99) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{10, 30}, {20, 50}, {40, 45}, {90, 120}, {-5, 5}, {200, 300}}
	// Covered: [0,5) + [10,50) + [90,100) = 55.
	if got := selfTime(parent, children); got != 45 {
		t.Fatalf("self time %d, want 45", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %d, want 100", got)
	}
	if got := selfTime(parent, []interval{{-10, 200}}); got != 0 {
		t.Fatalf("self time under a covering child %d, want 0", got)
	}
}

// fakeConn records what is sent and replays queued frames on Recv.
type fakeConn struct {
	sent []uint64
	recv []*wire.FrameBuf
}

func (f *fakeConn) Send(fb *wire.FrameBuf) error {
	f.sent = append(f.sent, fb.ID())
	fb.Release()
	return nil
}

func (f *fakeConn) SendBatch(fbs []*wire.FrameBuf) error {
	for i, fb := range fbs {
		_ = f.Send(fb)
		fbs[i] = nil
	}
	return nil
}

func (f *fakeConn) Recv() (*wire.FrameBuf, error) {
	fb := f.recv[0]
	f.recv = f.recv[1:]
	return fb, nil
}

func (f *fakeConn) Close() error { return nil }

func frame(t *testing.T, id uint64, mt wire.MsgType) *wire.FrameBuf {
	t.Helper()
	fb := wire.GetFrameBuf()
	if err := fb.SetFrame(id, mt, nil); err != nil {
		t.Fatal(err)
	}
	return fb
}

func TestRPCPairingOutOfOrderRepliesAndCasts(t *testing.T) {
	fake := &fakeConn{}
	own := &owner{}
	own.traced.Store(true)
	own.call.Store(42)
	c := &clientConn{Conn: fake, owner: own, link: 3, pend: map[uint64]pendingReq{}}
	cast := castFlag | 1
	if err := c.Send(frame(t, 1, wire.TReadLockBatchReq)); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch([]*wire.FrameBuf{frame(t, 2, wire.TWriteLockReq), frame(t, cast, wire.TFreezeBatchReq), frame(t, 3, wire.TDecideReq)}); err != nil {
		t.Fatal(err)
	}
	// Replies in reverse order, the cast's echo, and a reply to nothing.
	fake.recv = []*wire.FrameBuf{
		frame(t, 3, wire.TDecideResp), frame(t, cast, wire.TFreezeBatchResp),
		frame(t, 99, wire.TDecideResp), frame(t, 1, wire.TReadLockBatchResp), frame(t, 2, wire.TWriteLockResp),
	}
	for range 5 {
		fb, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		fb.Release()
	}
	spans := c.spans.appendTo(nil)
	want := map[uint64]struct {
		kind spanKind
		msg  wire.MsgType
	}{1: {kRPC, wire.TReadLockBatchReq}, 2: {kRPC, wire.TWriteLockReq}, 3: {kRPC, wire.TDecideReq}, cast: {kCast, wire.TFreezeBatchReq}}
	if len(spans) != len(want) {
		t.Fatalf("%d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for _, s := range spans {
		w, ok := want[s.frame]
		if !ok || s.kind != w.kind || s.msg != w.msg || s.parent != 42 || s.link != 3 || s.end < s.start {
			t.Errorf("unexpected span %+v", s)
		}
		delete(want, s.frame)
	}
	if c.npend.Load() != 0 || len(c.pend) != 0 {
		t.Errorf("%d requests still pending", len(c.pend))
	}
	if c.stats.frames != 4 || c.stats.flushes != 2 {
		t.Errorf("counted %d frames in %d flushes, want 4 in 2", c.stats.frames, c.stats.flushes)
	}

	// The server side pairs its replies with the requests it received.
	sfake := &fakeConn{recv: []*wire.FrameBuf{frame(t, 1, wire.TReadLockBatchReq), frame(t, cast, wire.TFreezeBatchReq), frame(t, 2, wire.TWriteLockReq)}}
	s := &serverConn{Conn: sfake, pend: map[uint64]pendingReq{}}
	s.peer.Store(c)
	for range 3 {
		fb, err := s.Recv()
		if err != nil {
			t.Fatal(err)
		}
		fb.Release()
	}
	if err := s.SendBatch([]*wire.FrameBuf{frame(t, 2, wire.TWriteLockResp), frame(t, cast, wire.TFreezeBatchResp)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(frame(t, 1, wire.TReadLockBatchResp)); err != nil {
		t.Fatal(err)
	}
	served := map[uint64]wire.MsgType{}
	for _, sp := range s.spans.appendTo(nil) {
		if sp.kind != kServe || sp.link != 3 || sp.end < sp.start {
			t.Errorf("unexpected serve span %+v", sp)
		}
		served[sp.frame] = sp.msg
	}
	wantServed := map[uint64]wire.MsgType{1: wire.TReadLockBatchReq, 2: wire.TWriteLockReq, cast: wire.TFreezeBatchReq}
	if len(served) != len(wantServed) {
		t.Fatalf("served %v, want %v", served, wantServed)
	}
	for id, mt := range wantServed {
		if served[id] != mt {
			t.Errorf("frame %#x served as %v, want %v", id, served[id], mt)
		}
	}
}

func TestReadCheck(t *testing.T) {
	var rc readCheck
	val := func(code uint64) []byte {
		v := make([]byte, valueSize)
		putCode(v, code)
		return v
	}
	written := []uint64{valueCode(1, 5, 7), valueCode(2, 9, 8)}
	rc.observe(7, nil)                     // ⊥
	rc.observe(7, val(valueCode(0, 0, 7))) // preloaded
	rc.observe(7, val(valueCode(1, 5, 7))) // written
	rc.observe(8, val(valueCode(2, 9, 8))) // written
	rc.observe(7, val(valueCode(0, 3, 7))) // preload client, wrong value
	rc.observe(7, val(valueCode(1, 5, 8))) // another key's value
	rc.observe(7, []byte("short"))         // not a benchmark value
	rc.observe(8, val(valueCode(1, 6, 8))) // never written
	bad, first := checkWritten(written, rc.pending.appendTo(nil))
	defer rc.pending.free()
	if rc.bottom != 1 || rc.preloaded != 1 || rc.bad != 3 || bad != 1 || first == "" {
		t.Fatalf("bottom %d preloaded %d bad %d unwritten %d (%q)", rc.bottom, rc.preloaded, rc.bad, bad, first)
	}
}

// TestClassifyKeepsErrorsOutOfAborts wraps causes the way the
// coordinator's abort path does: kv.ErrAborted and the cause both stay
// in the chain.
func TestClassifyKeepsErrorsOutOfAborts(t *testing.T) {
	aborted := func(cause error) error { return fmt.Errorf("%w (%w)", kv.ErrAborted, cause) }
	for _, c := range []struct {
		name string
		err  error
		want outcome
	}{
		{"conflict", aborted(errors.New("write lock refused")), outAbort},
		{"deadlock victim", aborted(kv.ErrDeadlock), outAbort},
		{"bare abort", kv.ErrAborted, outAbort},
		{"timeout", aborted(fmt.Errorf("rpc: %w", transport.ErrTimeout)), outError},
		{"unavailable", aborted(fmt.Errorf("dial: %w", transport.ErrUnavailable)), outError},
		{"closed", aborted(transport.ErrClosed), outError},
		{"deadline", aborted(context.DeadlineExceeded), outError},
		{"uncertain", fmt.Errorf("%w (%w)", kv.ErrUncertain, transport.ErrTimeout), outError},
		{"other", errors.New("boom"), outError},
	} {
		if got := classify(c.err); got != c.want {
			t.Errorf("%s: classify(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

// runResult is the benchmark's last output line.
type runResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, s := range specs {
		for _, trace := range []string{"0", "1"} {
			t.Run(s.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-workload", s.name, "-seed", "3", "-seconds", "0.4", "-trace", trace, "-out", t.TempDir()}
				if code := run(args, &out); code != 0 {
					t.Fatalf("exit code %d", code)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res runResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: present %v, unit %q, want %q", d.name, ok, m.Unit, d.unit)
					}
				}
				if trace == "0" {
					for _, d := range defs {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

// TestBenchmarkFileMatchesTheProgram keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the file, %d in the program", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: file has %q, program %q", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if !slices.Equal(got, want) {
			t.Errorf("%s metrics differ:\nfile    %v\nprogram %v", kind, got, want)
		}
	}
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end-to-end", e2e, endToEnd)
	check("per-layer", layer, perLayer)
}
