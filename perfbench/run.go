package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	spec    spec
	seed    int64
	measure time.Duration
	trace   bool
	clients int
}

// memSample is the part of runtime.MemStats a run reads.
type memSample struct {
	mallocs, totalAlloc uint64
	numGC               uint32
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{mallocs: m.Mallocs, totalAlloc: m.TotalAlloc, numGC: m.NumGC}
}

// cpuNs is the process's user plus system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// purgeSample is one purge the GC loop made; id is its span id when it
// ran in a traced window.
type purgeSample struct {
	start, end      int64
	versions, locks int64
	id              uint64
}

// windowSample is one measured window of a run.
type windowSample struct {
	phase      int32
	start, end int64
	mem0, mem1 memSample
	state      stateSample
}

// measurement is everything a run observed, before it becomes metrics.
type measurement struct {
	cfg        runConfig
	setupS     []float64
	clients    []*clientRun
	windows    []windowSample
	purges     []purgeSample
	purgeSpans offLog[span]
	start, end int64 // the measured interval
	cpu        int64
	mem0, mem1 memSample
	net        netTrace
	keys       int
	extraDraws int
	checks     checkResult
}

// checkResult is what the correctness checks found.
type checkResult struct {
	reads, bottomReads, preloadedReads int64
	violations                         int64
	firstViolation                     string
	historyTxns                        int
	historyErr                         error
}

func (r checkResult) ok() bool { return r.violations == 0 && r.historyErr == nil }

// checkClients runs the read check over one system's clients and frees
// their logs.
func checkClients(cs []*clientRun, r *checkResult) {
	var written, pending []uint64
	for _, c := range cs {
		written = c.writes.appendTo(written)
		pending = c.reads.pending.appendTo(pending)
		r.reads += int64(c.reads.pending.len()) + c.reads.bottom + c.reads.preloaded + c.reads.bad
		r.bottomReads += c.reads.bottom
		r.preloadedReads += c.reads.preloaded
		r.violations += c.reads.bad
		if r.firstViolation == "" {
			r.firstViolation = c.reads.first
		}
		c.writes.free()
		c.reads.pending.free()
	}
	bad, first := checkWritten(written, pending)
	r.violations += bad
	if r.firstViolation == "" {
		r.firstViolation = first
	}
}

// gcLoop purges the system every gcPeriod until stop is closed, as a
// deployment's timestamp service would.
type gcLoop struct {
	sys   system
	own   *owner
	phase *atomic.Int32
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once

	// Written by the loop only; read once it has ended.
	purges []purgeSample
	err    error
}

func startGC(sys system, own *owner, phase *atomic.Int32) *gcLoop {
	g := &gcLoop{sys: sys, own: own, phase: phase, stop: make(chan struct{}), done: make(chan struct{})}
	go g.run()
	return g
}

func (g *gcLoop) run() {
	defer close(g.done)
	tick := time.NewTicker(gcPeriod)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
		}
		var id uint64
		if g.own != nil && g.phase.Load() == phaseTraced {
			id = newSpanID()
			g.own.call.Store(id)
			g.own.traced.Store(true)
		}
		bound := time.Now().UnixMicro() - gcRetention.Microseconds()
		t0 := now()
		v, l, err := g.sys.purge(context.Background(), bound)
		t1 := now()
		if id != 0 {
			g.own.traced.Store(false)
			g.own.call.Store(0)
		}
		if err != nil && g.err == nil {
			g.err = fmt.Errorf("purge: %w", err)
		}
		g.purges = append(g.purges, purgeSample{start: t0, end: t1, versions: v, locks: l, id: id})
	}
}

// close stops the loop, waits for it and returns what it did. It may
// be called more than once.
func (g *gcLoop) close() ([]purgeSample, error) {
	g.once.Do(func() {
		close(g.stop)
		<-g.done
	})
	return g.purges, g.err
}

// A traced run measures in tracedWindows windows and traces every
// tracedEvery-th of them.
const (
	tracedWindows = 12
	tracedEvery   = 4
)

// An untraced run times set-up at least minSetups times and goes on
// until setupBudget is spent, so that the median of a set-up of a few
// milliseconds is steady; the last set-up is the one measured. A traced
// run sets up once.
const (
	minSetups   = 5
	setupBudget = time.Second
	maxSetups   = 400
)

// warmUp is how long the clients run before the measured window.
const warmUp = time.Second

// historyAttempts is how many attempts each client runs in the
// recorded history segment of a traced cell run. The serializability
// check grows with the square of the versions per key, so the segment
// has a fixed size rather than the run's length.
const historyAttempts = 400

// measureRun sets the system up, warms it, measures it and checks what
// it returned.
func measureRun(cfg runConfig) (*measurement, error) {
	ctx := context.Background()
	s := cfg.spec
	if s.shape.Keys >= maxKeys || cfg.clients > maxClient {
		return nil, fmt.Errorf("%d keys or %d clients exceed the value codec", s.shape.Keys, cfg.clients)
	}
	ks := newKeyspace(s.shape.Keys)
	plan := preloadPlan(ks, cfg.clients)
	m := &measurement{cfg: cfg, keys: s.shape.Keys}
	if cfg.trace && s.cell {
		if err := recordHistory(ctx, cfg, ks, plan, &m.checks); err != nil {
			return nil, err
		}
	}

	var (
		sys    system
		net    *netTracer
		owners []*owner
		spent  time.Duration
	)
	setups := minSetups
	if cfg.trace {
		setups = 1
	}
	for len(m.setupS) < setups || (!cfg.trace && spent < setupBudget && len(m.setupS) < maxSetups) {
		if sys != nil {
			sys.close()
		}
		sc := setupConfig{clients: cfg.clients, preload: plan}
		if cfg.trace {
			owners = make([]*owner, cfg.clients+1)
			for j := range owners {
				owners[j] = &owner{}
			}
			sc.owners = owners
			if s.cell {
				net = newNetTracer(transport.TCP{})
				sc.net = net
			}
		}
		t0 := time.Now()
		var err error
		sys, err = setUp(ctx, s, sc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		m.setupS = append(m.setupS, d.Seconds())
	}
	defer sys.close()

	var phase atomic.Int32
	var gcOwner *owner
	if cfg.trace {
		gcOwner = owners[cfg.clients]
	}
	for i := 0; i < cfg.clients; i++ {
		c := newClientRun(i+1, sys.db(i), s, ks,
			newStream(s, ks, streamSeed(cfg.seed, i, seedWarm)),
			newStream(s, ks, streamSeed(cfg.seed, i, seedMain)))
		if cfg.trace {
			c.own = owners[i]
		}
		m.clients = append(m.clients, c)
	}
	defer func() {
		for _, c := range m.clients {
			c.main.free()
		}
	}()

	gc := startGC(sys, gcOwner, &phase)
	defer gc.close()

	// Warm up on a stream of its own, then draw the measured stream
	// ahead at one and a half times the warm-up rate, so that drawing
	// costs nothing inside the timed window.
	phase.Store(phaseWarm)
	var stop atomic.Bool
	t0 := now()
	wait := startClients(ctx, m.clients, &phase, &stop)
	time.Sleep(warmUp)
	stop.Store(true)
	wait()
	warmS := float64(now()-t0) / 1e9
	for _, c := range m.clients {
		rate := float64(c.ph[phaseWarm].attempts) / warmS
		c.main.fill(int(math.Ceil(rate*cfg.measure.Seconds()*1.5)) + 1000)
	}
	runtime.GC()

	// Measure. A traced run traces every fourth window, so the tracing
	// overhead is measured against the same system state and the spans
	// kept stay a bounded share of the run.
	windows := 1
	if cfg.trace {
		windows = tracedWindows
	}
	stop.Store(false)
	phase.Store(phaseUntraced)
	m.mem0, m.cpu = readMem(), cpuNs()
	m.start = now()
	wait = startClients(ctx, m.clients, &phase, &stop)
	for w := 0; w < windows; w++ {
		if cfg.trace && w%tracedEvery == tracedEvery-1 {
			phase.Store(phaseTraced)
		}
		ws := windowSample{phase: phase.Load(), start: now(), mem0: readMem()}
		time.Sleep(cfg.measure / time.Duration(windows))
		ws.end, ws.mem1 = now(), readMem()
		phase.Store(phaseUntraced)
		if cfg.trace {
			st, err := sys.state(ctx)
			if err != nil {
				stop.Store(true)
				wait()
				return nil, fmt.Errorf("state: %w", err)
			}
			ws.state = st
		}
		m.windows = append(m.windows, ws)
	}
	stop.Store(true)
	wait()
	m.end = now()
	m.cpu = cpuNs() - m.cpu
	m.mem1 = readMem()
	var err error
	if m.purges, err = gc.close(); err != nil {
		return nil, err
	}
	for _, p := range m.purges {
		if p.id != 0 {
			m.purgeSpans.add(span{id: p.id, kind: kPurge, start: p.start, end: p.end})
		}
	}
	for _, c := range m.clients {
		m.extraDraws += c.main.extra
	}
	checkClients(m.clients, &m.checks)
	if net != nil {
		m.net = net.collect(gcOwner)
	}
	return m, nil
}

// recordHistory runs a fixed number of attempts per client on a cell of
// its own whose coordinators record every commit, then requires the
// recorded history to be serializable and the reads to be valid.
func recordHistory(ctx context.Context, cfg runConfig, ks *keyspace, plan [][]preloadTxn, r *checkResult) error {
	rec := &history.Recorder{}
	sys, err := setUp(ctx, cfg.spec, setupConfig{clients: cfg.clients, recorder: rec, preload: plan})
	if err != nil {
		return fmt.Errorf("history set-up: %w", err)
	}
	defer sys.close()
	var phase atomic.Int32
	gc := startGC(sys, nil, &phase)
	var cs []*clientRun
	var wg sync.WaitGroup
	for i := 0; i < cfg.clients; i++ {
		c := newClientRun(i+1, sys.db(i), cfg.spec, ks, newStream(cfg.spec, ks, streamSeed(cfg.seed, i, seedHistory)), nil)
		cs = append(cs, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.runN(ctx, historyAttempts)
		}()
	}
	wg.Wait()
	if _, err := gc.close(); err != nil {
		return err
	}
	checkClients(cs, r)
	r.historyTxns = rec.Len()
	r.historyErr = rec.Check()
	return nil
}

// preloadPlan gives client i every key index congruent to i, written in
// transactions of up to 100 keys, each with its preloaded value.
func preloadPlan(ks *keyspace, clients int) [][]preloadTxn {
	const perTxn = 100
	plan := make([][]preloadTxn, clients)
	for i := range plan {
		var cur preloadTxn
		for k := i; k < len(ks.names); k += clients {
			v := make([]byte, valueSize)
			putCode(v, valueCode(0, 0, int32(k)))
			cur.keys = append(cur.keys, ks.names[k])
			cur.values = append(cur.values, v)
			if len(cur.keys) == perTxn || k+clients >= len(ks.names) {
				plan[i] = append(plan[i], cur)
				cur = preloadTxn{}
			}
		}
	}
	return plan
}

// Generator streams of one client.
const (
	seedMain = iota
	seedWarm
	seedHistory
)

// streamSeed derives a client's generator seed from the run seed.
// splitmix64 is a bijection, so distinct (seed, client, stream) inputs
// with seeds below 2^53 give distinct generator seeds.
func streamSeed(seed int64, client, stream int) int64 {
	x := uint64(seed)<<10 | uint64(client)<<2 | uint64(stream)
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int64(x ^ x>>31)
}
