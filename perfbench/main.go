// Command perfbench is the repository's benchmark. It runs one named
// workload as a seeded closed loop in a single process and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) as the
// last line of its output:
//
//	bash perfbench/run.sh --workload cell-point --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer each per-layer metric is expected to move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// deadline bounds a whole run; past it the process exits without a
// result rather than hang.
const deadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fl.String("out", ".bench_build", "directory for reports and span files")
	rev := fl.String("rev", "none", "git revision (provenance)")
	command := fl.String("command", "", "command line that started the run (provenance)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	s, ok := findSpec(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds > 0, -trace 0|1\n", specNames())
		return 2
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	cfg := runConfig{
		spec:    s,
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		clients: runtime.NumCPU(),
	}
	m, err := measureRun(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
		return 1
	}

	defs, values := endToEnd, map[string]float64(nil)
	if cfg.trace {
		defs, values = perLayer, layerMetrics(m)
	} else {
		values = endToEndMetrics(m)
	}
	rep := report(m, *rev, *command)
	rep["metrics"] = values
	base := fmt.Sprintf("%s-seed%d-trace%d", s.name, *seed, *trace)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(*out, base+".spans.tsv.gz")
		if err := writeSpans(path, m.spanLogs()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
			return 1
		}
		rep["spans_file"] = path
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join(*out, base+".json"), append(line, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	correct := m.checks.ok()
	all := m.measured()
	result := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: correct, Attempted: all.attempts, Failed: all.errors, Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", d.name, v)
			return 1
		}
		result.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	last, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result: %v\n", err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "%s\n%s\n", line, last)
	if err := w.Flush(); err != nil {
		return 1
	}
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: correctness check failed: %d bad reads (%s); history: %v\n", m.checks.violations, m.checks.firstViolation, m.checks.historyErr)
		return 1
	}
	return 0
}

func specNames() string {
	var ns []string
	for _, s := range specs {
		ns = append(ns, s.name)
	}
	return strings.Join(ns, ", ")
}

// spanLogs lists every span log of a traced run.
func (m *measurement) spanLogs() spanLogs {
	var ls spanLogs
	for _, c := range m.clients {
		ls = append(ls, &c.spans)
	}
	ls = append(ls, m.net.spans...)
	ls = append(ls, m.net.gcSpans...)
	return append(ls, &m.purgeSpans)
}

// report is the run's provenance, traffic shape, outcome counts and
// correctness results. It is printed before the result line and kept
// in the output directory.
func report(m *measurement, rev, command string) map[string]any {
	all := m.measured()
	attempts := float64(all.attempts)
	hits := make([]int64, m.keys)
	for _, c := range m.clients {
		for k, h := range c.hits {
			hits[k] += h
		}
	}
	distinct := 0
	for _, h := range hits {
		if h > 0 {
			distinct++
		}
	}
	slices.Sort(hits)
	var top10 int64
	for _, h := range hits[max(0, len(hits)-10):] {
		top10 += h
	}
	var firstErr string
	for _, c := range m.clients {
		if c.firstErr != nil && firstErr == "" {
			firstErr = c.firstErr.Error()
		}
	}
	var historyErr string
	if m.checks.historyErr != nil {
		historyErr = m.checks.historyErr.Error()
	}
	lat := m.latencies(phaseUntraced)
	return map[string]any{
		"workload": m.cfg.spec.name,
		"why":      m.cfg.spec.why,
		"provenance": map[string]any{
			"git_revision": rev,
			"command":      command,
			"seed":         m.cfg.seed,
			"go_version":   runtime.Version(),
			"nproc":        runtime.NumCPU(),
			"gomaxprocs":   runtime.GOMAXPROCS(0),
			"cpu_model":    cpuModel(),
			"time":         time.Now().UTC().Format(time.RFC3339),
		},
		"load": map[string]any{
			"clients":         m.cfg.clients,
			"loop":            "closed",
			"measured_s":      float64(m.end-m.start) / 1e9,
			"warm_s":          warmUp.Seconds(),
			"setups":          len(m.setupS),
			"setup_s_min":     slices.Min(m.setupS),
			"setup_s_max":     slices.Max(m.setupS),
			"gc_period_ms":    gcPeriod.Milliseconds(),
			"gc_retention_ms": gcRetention.Milliseconds(),
			"purges":          len(m.purges),
			"draws_in_window": m.extraDraws,
			"latency_samples": len(lat),
		},
		"latency_ms": map[string]any{
			"p50": float64(percentile(lat, 0.50)) / 1e6,
			"p90": float64(percentile(lat, 0.90)) / 1e6,
			"p99": float64(percentile(lat, 0.99)) / 1e6,
		},
		"traffic": map[string]any{
			"ops_per_attempt":    ratio(float64(all.ops), attempts),
			"writes_per_attempt": ratio(float64(all.writes), attempts),
			"distinct_keys":      distinct,
			"top10_key_op_share": ratio(float64(top10), float64(all.ops)),
			"getmulti_txn_share": ratio(float64(all.getMulti), attempts),
		},
		"outcomes": map[string]any{
			"attempts":         all.attempts,
			"commits":          all.commits,
			"clean_aborts":     all.aborts,
			"errors":           all.errors,
			"error_rate":       ratio(float64(all.errors), attempts),
			"aborts_at_read":   all.abortsAt[atRead],
			"aborts_at_write":  all.abortsAt[atWrite],
			"aborts_at_commit": all.abortsAt[atCommit],
			"first_error":      firstErr,
		},
		"checks": map[string]any{
			"reads":           m.checks.reads,
			"bottom_reads":    m.checks.bottomReads,
			"preloaded_reads": m.checks.preloadedReads,
			"read_violations": m.checks.violations,
			"first_violation": m.checks.firstViolation,
			"history_txns":    m.checks.historyTxns,
			"history_error":   historyErr,
			"unpaired_conns":  m.net.unpaired,
		},
	}
}

// cpuModel reads the processor model name, or says it is unknown.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
