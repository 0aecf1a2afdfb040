package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"dynocache/internal/stats"
)

// env is one workload run's settings.
type env struct {
	seed    uint64
	seconds time.Duration // measurement time of one run
	quick   bool          // smoke-test scale
	root    string        // repository root (holds the committed reports)
	log     io.Writer     // gate failures and progress notes
}

// measurement is what one measured run observed.
type measurement struct {
	// latencies holds one sample per request, in milliseconds. A request
	// is what a user of the workload waits for (README.md).
	latencies []float64
	// windows, when set, groups the latencies by when they completed;
	// the latency metrics are then medians over windows (see latency).
	windows [][]float64
	// tailQ is the workload's tail percentile of latencies: the highest
	// that has at least ten samples beyond it and repeats between runs (1,
	// the maximum, when no percentile has ten samples beyond it).
	tailQ float64
	// throughput is units of work completed per host second.
	throughput float64
	// attempted/failed count operations; gate failures count as failed.
	attempted, failed int
}

// fail records a failed operation and says why.
func (m *measurement) fail(e *env, format string, args ...any) {
	m.failed++
	fmt.Fprintf(e.log, "FAIL: "+format+"\n", args...)
}

// runner is one benchmark workload.
type runner interface {
	// setup builds the inputs from the seed, replacing earlier ones. Its
	// layer calls are traced under parent.
	setup(e *env, tr *tracer, parent int64) error
	// measure runs the workload for e.seconds; layer calls are traced
	// under root.
	measure(e *env, tr *tracer, root int64) (*measurement, error)
	// verify runs the correctness gates that need no timing, counting
	// each check as an attempted operation of m.
	verify(e *env, m *measurement) error
	// layers derives the per-layer metrics from a traced measurement.
	layers(sum map[string]*spanStats, m *measurement) map[string]float64
	// counts returns exact counts that must not depend on timing or
	// GOMAXPROCS: one set-up plus one operation.
	counts(e *env) (map[string]uint64, error)
	close()
}

var workloadNames = []string{"reproduce", "replay", "translate", "serve"}

func newWorkload(name string) (runner, error) {
	switch name {
	case "reproduce":
		return &reproduce{}, nil
	case "replay":
		return &replay{}, nil
	case "translate":
		return &translate{}, nil
	case "serve":
		return &serve{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// setupRepeats is how many times set-up runs per run; setup_s is the
// median.
const setupRepeats = 3

// setupSpans maps each set-up layer span name to its per-layer metric.
var setupSpans = map[string]string{
	"workload.synthesize": "workload.synthesize_s",
	"trace.encode":        "trace.encode_s",
	"program.generate":    "program.generate_s",
	"service.build":       "service.build_s",
}

// runWorkload runs one workload in this process: set-up several times,
// then the measurement, then the correctness gates. Untraced, it returns
// the end-to-end metrics. Traced, it measures for half the time untraced,
// as the reference, and for half with spans, writes the spans to spanDir
// and returns the per-layer metrics.
func runWorkload(name string, e *env, traced bool, spanDir string) (*result, error) {
	wl, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	defer wl.close()
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	setups := make([]float64, 0, setupRepeats)
	setupIDs := make(map[int64]bool)
	for i := 0; i < setupRepeats; i++ {
		releaseMemory()
		id := tr.begin("bench.setup", 0, int64(i))
		setupIDs[id] = true
		t0 := time.Now()
		err := wl.setup(e, tr, id)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
	}
	releaseMemory()

	if !traced {
		m, err := wl.measure(e, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := wl.verify(e, m); err != nil {
			return nil, fmt.Errorf("%s: verify: %w", name, err)
		}
		p50, tail := m.latency()
		return newResult(endToEnd, map[string]float64{
			"setup_s":         stats.Median(setups),
			"throughput":      m.throughput,
			"latency_p50_ms":  p50,
			"latency_tail_ms": tail,
		}, m.attempted, m.failed)
	}

	// The reference and the traced measurement share the run's time.
	half := *e
	half.seconds /= 2
	e = &half
	ref, err := wl.measure(e, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	// The reference run may have consumed state (serve migrates tenants):
	// the traced run starts from a fresh set-up, which is not traced.
	if err := wl.setup(e, nil, 0); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	releaseMemory()
	root := tr.begin("bench."+name, 0, 0)
	m, err := wl.measure(e, tr, root)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := wl.verify(e, m); err != nil {
		return nil, fmt.Errorf("%s: verify: %w", name, err)
	}
	m.attempted += ref.attempted
	m.failed += ref.failed
	if tr.dropped > 0 {
		return nil, fmt.Errorf("%s: span log full, %d spans dropped", name, tr.dropped)
	}

	sum := tr.summarize()
	vals := wl.layers(sum, m)
	if vals["process.max_rss_mb"], err = maxRSSMB(); err != nil {
		return nil, err
	}
	vals["trace_overhead_frac"] = ref.throughput/m.throughput - 1
	if vals["unattributed_frac"], err = tr.unattributed(root); err != nil {
		return nil, err
	}
	for _, s := range tr.spans {
		if metric, ok := setupSpans[s.Name]; ok && setupIDs[s.Parent] {
			vals[metric] += float64(s.End-s.Start) / 1e9 / setupRepeats
		}
	}
	// Layers this workload does not exercise report 0.
	for _, d := range perLayer() {
		if _, ok := vals[d.name]; !ok {
			vals[d.name] = 0
		}
	}
	path, err := tr.write(spanDir, name)
	if err != nil {
		return nil, fmt.Errorf("%s: writing spans: %w", name, err)
	}
	fmt.Fprintf(e.log, "%s: %d spans written to %s\n", name, len(tr.spans), path)
	return newResult(perLayer(), vals, m.attempted, m.failed)
}

// releaseMemory returns garbage from earlier set-ups to the OS so the
// peak RSS reflects one live set of inputs.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// maxRSSMB is the process's peak resident set size (VmHWM) in MiB.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// latency returns the median and the tail latency, over all samples or,
// when the workload grouped them into windows, the median over windows of
// each window's median and tail: a host stall that spoils one window then
// moves one sample of each, not the estimate.
func (m *measurement) latency() (p50, tail float64) {
	if m.windows == nil {
		return stats.Median(m.latencies), stats.Quantile(m.latencies, m.tailQ)
	}
	var p50s, tails []float64
	for _, w := range m.windows {
		if len(w) == 0 {
			continue
		}
		p50s = append(p50s, stats.Median(w))
		tails = append(tails, stats.Quantile(w, m.tailQ))
	}
	return stats.Median(p50s), stats.Median(tails)
}

// callTimes collects the time of each call of a fixed call sequence that
// a workload repeats pass after pass.
type callTimes [][]float64

// add records the i-th call of a pass.
func (c *callTimes) add(i int, d time.Duration) {
	for len(*c) <= i {
		*c = append(*c, nil)
	}
	(*c)[i] = append((*c)[i], d.Seconds())
}

// pass estimates the time of one pass as the sum of each call's median:
// a burst of host noise during one call then moves one sample, not the
// estimate.
func (c callTimes) pass() float64 {
	var sum float64
	for _, xs := range c {
		sum += stats.Median(xs)
	}
	return sum
}

// check reports a gate failure on m when ok is false.
func (m *measurement) check(e *env, ok bool, format string, args ...any) {
	m.attempted++
	if !ok {
		m.fail(e, format, args...)
	}
}
