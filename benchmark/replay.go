package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"time"

	"dynocache/internal/core"
	"dynocache/internal/sim"
	"dynocache/internal/trace"
	"dynocache/internal/workload"
)

// replay drives the single-configuration kernels (sim.Run, and
// sim.RunStream over an encoded buffer) on the largest SPEC trace (gcc)
// and the largest Windows trace (word), across the policy zoo at a
// hit-dominated pressure (2) and an eviction-dominated one (10).
type replay struct {
	profiles []workload.Profile // seeded, at full scale
	traces   []*trace.Trace
	encoded  [][]byte
	configs  []replayConfig
	streams  []replayConfig // the subset also replayed through RunStream
	// first holds the first measured pass's Stats per (trace, config), the
	// reference every later pass and path must equal.
	first  [][]core.Stats
	passes int
}

type replayConfig struct {
	policy   core.Policy
	pressure int
	span     string // span name, also the per-layer metric key
	metric   string
}

// replayTraces are the replayed Table 1 benchmarks: the largest trace of
// each suite, so the pair stands for both.
var replayTraces = []string{"gcc", "word"}

// seededProfile returns the Table 1 profile with its synthesis seed mixed
// with the benchmark seed.
func seededProfile(name string, seed uint64) (workload.Profile, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return p, err
	}
	p.Seed ^= seed << 32
	return p, nil
}

func (r *replay) setup(e *env, tr *tracer, parent int64) error {
	r.profiles, r.traces, r.encoded, r.first = nil, nil, nil, nil
	for _, name := range replayTraces {
		p, err := seededProfile(name, e.seed)
		if err != nil {
			return err
		}
		r.profiles = append(r.profiles, p)
		id := tr.begin("workload.synthesize", parent, 0)
		var t *trace.Trace
		if e.quick {
			t, err = oracleTrace(p)
		} else {
			t, err = p.Synthesize()
		}
		tr.end(id)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		id = tr.begin("trace.encode", parent, 0)
		err = t.Write(&buf)
		tr.end(id)
		if err != nil {
			return err
		}
		r.traces = append(r.traces, t)
		r.encoded = append(r.encoded, buf.Bytes())
	}
	r.configs = nil
	for _, p := range replayPressures {
		for _, name := range replayPolicies {
			pol, err := core.ParsePolicy(name)
			if err != nil {
				return err
			}
			r.configs = append(r.configs, replayConfig{
				policy: pol, pressure: p,
				span:   fmt.Sprintf("sim.Run %s p%d", name, p),
				metric: fmt.Sprintf("sim.run_ns_per_acc.%s.p%d", metricPolicy(name), p),
			})
		}
	}
	// FIFO at the hit-dominated pressure, 8-unit at the eviction-dominated
	// one.
	r.streams = []replayConfig{r.configs[0], r.configs[len(replayPolicies)+1]}
	return nil
}

func (r *replay) measure(e *env, tr *tracer, root int64) (*measurement, error) {
	m := &measurement{tailQ: 0.95}
	r.first, r.passes = nil, 0
	var accPerPass float64
	for _, t := range r.traces {
		accPerPass += float64(len(t.Accesses) * (len(r.configs) + len(r.streams)))
	}
	var times callTimes
	deadline := time.Now().Add(e.seconds)
	for r.passes == 0 || time.Now().Before(deadline) {
		id := tr.begin("bench.pass", root, int64(r.passes))
		got, err := r.pass(e, m, &times, tr, id, int64(r.passes))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if r.first == nil {
			r.first = got
		} else {
			m.check(e, reflect.DeepEqual(got, r.first), "replay pass %d: Stats differ from the first pass", r.passes)
		}
		r.passes++
	}
	m.throughput = accPerPass / times.pass()
	return m, nil
}

// pass replays every configuration on every trace once, then decodes each
// encoded trace alone and through RunStream. Every replay is a request.
func (r *replay) pass(e *env, m *measurement, times *callTimes, tr *tracer, parent, req int64) ([][]core.Stats, error) {
	out := make([][]core.Stats, len(r.traces))
	call := 0
	timed := func(start time.Time, request bool) {
		d := time.Since(start)
		times.add(call, d)
		call++
		if request {
			m.latencies = append(m.latencies, d.Seconds()*1e3)
		}
	}
	for ti, t := range r.traces {
		for _, c := range r.configs {
			id := tr.begin(c.span, parent, req)
			t0 := time.Now()
			res, err := sim.Run(t, c.policy, c.pressure, sim.Options{})
			timed(t0, true)
			tr.end(id)
			m.attempted++
			if err != nil {
				return nil, fmt.Errorf("sim.Run %s %s: %w", t.Name, c.span, err)
			}
			out[ti] = append(out[ti], res.Stats)
		}

		id := tr.begin("trace.decode", parent, req)
		t0 := time.Now()
		n, err := decodeAll(r.encoded[ti])
		timed(t0, false)
		tr.end(id)
		m.attempted++
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", t.Name, err)
		}
		m.check(e, n == len(t.Accesses), "%s: stream decoded %d accesses, trace has %d", t.Name, n, len(t.Accesses))

		for _, c := range r.streams {
			id := tr.begin("sim.RunStream", parent, req)
			t0 := time.Now()
			st, err := trace.NewStream(bytes.NewReader(r.encoded[ti]))
			var res *sim.Result
			if err == nil {
				res, err = sim.RunStream(st, c.policy, c.pressure, sim.Options{})
			}
			timed(t0, true)
			tr.end(id)
			m.attempted++
			if err != nil {
				return nil, fmt.Errorf("sim.RunStream %s %s: %w", t.Name, c.span, err)
			}
			m.check(e, res.Stats == r.statsFor(out[ti], c), "%s %s: RunStream Stats differ from Run", t.Name, c.span)
		}
	}
	return out, nil
}

// statsFor finds a configuration's Stats in one trace's pass results.
func (r *replay) statsFor(stats []core.Stats, c replayConfig) core.Stats {
	for i, rc := range r.configs {
		if rc.span == c.span {
			return stats[i]
		}
	}
	panic("replay: unknown configuration " + c.span)
}

// decodeAll decodes an encoded trace's access stream without replaying
// it, returning the number of accesses.
func decodeAll(enc []byte) (int, error) {
	st, err := trace.NewStream(bytes.NewReader(enc))
	if err != nil {
		return 0, err
	}
	defer st.Close()
	buf := trace.GetAccessBuf()
	defer trace.PutAccessBuf(buf)
	total := 0
	for {
		n, err := st.Next(buf)
		total += n
		if errors.Is(err, io.EOF) {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// oracleTrace synthesizes a small copy of p for the verified replay: the
// oracle and invariant wall make a full-scale replay take minutes. The
// copy starts at 2% of Table 1 scale and doubles until the pressure-10
// cache is at least twice its largest superblock; on smaller copies the
// generational policy's tenured space (3/4 of the cache) can be smaller
// than that block, and the replay fails.
func oracleTrace(p workload.Profile) (*trace.Trace, error) {
	for scale := 0.02; ; scale *= 2 {
		t, err := p.Scaled(scale).Synthesize()
		if err != nil || scale >= 1 {
			return t, err
		}
		largest := 0
		for _, sb := range t.Blocks {
			largest = max(largest, sb.Size)
		}
		if t.TotalBytes()/replayPressures[len(replayPressures)-1] >= 2*largest {
			return t, nil
		}
	}
}

func (r *replay) verify(e *env, m *measurement) error {
	// The single-pass kernel must agree with Run on every FIFO-family
	// configuration.
	for ti, t := range r.traces {
		var cfgs []sim.SweepConfig
		var idx []int
		for i, c := range r.configs {
			switch c.policy.Kind {
			case core.PolicyFlush, core.PolicyUnits, core.PolicyFine:
				cfgs = append(cfgs, sim.SweepConfig{Policy: c.policy, Pressure: c.pressure})
				idx = append(idx, i)
			}
		}
		res, err := sim.RunConfigs(t, cfgs, sim.Options{})
		if err != nil {
			return fmt.Errorf("sim.RunConfigs %s: %w", t.Name, err)
		}
		for k, i := range idx {
			m.check(e, res[k].Stats == r.first[ti][i], "%s %s: RunConfigs Stats differ from Run", t.Name, r.configs[i].span)
		}
	}
	// Oracle check on a small copy of each seeded trace: every policy
	// replays under the invariant wall and oracle differ, and must match
	// the plain replay.
	for _, p := range r.profiles {
		small, err := oracleTrace(p)
		if err != nil {
			return err
		}
		for _, c := range r.configs {
			plain, err := sim.Run(small, c.policy, c.pressure, sim.Options{})
			if err != nil {
				return err
			}
			checked, err := sim.Run(small, c.policy, c.pressure, sim.Options{Verify: true})
			m.check(e, err == nil, "%s %s: verified replay: %v", small.Name, c.span, err)
			if err == nil {
				m.check(e, checked.Stats == plain.Stats, "%s %s: verified replay Stats differ", small.Name, c.span)
			}
		}
	}
	return nil
}

func (r *replay) layers(sum map[string]*spanStats, m *measurement) map[string]float64 {
	vals := make(map[string]float64)
	var accPerConfig float64
	for _, t := range r.traces {
		accPerConfig += float64(len(t.Accesses))
	}
	perAcc := func(name string, runsPerPass int) float64 {
		st := sum[name]
		if st == nil {
			return 0
		}
		return float64(st.total.Nanoseconds()) / (accPerConfig * float64(runsPerPass*r.passes))
	}
	for _, c := range r.configs {
		vals[c.metric] = perAcc(c.span, 1)
	}
	vals["trace.stream_decode_ns_per_acc"] = perAcc("trace.decode", 1)
	vals["sim.runstream_ns_per_acc"] = perAcc("sim.RunStream", len(r.streams))
	var tot core.Stats
	for _, per := range r.first {
		for _, s := range per {
			tot.Misses += s.Misses
			tot.EvictionInvocations += s.EvictionInvocations
			tot.BlocksEvicted += s.BlocksEvicted
			tot.InterUnitLinksRemoved += s.InterUnitLinksRemoved
		}
	}
	vals["core.misses"] = float64(tot.Misses)
	vals["core.evictions"] = float64(tot.EvictionInvocations)
	vals["core.blocks_evicted"] = float64(tot.BlocksEvicted)
	vals["core.links_unpatched"] = float64(tot.InterUnitLinksRemoved)
	return vals
}

func (r *replay) counts(e *env) (map[string]uint64, error) {
	if err := r.setup(e, nil, 0); err != nil {
		return nil, err
	}
	m := &measurement{}
	got, err := r.pass(e, m, &callTimes{}, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	if m.failed > 0 {
		return nil, fmt.Errorf("replay: %d checks failed", m.failed)
	}
	out := make(map[string]uint64)
	for ti, t := range r.traces {
		for i, c := range r.configs {
			s := got[ti][i]
			key := t.Name + " " + c.span
			out[key+" misses"] = s.Misses
			out[key+" evictions"] = s.EvictionInvocations
			out[key+" blocks_evicted"] = s.BlocksEvicted
			out[key+" links_unpatched"] = s.InterUnitLinksRemoved
		}
	}
	return out, nil
}

func (r *replay) close() {}
