package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the pipeline sees, reported by every
// workload from its untraced run. What a "request" and a "unit of work" are
// depends on the workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
}

// Inputs the per-layer catalogue enumerates.
var (
	// reportSections are the RunAll sections in report order, keyed by
	// their header text.
	reportSections = []struct{ header, id string }{
		{"Table 1", "table1"},
		{"Figure 3", "fig3"},
		{"Figure 4", "fig4"},
		{"Figure 6", "fig6"},
		{"Figure 7", "fig7"},
		{"Figure 8", "fig8"},
		{"Figure 9 / Equation 2", "fig9"},
		{"Equation 3", "eq3"},
		{"Figure 10", "fig10"},
		{"Figure 11", "fig11"},
		{"Figure 12", "fig12"},
		{"Table 2", "table2"},
		{"Figure 13", "fig13"},
		{"Equation 4", "eq4"},
		{"Figure 14", "fig14"},
		{"Figure 15", "fig15"},
		{"Section 5.3", "sec53"},
		{"Extension: multiprogramming", "multiprog"},
		{"Extension: cost-model sensitivity", "sensitivity"},
		{"Extension: design-choice ablations", "ablations"},
		{"Appendix: per-benchmark crossover at pressure 10", "appendix"},
	}
	replayPolicies  = []string{"fifo", "8-unit", "flush", "lru", "adaptive", "preemptive", "generational/8"}
	replayPressures = []int{2, 10}
	translateGroups = []string{"table2-chain", "table2-nochain", "large-128k", "large-4k"}
	servePhases     = []string{"capacity", "8m", "16m", "churn"}
)

// metricPolicy turns a policy name into a metric-name component.
func metricPolicy(p string) string { return strings.ReplaceAll(p, "/", "-") }

// perLayer is the catalogue of per-layer metrics, reported by every
// workload from its traced run. A workload that does not exercise a layer
// reports 0 for it, so every per-layer time is a cost per operation
// (ns/acc, s/report, ...) or a share, never a bare duration.
func perLayer() []metricDef {
	defs := []metricDef{
		{"trace_overhead_frac", "frac"},
		{"unattributed_frac", "frac"},
		{"process.max_rss_mb", "MB"},
		{"workload.synthesize_s", "s/setup"},
		{"trace.encode_s", "s/setup"},
		{"program.generate_s", "s/setup"},
		{"service.build_s", "s/setup"},
	}
	for _, s := range reportSections {
		defs = append(defs, metricDef{"experiments." + s.id + "_s", "s/report"})
	}
	defs = append(defs, metricDef{"report.render_s", "s/report"})
	for _, pol := range replayPolicies {
		for _, p := range replayPressures {
			defs = append(defs, metricDef{fmt.Sprintf("sim.run_ns_per_acc.%s.p%d", metricPolicy(pol), p), "ns/acc"})
		}
	}
	defs = append(defs,
		metricDef{"trace.stream_decode_ns_per_acc", "ns/acc"},
		metricDef{"sim.runstream_ns_per_acc", "ns/acc"},
		metricDef{"core.misses", "count"},
		metricDef{"core.evictions", "count"},
		metricDef{"core.blocks_evicted", "count"},
		metricDef{"core.links_unpatched", "count"},
	)
	for _, g := range translateGroups {
		defs = append(defs, metricDef{"dbt.run_ns_per_inst." + g, "ns/inst"})
	}
	defs = append(defs,
		metricDef{"dbt.superblocks_formed", "count"},
		metricDef{"dbt.traps", "count"},
		metricDef{"dbt.stubs_patched", "count"},
		metricDef{"dbt.stubs_unpatched", "count"},
		metricDef{"dbt.cache_inst_frac", "frac"},
	)
	for _, ph := range servePhases {
		defs = append(defs,
			metricDef{"service.replay_batch_us_p50." + ph, "us/call"},
			metricDef{"service.replay_batch_us_p99." + ph, "us/call"},
			metricDef{"service.rejects." + ph, "count"},
		)
	}
	for _, ph := range servePhases[1:] {
		defs = append(defs,
			metricDef{"serve.latency_ms_p50." + ph, "ms/req"},
			metricDef{"serve.latency_ms_p99." + ph, "ms/req"},
		)
	}
	return append(defs,
		metricDef{"serve.capacity_macc_s", "Macc/s"},
		metricDef{"serve.gen_late_ms_p50", "ms/req"},
		metricDef{"serve.gen_late_ms_p99", "ms/req"},
		metricDef{"service.migrate_ms_p50", "ms/op"},
		metricDef{"service.migrate_ms_max", "ms/op"},
		metricDef{"service.flip_pause_max_ms", "ms/op"},
		metricDef{"service.check_consistency_ms", "ms/op"},
		metricDef{"service.shard_imbalance", "ratio"},
	)
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills a result from measured values: every catalogue metric
// must be present in vals (a missing one is a bug in the workload).
func newResult(defs []metricDef, vals map[string]float64, attempted, failed int) (*result, error) {
	r := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
	}
	return r, nil
}

// print writes one "name value unit" line per metric, in name order, then
// the result as a single JSON line.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %s\n", n, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", r.Attempted, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
