// Command benchmark is dynocache's end-to-end benchmark. It runs four
// workloads — reproduce (the paper report), replay (single-configuration
// simulation), translate (the full DBT) and serve (the sharded tenant
// service) — and prints every metric as "name value unit", then a JSON
// result line. It exits non-zero when a correctness gate fails.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh [flags]
//
//	-workload name   run one workload in this process (default: all four,
//	                 each in its own child process)
//	-seed n          input seed (default 1)
//	-seconds s       measurement time per workload (default 15)
//	-trace 0|1       1: per-layer metrics from a traced run; spans are
//	                 written to -out/spans-<workload>.jsonl
//	-repeat n        run every workload n times, alternating the order,
//	                 and print median, quartiles and sample count
//	-compare a b     compare two -repeat sample files metric by metric
//	-determinism     check that exact counts agree at GOMAXPROCS 1 and 2
//
// See README.md for the workloads, the metrics and how to read the spans.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynocache/internal/stats"
)

// options are the command-line settings.
type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	out         string
	root        string
	quick       bool
	repeat      int
	compare     bool
	determinism bool
	args        []string
}

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func parseFlags(args []string, errOut io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "measurement time per workload run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/spans", "directory for span files")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.BoolVar(&o.quick, "quick", false, "smoke-test scale: tiny inputs, quick report")
	fs.IntVar(&o.repeat, "repeat", 0, "run every workload this many times, alternating the order")
	fs.BoolVar(&o.compare, "compare", false, "compare two -repeat sample files: -compare base.json change.json")
	fs.BoolVar(&o.determinism, "determinism", false, "check exact counts at GOMAXPROCS 1 and 2")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.args = fs.Args()
	switch {
	case o.trace != 0 && o.trace != 1:
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	case o.seconds <= 0:
		return nil, fmt.Errorf("-seconds must be positive")
	case o.compare && len(o.args) != 2:
		return nil, fmt.Errorf("-compare needs two sample files")
	case !o.compare && len(o.args) > 0:
		return nil, fmt.Errorf("unexpected arguments %v", o.args)
	}
	return o, nil
}

// run executes the command and returns the exit code.
func run(args []string, out, errOut io.Writer) (int, error) {
	o, err := parseFlags(args, errOut)
	if err != nil {
		return 2, err
	}
	switch {
	case o.compare:
		return compare(o, out)
	case o.workload != "" && o.determinism:
		return determinism(o, out, errOut)
	case o.workload != "":
		e := &env{seed: o.seed, seconds: time.Duration(o.seconds * float64(time.Second)), quick: o.quick, root: o.root, log: errOut}
		fmt.Fprintf(out, "workload %s seed %d GOMAXPROCS %d\n", o.workload, o.seed, runtime.GOMAXPROCS(0))
		res, err := runWorkload(o.workload, e, o.trace == 1, o.out)
		if err != nil {
			return 1, err
		}
		if err := res.print(out); err != nil {
			return 1, err
		}
		if !res.Correct {
			return 1, nil
		}
		return 0, nil
	}
	return runChildren(o, out)
}

// childArgs are the flags a child process gets for one workload.
func childArgs(o *options, workload string) []string {
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace),
		"-out", o.out,
		"-root", o.root,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.determinism {
		args = append(args, "-determinism")
	}
	return args
}

// runChild runs one workload in a child process, copies its output and
// returns its result line (nil in determinism mode).
func runChild(o *options, workload string, out io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, childArgs(o, workload)...)
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(buf.String(), "\n")
	last := text[strings.LastIndex(text, "\n")+1:]
	var res *result
	if !o.determinism && strings.HasPrefix(last, "{") {
		res = &result{}
		if err := json.Unmarshal([]byte(last), res); err != nil {
			return nil, fmt.Errorf("%s: bad result line: %w", workload, err)
		}
		text = strings.TrimSuffix(text, last)
	}
	fmt.Fprintln(out, strings.TrimRight(text, "\n"))
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", workload, runErr)
	}
	if res == nil && !o.determinism {
		return nil, fmt.Errorf("%s: no result line", workload)
	}
	return res, nil
}

// runChildren runs every workload, each in its own child process: once,
// or -repeat times with the order alternating between rounds.
func runChildren(o *options, out io.Writer) (int, error) {
	rounds := max(o.repeat, 1)
	samples := make(map[string]map[string][]float64)
	units := make(map[string]string)
	all := &result{Correct: true, Metrics: make(map[string]metricValue)}
	var failures []string
	for round := 0; round < rounds; round++ {
		order := append([]string(nil), workloadNames...)
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			res, err := runChild(o, w, out)
			if err != nil {
				failures = append(failures, err.Error())
			}
			if res == nil {
				continue
			}
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			if samples[w] == nil {
				samples[w] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				samples[w][name] = append(samples[w][name], m.Value)
				units[name] = m.Unit
				all.Metrics[w+"."+name] = m
			}
		}
	}
	if o.determinism {
		if len(failures) > 0 {
			return 1, errors.New(strings.Join(failures, "; "))
		}
		fmt.Fprintln(out, "determinism: exact counts agree at GOMAXPROCS 1 and 2 on every workload")
		return 0, nil
	}
	if o.repeat > 0 {
		printSummary(out, samples, units)
		line, err := json.Marshal(sampleFile{Seed: o.seed, Samples: samples})
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(out, "%s\n", line)
	} else if err := all.print(out); err != nil {
		return 1, err
	}
	if len(failures) > 0 {
		return 1, errors.New(strings.Join(failures, "; "))
	}
	if !all.Correct {
		return 1, nil
	}
	return 0, nil
}

// sampleFile is the last line of a -repeat run and the input of -compare.
type sampleFile struct {
	Seed    uint64                          `json:"seed"`
	Samples map[string]map[string][]float64 `json:"samples"`
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printSummary(out io.Writer, samples map[string]map[string][]float64, units map[string]string) {
	fmt.Fprintf(out, "%-10s %-40s %14s %14s %14s %3s %s\n", "workload", "metric", "median", "q1", "q3", "n", "unit")
	for _, w := range sortedKeys(samples) {
		for _, name := range sortedKeys(samples[w]) {
			xs := samples[w][name]
			fmt.Fprintf(out, "%-10s %-40s %14.6g %14.6g %14.6g %3d %s\n",
				w, name, stats.Median(xs), stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.75), len(xs), units[name])
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSamples(path string) (*sampleFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf sampleFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sf, nil
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	return (stats.Quantile(xs, 0.75) - stats.Quantile(xs, 0.25)) / stats.Median(xs)
}

// compare reports each end-to-end metric of each workload as within its
// bound, better, worse, or unresolved when either side's spread is wider
// than the bound. It exits 1 when any metric is worse.
func compare(o *options, out io.Writer) (int, error) {
	data, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return 1, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return 1, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	base, err := readSamples(o.args[0])
	if err != nil {
		return 1, err
	}
	change, err := readSamples(o.args[1])
	if err != nil {
		return 1, err
	}
	worse := 0
	fmt.Fprintf(out, "%-10s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "base", "change", "delta", "bound", "verdict")
	for _, w := range sortedKeys(base.Samples) {
		for _, m := range bf.EndToEnd {
			a, b := base.Samples[w][m.Name], change.Samples[w][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(out, "%-10s %-16s missing samples\n", w, m.Name)
				continue
			}
			ma, mb := stats.Median(a), stats.Median(b)
			delta := (mb - ma) / ma // positive: the change reads higher
			if m.Better == "higher" {
				delta = -delta
			}
			verdict := "within bound"
			switch {
			case allBetter(a, b, m.Better == "higher"):
				verdict = "better"
			case max(spread(a), spread(b)) > m.Bound:
				verdict = "unresolved"
			case delta > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(out, "%-10s %-16s %14.6g %14.6g %+7.2f%% %6.1f%%  %s\n", w, m.Name, ma, mb, 100*delta, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		return 1, nil
	}
	return 0, nil
}

// allBetter reports whether every change sample beats every base sample.
func allBetter(base, change []float64, higher bool) bool {
	for _, a := range base {
		for _, b := range change {
			if (higher && b <= a) || (!higher && b >= a) {
				return false
			}
		}
	}
	return true
}

// determinism runs one workload's exact counts at GOMAXPROCS 1 and at 2,
// each from a fresh set-up, and fails on any difference.
func determinism(o *options, out, errOut io.Writer) (int, error) {
	e := &env{seed: o.seed, seconds: time.Duration(o.seconds * float64(time.Second)), quick: o.quick, root: o.root, log: errOut}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var runs [2]map[string]uint64
	for i, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		wl, err := newWorkload(o.workload)
		if err != nil {
			return 1, err
		}
		runs[i], err = wl.counts(e)
		wl.close()
		if err != nil {
			return 1, fmt.Errorf("%s at GOMAXPROCS %d: %w", o.workload, procs, err)
		}
	}
	diffs := 0
	for _, k := range sortedKeys(runs[0]) {
		if v, ok := runs[1][k]; !ok || v != runs[0][k] {
			fmt.Fprintf(out, "%s: %s = %d at GOMAXPROCS 1, %d at 2\n", o.workload, k, runs[0][k], v)
			diffs++
		}
	}
	if len(runs[1]) != len(runs[0]) {
		diffs++
	}
	if diffs > 0 {
		return 1, fmt.Errorf("%s: %d exact counts differ between GOMAXPROCS 1 and 2", o.workload, diffs)
	}
	fmt.Fprintf(out, "%s: %d exact counts agree at GOMAXPROCS 1 and 2\n", o.workload, len(runs[0]))
	return 0, nil
}
