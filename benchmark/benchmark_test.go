package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// declared reads the metric catalogue from BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	toMap := func(ms []metricJSON) map[string]string {
		out := make(map[string]string, len(ms))
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	return toMap(bf.EndToEnd), toMap(bf.PerLayer)
}

type metricJSON struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestCatalogueMatchesBenchmarkJSON keeps the program's metric catalogue
// and BENCHMARK.json in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	e2e, layers := declared(t)
	for _, c := range []struct {
		defs []metricDef
		want map[string]string
	}{{endToEnd, e2e}, {perLayer(), layers}} {
		if len(c.defs) != len(c.want) {
			t.Errorf("program declares %d metrics, BENCHMARK.json %d", len(c.defs), len(c.want))
		}
		for _, d := range c.defs {
			if u, ok := c.want[d.name]; !ok || u != d.unit {
				t.Errorf("metric %s (%s): BENCHMARK.json has unit %q", d.name, d.unit, u)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at smoke scale, untraced and
// traced, and checks that every declared metric is printed with its unit,
// that the gates pass, and that the span file parses with every parent
// link resolving.
func TestWorkloadsSmoke(t *testing.T) {
	e2e, layers := declared(t)
	dir := t.TempDir()
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []string{"0", "1"} {
				var out, errOut bytes.Buffer
				code, err := run([]string{"-workload", w, "-quick", "-seconds", "0.3", "-trace", trace,
					"-root", "..", "-out", dir}, &out, &errOut)
				if err != nil || code != 0 {
					t.Fatalf("trace %s: exit %d, %v\n%s", trace, code, err, errOut.String())
				}
				want := e2e
				if trace == "1" {
					want = layers
				}
				checkOutput(t, "trace "+trace, out.String(), want)
			}
			checkSpans(t, filepath.Join(dir, "spans-"+w+".jsonl"))
		})
	}
}

func checkOutput(t *testing.T, label, out string, want map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", label, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct %v, %d of %d failed", label, res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", label, len(res.Metrics), len(want))
	}
	printed := make(map[string]string)
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 3 {
			printed[f[0]] = f[2]
		}
	}
	for name, unit := range want {
		if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("%s: result lacks %s in %s", label, name, unit)
		}
		if printed[name] != unit {
			t.Errorf("%s: %s not printed as \"name value %s\"", label, name, unit)
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[int64]bool{0: true}
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s line %d: %v", path, n+1, err)
		}
		if !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) has unknown parent %d", path, s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		ids[s.ID] = true
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Errorf("%s: no spans", path)
	}
}

// TestCovered checks self-time coverage with overlapping children.
func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 50, End: 70}, {Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 30+20+10 {
		t.Errorf("covered = %d, want 60", got)
	}
}
