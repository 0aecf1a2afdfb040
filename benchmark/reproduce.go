package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dynocache/internal/experiments"
	"dynocache/internal/stats"
)

// reproduce regenerates the paper report the way a reproducer does:
// experiments.NewSuite at full Table 1 scale, then RunAll, with a fresh
// suite each time (a suite memoizes its sweeps).
type reproduce struct {
	cfg     experiments.Config
	suite   *experiments.Suite // built by set-up, consumed by the next report
	want    []byte             // the committed report the output must equal
	header  string             // written before RunAll, as dynocache-experiments does
	reports int                // reports rendered by the last measurement
}

func (r *reproduce) setup(e *env, tr *tracer, parent int64) error {
	r.cfg = experiments.DefaultConfig()
	golden := filepath.Join("results", "full_report.txt")
	r.header = fmt.Sprintf("dynocache experiment suite (scale %.3g, pressures %v, sweep to %d units)\n",
		r.cfg.Scale, r.cfg.Pressures, r.cfg.MaxUnits)
	if e.quick {
		// The quick suite's golden file holds RunAll output only.
		r.cfg = experiments.QuickConfig()
		golden = filepath.Join("internal", "experiments", "testdata", "quick_report.golden")
		r.header = ""
	}
	want, err := os.ReadFile(filepath.Join(e.root, golden))
	if err != nil {
		return fmt.Errorf("reading the reference report: %w", err)
	}
	r.want = want
	return r.newSuite(tr, parent, 0)
}

func (r *reproduce) newSuite(tr *tracer, parent, req int64) error {
	id := tr.begin("workload.synthesize", parent, req)
	s, err := experiments.NewSuite(r.cfg)
	tr.end(id)
	r.suite = s
	return err
}

// render writes one report with a fresh suite and returns its text and
// the time RunAll took.
func (r *reproduce) render(tr *tracer, parent, req int64) ([]byte, time.Duration, error) {
	if r.suite == nil {
		if err := r.newSuite(tr, parent, req); err != nil {
			return nil, 0, err
		}
	}
	suite := r.suite
	r.suite = nil
	var buf bytes.Buffer
	buf.Grow(len(r.want))
	buf.WriteString(r.header)
	id := tr.begin("bench.report", parent, req)
	sw := &sectionWriter{w: &buf, tr: tr, parent: id, req: req}
	t0 := time.Now()
	err := suite.RunAll(sw)
	dt := time.Since(t0)
	sw.finish()
	tr.end(id)
	if err == nil {
		err = sw.err
	}
	return buf.Bytes(), dt, err
}

func (r *reproduce) measure(e *env, tr *tracer, root int64) (*measurement, error) {
	m := &measurement{tailQ: 1}
	var secs []float64
	deadline := time.Now().Add(e.seconds)
	for r.reports = 0; r.reports == 0 || time.Now().Before(deadline); r.reports++ {
		out, dt, err := r.render(tr, root, int64(r.reports))
		if err != nil {
			return nil, err
		}
		secs = append(secs, dt.Seconds())
		m.latencies = append(m.latencies, dt.Seconds()*1e3)
		m.check(e, bytes.Equal(out, r.want), "report %d differs from the committed report", r.reports)
	}
	m.throughput = 1 / stats.Median(secs)
	return m, nil
}

// The byte-identity gate runs on every report inside measure.
func (r *reproduce) verify(*env, *measurement) error { return nil }

func (r *reproduce) layers(sum map[string]*spanStats, m *measurement) map[string]float64 {
	vals := make(map[string]float64)
	perReport := func(name string) float64 {
		if st := sum[name]; st != nil {
			return st.self.Seconds() / float64(r.reports)
		}
		return 0
	}
	for _, s := range reportSections {
		vals["experiments."+s.id+"_s"] = perReport("experiments." + s.id)
	}
	vals["report.render_s"] = perReport("report.render")
	return vals
}

func (r *reproduce) counts(e *env) (map[string]uint64, error) {
	if err := r.setup(e, nil, 0); err != nil {
		return nil, err
	}
	out, _, err := r.render(nil, 0, 0)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(out)
	return map[string]uint64{"report.bytes": uint64(len(out)), "report.fnv64a": h.Sum64()}, nil
}

func (r *reproduce) close() { r.suite = nil }

// sectionWriter times RunAll's sections from the outside. RunAll writes
// each section header before computing the section and writes the
// section's text only after computing it, so a section spans from its
// header to the next one, and its rendering from its first body write to
// the next header.
type sectionWriter struct {
	w       *bytes.Buffer
	tr      *tracer
	parent  int64
	req     int64
	section int64 // open section span
	render  int64 // open render span
	err     error
}

var sectionIDs = func() map[string]string {
	m := make(map[string]string, len(reportSections))
	for _, s := range reportSections {
		m[s.header] = s.id
	}
	return m
}()

func (s *sectionWriter) Write(p []byte) (int, error) {
	if s.tr != nil {
		text := string(p)
		if strings.HasPrefix(text, "\n==== ") && strings.HasSuffix(text, " ====\n\n") {
			s.finish()
			header := strings.TrimSuffix(strings.TrimPrefix(text, "\n==== "), " ====\n\n")
			id, ok := sectionIDs[header]
			if !ok && s.err == nil {
				s.err = fmt.Errorf("RunAll wrote an unknown section %q", header)
			}
			s.section = s.tr.begin("experiments."+id, s.parent, s.req)
		} else if s.section != 0 && s.render == 0 {
			s.render = s.tr.begin("report.render", s.section, s.req)
		}
	}
	return s.w.Write(p)
}

// finish closes the open section.
func (s *sectionWriter) finish() {
	s.tr.end(s.render)
	s.tr.end(s.section)
	s.render, s.section = 0, 0
}
