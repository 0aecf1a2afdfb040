package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"dynocache/internal/dbt"
	"dynocache/internal/interp"
	"dynocache/internal/isa"
	"dynocache/internal/program"
)

// translate runs the full DBT (interpreter, superblock formation,
// chaining, eviction with live unlinking) on the Table 2 programs and on
// larger seeded programs, one of them at a cache small enough to thrash.
type translate struct {
	progs  []guestProgram
	runs   []translateRun
	first  []guestState // first measured pass, per run
	passes int
	// instsPerPass is the guest instructions of one pass, per group.
	instsPerPass map[string]float64
}

type guestProgram struct {
	name  string
	code  []byte
	entry uint32
}

type translateRun struct {
	prog     int
	group    string
	span     string
	chaining bool
	capacity int
	// request marks the runs whose times are the workload's request
	// latencies: the Table 2 programs, which do not depend on the seed.
	request bool
}

// guestState is what one run leaves behind: guest-visible state (every
// register and a checksum of the data region) plus the DBT's counters.
type guestState struct {
	regs  [isa.NumRegs]uint32
	data  uint32 // CRC-32C of [DataBase, StackTop)
	insts uint64
	stats dbt.Stats
}

// guestBudget bounds a run in guest instructions; every program halts
// well inside it, so hitting it is a failure.
const guestBudget = 1 << 31

// table2Programs are the SPEC benchmarks of the paper's Table 2.
var table2Programs = []string{"gzip", "vpr", "gcc", "mcf", "crafty", "parser",
	"perlbmk", "gap", "vortex", "bzip2", "twolf"}

// table2Gen is the GenConfig internal/experiments uses for Table 2's
// idx-th program.
func table2Gen(idx int) program.GenConfig {
	return program.GenConfig{
		Seed:        0x7AB2E0 + uint64(idx)*7919,
		NumFuncs:    18 + 2*(idx%5),
		MinBlocks:   4,
		MaxBlocks:   10 + idx%6,
		LoopProb:    0.15 + 0.05*float64(idx%4),
		MaxLoopTrip: 4 + idx%8,
		CallProb:    0.05 + 0.01*float64(idx%4),
		IndirectPct: 0.1,
		BranchProb:  0.5 + 0.04*float64(idx%5),
		Phases:      4,
		PhaseFuncs:  8,
		PhaseIters:  600,
	}
}

// largeGen is the i-th larger program: more functions per phase than the
// Table 2 programs, so its phase working set overflows a 4 KB cache.
func largeGen(seed uint64, i int) program.GenConfig {
	g := program.DefaultGenConfig(seed<<8 | uint64(i))
	g.NumFuncs, g.PhaseFuncs, g.Phases, g.PhaseIters = 64, 24, 8, 100
	return g
}

// thrashCapacity is the small cache of the large programs: the DBT's
// minimum. An 8 KB cache sits at the knee of these programs (measured on
// 24 seeded programs: 5 thrashed, 19 ran at 128 KB speed), so the seed
// would decide the regime; at 4 KB all 24 thrash.
const thrashCapacity = 4 << 10

const largePrograms = 4

func (t *translate) setup(e *env, tr *tracer, parent int64) error {
	t.progs, t.runs = nil, nil
	add := func(name string, g program.GenConfig) error {
		if e.quick {
			g.PhaseIters /= 10
		}
		id := tr.begin("program.generate", parent, 0)
		p, err := program.Generate(g)
		var code []byte
		if err == nil {
			code, err = p.Code()
		}
		tr.end(id)
		if err != nil {
			return fmt.Errorf("generating %s: %w", name, err)
		}
		t.progs = append(t.progs, guestProgram{name: name, code: code, entry: p.Entry})
		return nil
	}
	for i, name := range table2Programs {
		if err := add(name, table2Gen(i)); err != nil {
			return err
		}
		p := len(t.progs) - 1
		t.runs = append(t.runs,
			translateRun{prog: p, group: "table2-chain", chaining: true, capacity: 128 << 10, request: true},
			translateRun{prog: p, group: "table2-nochain", chaining: false, capacity: 128 << 10, request: true})
	}
	for i := 0; i < largePrograms; i++ {
		if err := add(fmt.Sprintf("large%d", i), largeGen(e.seed, i)); err != nil {
			return err
		}
		p := len(t.progs) - 1
		t.runs = append(t.runs,
			translateRun{prog: p, group: "large-128k", chaining: true, capacity: 128 << 10},
			translateRun{prog: p, group: "large-4k", chaining: true, capacity: thrashCapacity})
	}
	for i := range t.runs {
		t.runs[i].span = "dbt.Run " + t.runs[i].group
	}
	return nil
}

var crc32c = crc32.MakeTable(crc32.Castagnoli)

func captureState(m *interp.Machine) guestState {
	return guestState{
		regs:  m.Regs,
		data:  crc32.Checksum(m.Mem[program.DataBase:program.StackTop], crc32c),
		insts: m.InstCount,
	}
}

// translateOne runs one program under the DBT to completion.
func (t *translate) translateOne(r translateRun) (guestState, error) {
	cfg := dbt.DefaultConfig()
	cfg.Chaining = r.chaining
	cfg.CacheCapacity = r.capacity
	d, err := dbt.New(cfg)
	if err != nil {
		return guestState{}, err
	}
	p := t.progs[r.prog]
	if err := d.Load(p.code, program.CodeBase, p.entry); err != nil {
		return guestState{}, err
	}
	if err := d.Run(guestBudget); err != nil {
		return guestState{}, fmt.Errorf("%s (%s): %w", p.name, r.group, err)
	}
	st := captureState(d.Machine())
	st.stats = d.Stats()
	return st, nil
}

// pass runs every (program, configuration) once.
func (t *translate) pass(m *measurement, times *callTimes, tr *tracer, parent, req int64) ([]guestState, error) {
	out := make([]guestState, len(t.runs))
	for i, r := range t.runs {
		id := tr.begin(r.span, parent, req)
		t0 := time.Now()
		st, err := t.translateOne(r)
		d := time.Since(t0)
		tr.end(id)
		times.add(i, d)
		if r.request {
			m.latencies = append(m.latencies, d.Seconds()*1e3)
		}
		m.attempted++
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

func (t *translate) measure(e *env, tr *tracer, root int64) (*measurement, error) {
	m := &measurement{tailQ: 0.95}
	t.first, t.passes = nil, 0
	var times callTimes
	deadline := time.Now().Add(e.seconds)
	for t.passes == 0 || time.Now().Before(deadline) {
		id := tr.begin("bench.pass", root, int64(t.passes))
		got, err := t.pass(m, &times, tr, id, int64(t.passes))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if t.first == nil {
			t.first = got
		} else {
			for i := range got {
				m.check(e, got[i] == t.first[i], "translate pass %d: %s (%s) differs from the first pass",
					t.passes, t.progs[t.runs[i].prog].name, t.runs[i].group)
			}
		}
		t.passes++
	}
	t.instsPerPass = make(map[string]float64)
	var insts float64
	for i, r := range t.runs {
		t.instsPerPass[r.group] += float64(t.first[i].insts)
		insts += float64(t.first[i].insts)
	}
	m.throughput = insts / times.pass()
	return m, nil
}

// verify checks each run's guest-visible state against a pure
// interpreter run of the same program: every register and the data
// region must agree (the PC differs legitimately: the DBT halts inside
// the code cache).
func (t *translate) verify(e *env, m *measurement) error {
	for pi, p := range t.progs {
		ref := interp.New(program.MemSize)
		if err := ref.Load(p.code, program.CodeBase, p.entry); err != nil {
			return err
		}
		if err := ref.Run(guestBudget); err != nil {
			return fmt.Errorf("interpreting %s: %w", p.name, err)
		}
		want := captureState(ref)
		for i, r := range t.runs {
			if r.prog != pi {
				continue
			}
			got := t.first[i]
			m.check(e, got.regs == want.regs && got.data == want.data,
				"%s (%s): DBT state differs from the interpreter", p.name, r.group)
		}
	}
	return nil
}

func (t *translate) layers(sum map[string]*spanStats, m *measurement) map[string]float64 {
	vals := make(map[string]float64)
	for _, g := range translateGroups {
		if st := sum["dbt.Run "+g]; st != nil && t.instsPerPass[g] > 0 {
			vals["dbt.run_ns_per_inst."+g] = float64(st.total.Nanoseconds()) / (t.instsPerPass[g] * float64(t.passes))
		}
	}
	var s dbt.Stats
	var insts uint64
	for _, st := range t.first {
		s.SuperblocksFormed += st.stats.SuperblocksFormed
		s.Traps += st.stats.Traps
		s.StubsPatched += st.stats.StubsPatched
		s.StubsUnpatched += st.stats.StubsUnpatched
		s.CacheInsts += st.stats.CacheInsts
		insts += st.insts
	}
	vals["dbt.superblocks_formed"] = float64(s.SuperblocksFormed)
	vals["dbt.traps"] = float64(s.Traps)
	vals["dbt.stubs_patched"] = float64(s.StubsPatched)
	vals["dbt.stubs_unpatched"] = float64(s.StubsUnpatched)
	vals["dbt.cache_inst_frac"] = float64(s.CacheInsts) / float64(insts)
	return vals
}

func (t *translate) counts(e *env) (map[string]uint64, error) {
	if err := t.setup(e, nil, 0); err != nil {
		return nil, err
	}
	got, err := t.pass(&measurement{}, &callTimes{}, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64)
	for i, r := range t.runs {
		st := got[i]
		key := t.progs[r.prog].name + " " + r.group
		var regs [4 * isa.NumRegs]byte
		for k, v := range st.regs {
			binary.LittleEndian.PutUint32(regs[4*k:], v)
		}
		out[key+" regs_crc"] = uint64(crc32.Checksum(regs[:], crc32c))
		out[key+" data_crc"] = uint64(st.data)
		out[key+" insts"] = st.insts
		out[key+" superblocks_formed"] = st.stats.SuperblocksFormed
		out[key+" traps"] = st.stats.Traps
		out[key+" stubs_patched"] = st.stats.StubsPatched
		out[key+" stubs_unpatched"] = st.stats.StubsUnpatched
	}
	return out, nil
}

func (t *translate) close() {}
