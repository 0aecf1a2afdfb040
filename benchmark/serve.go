package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dynocache/internal/core"
	"dynocache/internal/service"
	"dynocache/internal/stats"
)

// serve drives the sharded multi-tenant service: 2 shards, 8 tenants pinned
// 4 per shard, one load goroutine per shard. Phases: closed-loop capacity
// (one shard at a time), an open loop at 8 and at 16 M accesses/s, and
// 16 M accesses/s while a control goroutine migrates one tenant to the
// other shard every 100 ms.
type serve struct {
	tenants []*serveTenant
	svc     *service.Service
	offset  float64 // the senders' phase offset, as a fraction of the gap
	nextReq atomic.Int64

	// Results of the last measurement, for the per-layer metrics.
	phases     map[string]*phaseStats
	migrations []float64 // ms per Migrate call
	checks     []float64 // ms per CheckConsistency call
	imbalance  float64
	flipMax    time.Duration
}

const (
	serveShards  = 2
	serveTenants = 8
	serveScale   = 0.25
	// serveBatch is the accesses per ReplayBatch request.
	serveBatch = 16384
	// serveDeadline is how late past its due time a request may still be
	// admitted; a request refused for longer counts as failed.
	serveDeadline = 50 * time.Millisecond
	// migrateEvery is the churn phase's migration period.
	migrateEvery = 100 * time.Millisecond
)

type serveTenant struct {
	name      string
	shard     int                 // initial shard; the tenant's load goroutine
	footprint int                 // bytes of all its superblocks
	stream    []core.SuperblockID // the trace's accesses, repeated to fill at least one batch
	blocks    []core.Superblock   // definitions indexed by ID
	regen     func(core.SuperblockID) (core.Superblock, error)
	t         *service.Tenant
	cursor    int
}

// next returns the tenant's next batch of accesses.
func (st *serveTenant) next() []core.SuperblockID {
	if st.cursor+serveBatch > len(st.stream) {
		st.cursor = 0
	}
	ids := st.stream[st.cursor : st.cursor+serveBatch]
	st.cursor += serveBatch
	return ids
}

// phaseStats is one phase's observations, merged across senders.
type phaseStats struct {
	latencies []float64       // ms, from due time to completion
	late      []float64       // ms, from due time to first submission
	calls     []float64       // µs, the admitted ReplayBatch call alone
	done      []time.Duration // completion times since the phase started
	rejects   int
	capacity  float64 // closed loop: accesses/s, summed over shards
}

// rateWindow is the window of the capacity estimate.
const rateWindow = 100 * time.Millisecond

// rate is the median, over rateWindow windows, of accesses completed per
// second: a burst of host noise then moves one window, not the estimate.
func (p *phaseStats) rate(dur time.Duration) float64 {
	win := min(rateWindow, dur)
	counts := make([]float64, int(dur/win))
	for _, d := range p.done {
		if w := int(d / win); w < len(counts) {
			counts[w] += serveBatch / win.Seconds()
		}
	}
	return stats.Median(counts)
}

// latencyWindow is the window of the latency estimates: at 8 M acc/s a
// second holds about 490 requests, 24 of them beyond the p95.
const latencyWindow = time.Second

// windows groups the phase's latencies into the whole latencyWindows of
// the phase (the whole phase when it is shorter), by completion time.
func (p *phaseStats) windows(dur time.Duration) [][]float64 {
	win := min(latencyWindow, dur)
	out := make([][]float64, int(dur/win))
	for i, d := range p.done {
		if w := int(d / win); w < len(out) {
			out[w] = append(out[w], p.latencies[i])
		}
	}
	return out
}

func (p *phaseStats) merge(o *phaseStats) {
	p.latencies = append(p.latencies, o.latencies...)
	p.late = append(p.late, o.late...)
	p.calls = append(p.calls, o.calls...)
	p.done = append(p.done, o.done...)
	p.rejects += o.rejects
}

// servePhase is one traffic phase: rate is the total offered load in
// accesses per second, 0 for a closed loop.
type servePhase struct {
	name    string
	rate    float64
	migrate bool
}

var serveSchedule = []servePhase{
	{"capacity", 0, false},
	{"8m", 8e6, false},
	{"16m", 16e6, false},
	{"churn", 16e6, true},
}

// serveMix is the tenant mix: the eight Table 1 benchmarks with the
// largest footprint (superblocks x median size), largest first, so that
// every request does eviction work. The seed draws each tenant's trace,
// not the mix. Measured alternatives: drawing the benchmarks by seed moved
// capacity by 23% between seeds, even within footprint strata; a mix with
// small tenants made most requests all-hit 60 µs calls whose time was
// mostly owner wake-ups, which varied by 20-37% between runs.
var serveMix = [serveTenants]string{"word", "iexplore", "powerpoint", "outlook", "photoshop", "visualstudio", "gcc", "winzip"}

// servePlacement pins the tenants to shards in snake order, so both shards
// hold a similar footprint.
var servePlacement = [serveTenants]int{0, 1, 1, 0, 0, 1, 1, 0}

func (s *serve) setup(e *env, tr *tracer, parent int64) error {
	s.close()
	scale := serveScale
	if e.quick {
		scale = 0.02
	}
	r := stats.NewRand(e.seed, 0x5e7e)
	s.offset = r.Float64()
	s.tenants = nil
	maxBlock := 0
	for i, name := range serveMix {
		p, err := seededProfile(name, e.seed)
		if err != nil {
			return err
		}
		id := tr.begin("workload.synthesize", parent, 0)
		t, err := p.Scaled(scale).Synthesize()
		tr.end(id)
		if err != nil {
			return err
		}
		st := &serveTenant{
			name:      fmt.Sprintf("t%d-%s", i, p.Name),
			shard:     servePlacement[i],
			footprint: t.TotalBytes(),
			blocks:    make([]core.Superblock, len(t.Blocks)),
		}
		for bid, sb := range t.Blocks {
			st.blocks[bid] = sb
			maxBlock = max(maxBlock, sb.Size)
		}
		for len(st.stream) < serveBatch {
			st.stream = append(st.stream, t.Accesses...)
		}
		st.regen = func(id core.SuperblockID) (core.Superblock, error) { return st.blocks[id], nil }
		s.tenants = append(s.tenants, st)
	}

	// Shard capacity: the smaller co-located footprint over 10, the
	// eviction-heavy end of the paper's pressure range, so both shards
	// evict.
	var footprint [serveShards]int
	for _, st := range s.tenants {
		footprint[st.shard] += st.footprint
	}
	capacity := max(min(footprint[0], footprint[1])/10, 4*maxBlock+4096)
	id := tr.begin("service.build", parent, 0)
	defer tr.end(id)
	svc, err := service.New(service.Config{
		Shards:        serveShards,
		Policy:        core.Policy{Kind: core.PolicyUnits, Units: 8},
		ShardCapacity: capacity,
	})
	if err != nil {
		return err
	}
	s.svc = svc
	for _, st := range s.tenants {
		if st.t, err = svc.RegisterPinned(st.name, st.shard, core.SuperblockID(len(st.blocks))); err != nil {
			return err
		}
	}
	// Warm pass: every tenant replays its stream once, in order.
	for _, st := range s.tenants {
		for k := 0; k < len(st.stream)/serveBatch; k++ {
			if err := st.t.ReplayBatch(st.next(), st.regen); err != nil {
				return fmt.Errorf("warm pass: %w", err)
			}
		}
		st.cursor = 0
	}
	return nil
}

func (s *serve) measure(e *env, tr *tracer, root int64) (*measurement, error) {
	m := &measurement{tailQ: 0.95}
	s.phases = make(map[string]*phaseStats)
	s.migrations, s.checks = nil, nil
	phaseDur := e.seconds / time.Duration(len(serveSchedule))
	before := s.svc.ShardStats()
	for _, ph := range serveSchedule {
		id := tr.begin("bench.phase "+ph.name, root, 0)
		res := s.runPhase(e, m, tr, id, ph, phaseDur)
		tr.end(id)
		s.phases[ph.name] = res
		if ph.rate > 0 {
			m.latencies = append(m.latencies, res.latencies...)
			m.windows = append(m.windows, res.windows(phaseDur)...)
		}

		id = tr.begin("service.CheckConsistency", root, 0)
		t0 := time.Now()
		err := s.svc.CheckConsistency()
		s.checks = append(s.checks, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(id)
		m.check(e, err == nil, "serve %s: ledger check: %v", ph.name, err)
	}
	m.throughput = s.phases["capacity"].capacity

	var maxAcc, sumAcc float64
	for i, st := range s.svc.ShardStats() {
		a := float64(st.Accesses - before[i].Accesses)
		maxAcc = max(maxAcc, a)
		sumAcc += a
	}
	s.imbalance = maxAcc / (sumAcc / serveShards)
	s.flipMax = s.svc.MigrationStats().FlipPauseMax
	return m, nil
}

// runPhase drives one phase and merges what the senders saw. The closed
// loop drives one shard at a time, each for half the phase: with both
// owners computing at once, the host ran both vCPUs up to 1.7x slower in
// some periods (no steal time reported), which moved capacity by 40%
// between runs; one shard at a time keeps one vCPU busy, like the other
// workloads. The open-loop phases run one goroutine per shard at once
// (plus the migration goroutine in the churn phase).
func (s *serve) runPhase(e *env, m *measurement, tr *tracer, parent int64, ph servePhase, dur time.Duration) *phaseStats {
	out := &phaseStats{}
	fails := make([][]string, serveShards+1)
	if ph.rate == 0 {
		for sh := 0; sh < serveShards; sh++ {
			start := time.Now()
			half := dur / serveShards
			p, f := s.send(tr, parent, s.group(sh), 0, 0, start, start.Add(half))
			out.capacity += p.rate(half)
			out.merge(p)
			fails[sh] = f
			m.attempted += len(p.latencies) + len(f)
		}
	} else {
		start := time.Now()
		end := start.Add(dur)
		per := make([]*phaseStats, serveShards)
		var wg sync.WaitGroup
		for sh := 0; sh < serveShards; sh++ {
			wg.Add(1)
			go func(sh int) {
				defer wg.Done()
				// The senders' due times interleave: sender sh starts
				// sh/serveShards of a gap after the seeded offset.
				offset := s.offset + float64(sh)/serveShards
				per[sh], fails[sh] = s.send(tr, parent, s.group(sh), ph.rate, offset, start, end)
			}(sh)
		}
		if ph.migrate {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fails[serveShards] = s.churn(tr, parent, end)
			}()
		}
		wg.Wait()
		for sh, p := range per {
			out.merge(p)
			m.attempted += len(p.latencies) + len(fails[sh])
		}
		if ph.migrate {
			m.attempted += len(s.migrations)
		}
	}
	for _, f := range fails {
		for _, msg := range f {
			m.fail(e, "serve %s: %s", ph.name, msg)
		}
	}
	return out
}

// group returns the tenants whose load goroutine serves shard sh.
func (s *serve) group(sh int) []*serveTenant {
	var g []*serveTenant
	for _, st := range s.tenants {
		if st.shard == sh {
			g = append(g, st)
		}
	}
	return g
}

// send is one load goroutine. With rate 0 it submits back to back;
// otherwise each request is due one gap after the previous one, whether or
// not that one has finished, and latency counts from the due time.
func (s *serve) send(tr *tracer, parent int64, group []*serveTenant, rate, offset float64, start, end time.Time) (*phaseStats, []string) {
	ps := &phaseStats{}
	var fails []string
	var gap time.Duration
	next := start
	if rate > 0 {
		gap = time.Duration(float64(serveBatch) / (rate / serveShards) * float64(time.Second))
		next = start.Add(time.Duration(math.Mod(offset, 1) * float64(gap)))
	}
	prevDone := start
	for k := 0; ; k++ {
		due := next
		if rate == 0 {
			due = time.Now()
		}
		if !due.Before(end) {
			break
		}
		req := s.nextReq.Add(1)
		if time.Now().Before(due) {
			sleepUntil(due)
			tr.record("gen.idle", parent, req, prevDone, due)
		}
		st := group[k%len(group)]
		ids := st.next()
		send := time.Now()
		callStart := send
		var err error
		for {
			err = st.t.ReplayBatch(ids, st.regen)
			var busy *service.BacklogError
			if err == nil || !errors.As(err, &busy) || time.Since(due) > serveDeadline {
				break
			}
			ps.rejects++
			sleepUntil(time.Now().Add(min(busy.RetryAfter, time.Millisecond)))
			callStart = time.Now()
		}
		done := time.Now()
		prevDone = done
		next = due.Add(gap)
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s request %d: %v", st.name, k, err))
			continue
		}
		if tr != nil {
			rid := tr.record("bench.request", parent, req, due, done)
			if send.After(due) {
				tr.record("gen.late", rid, req, due, send)
			}
			if callStart.After(send) {
				tr.record("gen.retry", rid, req, send, callStart)
			}
			tr.record("service.ReplayBatch", rid, req, callStart, done)
		}
		ps.latencies = append(ps.latencies, float64(done.Sub(due).Nanoseconds())/1e6)
		ps.late = append(ps.late, float64(send.Sub(due).Nanoseconds())/1e6)
		ps.calls = append(ps.calls, float64(done.Sub(callStart).Nanoseconds())/1e3)
		ps.done = append(ps.done, done.Sub(start))
	}
	return ps, fails
}

// sleepUntil blocks until t. time.Sleep wakes through the runtime's
// netpoller, which sleeps in whole milliseconds and so overshoots by up to
// a millisecond; the nanosleep system call wakes within the kernel's timer
// slack (50 µs by default), which keeps the generator's own lateness
// small next to the service's latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// churn migrates the next tenant to the other shard every migrateEvery
// until end.
func (s *serve) churn(tr *tracer, parent int64, end time.Time) []string {
	var fails []string
	tick := time.NewTicker(migrateEvery)
	defer tick.Stop()
	for k := 0; ; k++ {
		at := <-tick.C
		if !at.Before(end) {
			return fails
		}
		st := s.tenants[k%len(s.tenants)]
		id := tr.begin("service.Migrate", parent, 0)
		t0 := time.Now()
		err := s.svc.Migrate(st.name, 1-st.t.Shard())
		s.migrations = append(s.migrations, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(id)
		if err != nil {
			fails = append(fails, fmt.Sprintf("migrating %s: %v", st.name, err))
		}
	}
}

// The ledger gate runs after every phase inside measure.
func (s *serve) verify(*env, *measurement) error { return nil }

func (s *serve) layers(sum map[string]*spanStats, m *measurement) map[string]float64 {
	vals := make(map[string]float64)
	var late []float64
	for _, ph := range serveSchedule {
		p := s.phases[ph.name]
		vals["service.replay_batch_us_p50."+ph.name] = stats.Median(p.calls)
		vals["service.replay_batch_us_p99."+ph.name] = stats.Quantile(p.calls, 0.99)
		vals["service.rejects."+ph.name] = float64(p.rejects)
		if ph.rate > 0 {
			vals["serve.latency_ms_p50."+ph.name] = stats.Median(p.latencies)
			vals["serve.latency_ms_p99."+ph.name] = stats.Quantile(p.latencies, 0.99)
			late = append(late, p.late...)
		}
	}
	vals["serve.capacity_macc_s"] = m.throughput / 1e6
	vals["serve.gen_late_ms_p50"] = stats.Median(late)
	vals["serve.gen_late_ms_p99"] = stats.Quantile(late, 0.99)
	vals["service.migrate_ms_p50"] = stats.Median(s.migrations)
	vals["service.migrate_ms_max"] = stats.Quantile(s.migrations, 1)
	vals["service.flip_pause_max_ms"] = float64(s.flipMax.Nanoseconds()) / 1e6
	vals["service.check_consistency_ms"] = stats.Median(s.checks)
	vals["service.shard_imbalance"] = s.imbalance
	return vals
}

// counts returns the engine and tenant ledgers after the warm pass, which
// replays every tenant in a fixed order.
func (s *serve) counts(e *env) (map[string]uint64, error) {
	if err := s.setup(e, nil, 0); err != nil {
		return nil, err
	}
	if err := s.svc.CheckConsistency(); err != nil {
		return nil, err
	}
	out := make(map[string]uint64)
	for i, st := range s.svc.ShardStats() {
		key := fmt.Sprintf("shard%d ", i)
		out[key+"misses"] = st.Misses
		out[key+"evictions"] = st.EvictionInvocations
		out[key+"blocks_evicted"] = st.BlocksEvicted
		out[key+"links_unpatched"] = st.InterUnitLinksRemoved
	}
	for _, st := range s.tenants {
		ts := st.t.Stats()
		out[st.name+" misses"] = ts.Misses
		out[st.name+" bytes_evicted"] = ts.BytesEvicted
	}
	return out, nil
}

func (s *serve) close() {
	if s.svc != nil {
		s.svc.Close()
		s.svc = nil
	}
}
