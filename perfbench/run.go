package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// config is one benchmark invocation.
type config struct {
	w        workload
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	corrupt  oracleCorruption
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// meta stamps a run with what its numbers depend on.
func meta(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.w.name,
		"seed":       cfg.seed,
		"sf":         cfg.w.sf,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"clients":    min(cfg.w.clients, runtime.NumCPU()),
	}
}

// phaseStats is what one measured phase leaves behind.
type phaseStats struct {
	t      *tally // reads, streams and, on refresh, the writer's batches
	probe  *tally // write-probe batches on the other workloads
	dur    time.Duration
	before core.RuntimeStats
	after  core.RuntimeStats
	smp    *sampler
}

// runPhase drives the workload's readers and writer for d of read time.
// Workloads without a writer stop their readers probeSlices times to run
// a slice of the write probe on the idle server, so the probe's windows
// sample the whole phase rather than the few seconds after it; dur
// counts read time only, and the counter deltas include the probe.
func runPhase(g *loadgen, w *writer, rs *requestSet, seed uint64, phase int, d time.Duration) *phaseStats {
	e := g.e
	runtime.GC()
	ps := &phaseStats{t: &tally{}, probe: &tally{}, before: e.rt.StatsSnapshot(), smp: startSampler(e)}
	slices := 1
	if e.w.writeRate == 0 {
		slices = probeSlices
	}
	for i := 0; i < slices; i++ {
		start := time.Now()
		deadline := start.Add(d / time.Duration(slices))
		var wt *tally
		done := make(chan struct{})
		if e.w.writeRate > 0 {
			go func() {
				defer close(done)
				wt = w.run(g, e.w.writeRate, 0, deadline, e.w.writeBatch, w.churn, true)
			}()
		} else {
			close(done)
		}
		ps.t.merge(g.readers(rs, seed, phase<<8|i, deadline))
		<-done
		ps.dur += time.Since(start)
		if wt != nil {
			ps.t.merge(wt)
		}
		if e.w.writeRate == 0 {
			n := probeWriteBatches / slices
			if g.rec != nil {
				n /= 8 // a traced run reports the spans, not the tail
			}
			runtime.GC()
			ps.probe.merge(w.run(g, probeWriteRate, n, time.Time{}, probeWriteBatch, w.probe, false))
		}
	}
	ps.smp.finish()
	ps.after = e.rt.StatsSnapshot()
	return ps
}

// run executes one benchmark invocation and returns its result line.
// An error means the run could not produce one at all.
func run(cfg config) (*result, error) {
	w := cfg.w
	// At most nproc client goroutines; the quiesce check holds the
	// connections to the same count.
	clients := min(w.clients, runtime.NumCPU())

	// Set up several times; keep the last.
	var setupS, genS, loadS []float64
	var e *env
	for i := 0; i < setups; i++ {
		if e != nil {
			e.tearDown()
			e = nil
			runtime.GC()
		}
		var err error
		if e, err = setUp(w, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, e.setupTime.Seconds())
		genS = append(genS, e.genTime.Seconds())
		loadS = append(loadS, e.loadTime.Seconds())
	}
	defer e.tearDown()

	rs, err := buildRequests(e, cfg.seed, cfg.corrupt)
	if err != nil {
		return nil, err
	}
	e.data = nil

	g := newLoadgen(e, clients)
	defer g.tr.CloseIdleConnections()
	wr, err := newWriter(e, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer wr.close()

	total := &tally{}
	// Warm-up: every oracle-checked request once, and write-probe batches
	// until freed slots are being reused, so the timed batches start from
	// the same state on every run.
	for _, r := range rs.all() {
		g.do(context.Background(), r, total)
	}
	if w.writeRate == 0 {
		total.merge(wr.run(g, probeWriteRate, probeWarmBatches, time.Time{}, probeWriteBatch, wr.probe, false))
	}

	vals := map[string]float64{
		"setup_s":         median(setupS),
		"tpch.generate_s": median(genS),
		"tpch.load_s":     median(loadS),
	}
	runDur := time.Duration(cfg.seconds * float64(time.Second))
	var rec *recorder
	var plain, traced *phaseStats
	if cfg.trace {
		plain = runPhase(g, wr, rs, cfg.seed, 1, runDur/2)
		rec = newRecorder()
		g.rec = rec
		e.th.rec.Store(rec)
		traced = runPhase(g, wr, rs, cfg.seed, 2, runDur/2)
	} else {
		plain = runPhase(g, wr, rs, cfg.seed, 1, runDur)
	}
	total.merge(plain.t)
	total.merge(plain.probe)
	if traced != nil {
		total.merge(traced.t)
		total.merge(traced.probe)
	}

	writes, late := plain.t.write, plain.t.late
	writeP99 := pct(writes, 0.99)
	if w.writeRate == 0 {
		writes, late = plain.probe.write, plain.probe.late
		writeP99 = windowPct(writes, probeWindow, 0.99)
	}
	if err := wr.drain(); err != nil {
		total.fail(false, "writer: %v", err)
	}
	if rec != nil {
		for _, r := range rs.coverage {
			if err := g.replay(context.Background(), r, g.ids.Add(1), "coverage"); err != nil {
				total.fail(false, "coverage replay %s: %v", r.kind, err)
			}
		}
	}
	g.rec = nil
	e.th.rec.Store(nil)

	// Quiesce: stop serving, then every ledger must balance.
	if err := e.stopServing(); err != nil {
		return nil, fmt.Errorf("stop serving: %w", err)
	}
	qerr := quiesce(e)
	if d := g.dials.Load(); d > int64(clients) {
		qerr = append(qerr, fmt.Sprintf("%d client connections opened for %d clients", d, clients))
	}
	for _, s := range total.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", s)
	}
	for _, s := range qerr {
		fmt.Fprintln(os.Stderr, "perfbench: quiesce:", s)
	}
	res := &result{
		Correct:   total.wrong == 0 && len(qerr) == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   map[string]metricValue{},
	}
	if len(qerr) > 0 {
		return res, nil // a run that leaks reports no numbers
	}

	sec := plain.dur.Seconds()
	vals["read_p50_ms"] = ms(pct(plain.t.read, 0.50))
	vals["read_p99_ms"] = ms(pct(plain.t.read, 0.99))
	vals["read_qps"] = float64(len(plain.t.read)) / sec
	vals["success_frac"] = ratio(float64(total.attempted-total.failed), float64(total.attempted))
	vals["stream_p50_ms"] = ms(pct(plain.t.stream, 0.50))
	vals["stream_rows_per_s"] = median(plain.t.streamRate)
	vals["write_p50_ms"] = ms(pct(writes, 0.50))
	vals["write_p99_ms"] = ms(writeP99)
	vals["space_amp"] = median(plain.smp.amps)
	vals["mem_peak_mb"] = plain.smp.peak
	vals["loadgen.write_late_p99_ms"] = ms(pct(late, 0.99))
	if n := len(plain.t.read); n < 1000 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d reads; read_p99_ms has fewer than 10 samples beyond it\n", n)
	}
	counterMetrics(vals, plain)

	m := meta(cfg)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		spanMetrics(vals, rec.spans)
		vals["trace.overhead_frac"] = ratio(ms(pct(traced.t.read, 0.5)), ms(pct(plain.t.read, 0.5))) - 1
		if cfg.traceOut != "" {
			if err := rec.write(cfg.traceOut, m); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops, %d failed; %d reads, %d streams, %d write batches\n",
		total.attempted, total.failed, len(plain.t.read), len(plain.t.stream), len(writes))
	for k, ds := range plain.t.byKind {
		fmt.Fprintf(os.Stderr, "perfbench: %-14s n=%-6d p50 %.3f ms  p99 %.3f ms\n", k, len(ds), ms(pct(ds, 0.5)), ms(pct(ds, 0.99)))
	}
	var missing []string
	res.Metrics, missing = collect(defs, vals)
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return res, nil
}

// quiesce checks the ledgers after serving stopped: every leased session
// and arena returned, no epoch pin or admission slot held, and the
// lineitem count back at what was loaded.
func quiesce(e *env) []string {
	var bad []string
	st := e.rt.StatsSnapshot()
	if st.SessionsLeased != st.SessionsReturned {
		bad = append(bad, fmt.Sprintf("sessions leased %d, returned %d", st.SessionsLeased, st.SessionsReturned))
	}
	for _, p := range st.ArenaPools {
		if p.Leases != p.Returns {
			bad = append(bad, fmt.Sprintf("arena pool %s: leases %d, returns %d", p.Name, p.Leases, p.Returns))
		}
	}
	if st.EpochPins != 0 {
		bad = append(bad, fmt.Sprintf("%d epoch pins held", st.EpochPins))
	}
	if st.Serve.InFlight != 0 {
		bad = append(bad, fmt.Sprintf("%d admission slots held", st.Serve.InFlight))
	}
	if n := e.db.Lineitems.Len(); n != e.loaded {
		bad = append(bad, fmt.Sprintf("lineitem count %d, loaded %d", n, e.loaded))
	}
	return bad
}

// counterMetrics derives the per-layer counter metrics from the
// StatsSnapshot deltas of an untraced phase.
func counterMetrics(vals map[string]float64, p *phaseStats) {
	b, a := p.before, p.after
	sec := p.dur.Seconds()
	scans := float64(len(p.t.read) + len(p.t.stream))
	visited := float64(a.BlocksScanned - b.BlocksScanned)
	pruned := float64(a.BlocksPruned - b.BlocksPruned)
	attached := float64(a.AttachedQueries - b.AttachedQueries)
	var leases, reuses int64
	for i, pa := range a.ArenaPools {
		leases += pa.Leases
		reuses += pa.Reuses
		if i < len(b.ArenaPools) {
			leases -= b.ArenaPools[i].Leases
			reuses -= b.ArenaPools[i].Reuses
		}
	}
	requests := float64(a.Serve.Requests - b.Serve.Requests)
	vals["serve.admit_wait_us"] = ratio(float64(a.Serve.AdmitWaitNanos-b.Serve.AdmitWaitNanos)/1e3, requests)
	vals["mem.session_reuse_frac"] = ratio(float64(a.SessionsReused-b.SessionsReused), float64(a.SessionsLeased-b.SessionsLeased))
	vals["mem.blocks_per_query"] = ratio(visited, scans)
	vals["mem.blocks_pruned_frac"] = ratio(pruned, pruned+visited)
	vals["mem.keyset_pruned_frac"] = ratio(float64(a.KeySetPruned-b.KeySetPruned), pruned+visited)
	vals["mem.share_attach_frac"] = ratio(attached, scans)
	vals["mem.catchup_blocks_per_attach"] = ratio(float64(a.CatchUpBlocks-b.CatchUpBlocks), attached)
	vals["region.arena_reuse_frac"] = ratio(float64(reuses), float64(leases))
	vals["region.arena_retained_mb"] = float64(a.ArenaRetainedBytes()) / (1 << 20)
	vals["mem.budget_wait_ms"] = float64(a.BudgetWaitNanos-b.BudgetWaitNanos) / 1e6
	vals["mem.alloc_waits"] = float64(a.AllocWaits - b.AllocWaits)
	vals["mem.governor_rebalances"] = float64(a.Governor.Rebalances - b.Governor.Rebalances)
	vals["mem.pressure_tight_frac"] = ratio(float64(p.smp.tight), float64(p.smp.ticks))
	vals["mem.compactions"] = float64(a.Compactions - b.Compactions)
	vals["mem.compact_busy_frac"] = ratio(float64(a.CompactNanos-b.CompactNanos)/1e9, sec)
	vals["mem.objects_moved_per_s"] = ratio(float64(a.ObjectsMoved-b.ObjectsMoved), sec)
	vals["mem.bytes_reclaimed_mb"] = float64(a.BytesReclaimed-b.BytesReclaimed) / (1 << 20)
	vals["mem.reloc_helped"] = float64(a.RelocHelped - b.RelocHelped)
	vals["mem.reloc_bailouts"] = float64(a.RelocBailouts - b.RelocBailouts)
	vals["mem.groups_aborted"] = float64(a.GroupsAborted - b.GroupsAborted)
}

// spanMetrics derives the per-layer timings from the traced spans.
func spanMetrics(vals map[string]float64, spans []span) {
	type reqSpans struct {
		client, handler, lease, driver, encode, noop time.Duration
		stream, replayed                             bool
	}
	reqs := map[int64]*reqSpans{}
	by := map[string][]time.Duration{}
	var streamEncode []time.Duration
	get := func(id int64) *reqSpans {
		r := reqs[id]
		if r == nil {
			r = &reqSpans{}
			reqs[id] = r
		}
		return r
	}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s.dur())
		switch s.Name {
		case "client":
			get(s.Req).client = s.dur()
		case "serve.handler":
			get(s.Req).handler = s.dur()
		case "core.lease_session":
			get(s.Req).lease = s.dur()
		case "serve.encode":
			get(s.Req).encode = s.dur()
		case "mem.scan_noop":
			get(s.Req).noop = s.dur()
		case "replay":
			get(s.Req).replayed = s.Parent == "client"
		case "tpch.q6window_rows":
			r := get(s.Req)
			r.driver, r.stream = s.dur(), true
		case "tpch.q1", "tpch.q3", "tpch.q6", "tpch.q10", "tpch.q6window":
			get(s.Req).driver = s.dur()
		}
	}
	var handler, transport, self, lease, noop []time.Duration
	for _, r := range reqs {
		if !r.replayed || r.client == 0 || r.handler == 0 {
			continue
		}
		lease = append(lease, r.lease)
		if r.stream {
			streamEncode = append(streamEncode, r.encode)
			continue
		}
		handler = append(handler, r.handler)
		transport = append(transport, r.client-r.handler)
		self = append(self, r.handler-r.lease-r.driver-r.encode)
		noop = append(noop, r.noop)
	}
	vals["serve.handler_p50_ms"] = ms(pct(handler, 0.5))
	vals["serve.transport_p50_ms"] = ms(pct(transport, 0.5))
	vals["serve.self_p50_ms"] = ms(pct(self, 0.5))
	vals["serve.encode_ms"] = ms(pct(streamEncode, 0.5))
	vals["core.lease_session_us"] = float64(pct(lease, 0.5)) / 1e3
	vals["mem.scan_noop_ms"] = ms(pct(noop, 0.5))
	for _, k := range []string{"q1", "q3", "q6", "q10", "q6window", "q6window_rows"} {
		vals["tpch."+k+"_ms"] = ms(pct(by["tpch."+k], 0.5))
	}
	vals["core.add_us_p50"] = float64(pct(by["core.add"], 0.50)) / 1e3
	vals["core.add_us_p99"] = float64(pct(by["core.add"], 0.99)) / 1e3
	vals["core.remove_us_p50"] = float64(pct(by["core.remove"], 0.50)) / 1e3
	vals["core.remove_us_p99"] = float64(pct(by["core.remove"], 0.99)) / 1e3
}

// pct is the p-quantile of ds by the nearest-rank method (0 when empty).
func pct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// windowPct is the median, over consecutive windows of n samples, of
// each window's p-th percentile. A few host stalls then move the one
// window they land in rather than the whole tail.
func windowPct(ds []time.Duration, n int, p float64) time.Duration {
	if len(ds) < 2*n {
		return pct(ds, p)
	}
	var ws []float64
	for i := 0; i+n <= len(ds); i += n {
		ws = append(ws, float64(pct(ds[i:i+n], p)))
	}
	return time.Duration(median(ws))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0 (nothing happened to divide by).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
