package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/serve"
	"repro/internal/tpch"
	"repro/internal/types"
)

// workload is one traffic mix over one dataset shape.
type workload struct {
	name string
	sf   float64
	// sorted loads lineitems in ship-date order (tight ship-date
	// synopses, so narrow windows prune most blocks).
	sorted bool
	// shadowFrac adds that fraction of extra lineitems whose ship dates
	// lie past shadowFloor, interleaved with the live rows at load. No
	// read predicate selects them, so reads keep a fixed oracle while a
	// writer churns them.
	shadowFrac float64
	// budgetX sets MemoryBudget to this multiple of the governed bytes
	// measured after setup (0 = unlimited).
	budgetX float64
	// clients is the number of closed-loop HTTP readers (capped at
	// nproc); workers the ?workers= knob they send; streamShare the
	// fraction of their requests that are q6window/rows streams.
	clients, workers int
	streamShare      float64
	// writeRate is the open-loop shadow writer's batch rate (batches/s,
	// 0 = no writer in the mix) and writeBatch the shadow rows each batch
	// removes and re-adds.
	writeRate  float64
	writeBatch int
}

// shadowFloor is the last live ship date: shadow rows ship after it,
// and every read predicate of the benchmark ends at or before it.
var shadowFloor = types.MustDate("1998-12-01")

var workloads = map[string]workload{
	// Kernels, parallel fan-out, partition merge and region group tables:
	// unsorted data prunes nothing, one client, no sharing, no writes.
	"dashboard": {name: "dashboard", sf: 0.05, clients: 1, workers: 2, streamShare: 0.05},
	// Narrow windows over a ship-date-sorted heap of about 320 MiB, a few
	// times a server's last-level cache: the decision pass, session lease,
	// admission, HTTP, share attach and NDJSON encoding carry the load.
	"window_scan": {name: "window_scan", sf: 0.2, sorted: true, clients: 2, workers: 1, streamShare: 0.25},
	// Shadow-row churn under a 1.5x budget beside one reader: allocation,
	// epoch reclamation, synopsis widening and the governor carry the load.
	"refresh": {name: "refresh", sf: 0.05, shadowFrac: 0.25, budgetX: 1.5, clients: 1, workers: 2, streamShare: 0.1,
		writeRate: 200, writeBatch: 32},
}

// The write probe gives the workloads without a writer a write latency:
// probeWarmBatches untimed after the read warm-up, then probeWriteBatches
// batches in probeSlices slices between slices of the measured phase,
// paced at probeWriteRate on an otherwise idle server. Each batch adds
// probeWriteBatch rows past shadowFloor and removes them again and is
// timed from its start. The batches are large so that one preempted row
// does not make a tail, and write_p99_ms is the median of the p99 of each
// probeWindow consecutive batches, so a few seconds of host noise move
// only the windows they fall in.
const (
	probeWriteRate    = 1000
	probeWarmBatches  = 1000
	probeWriteBatches = 8000
	probeWriteBatch   = 256
	probeSlices       = 8
	probeWindow       = 500
)

// env is one set-up serving process: runtime, collections, Maintainer
// and an HTTP server on a loopback listener.
type env struct {
	w    workload
	rt   *core.Runtime
	sess *core.Session // loader and oracle session
	db   *tpch.SMCDB
	q    *tpch.SMCQueries
	mt   *mem.Maintainer
	th   *tracedHandler
	hs   *http.Server
	done chan error
	base string

	// data is the generated dataset, kept until the oracles are built.
	data *tpch.Dataset
	// loaded is the lineitem count after load (live plus shadow rows).
	loaded int
	// shadow holds the refs of the current shadow rows; templates the
	// values new shadow rows are copied from.
	shadow    []core.Ref[tpch.SLineitem]
	templates []tpch.SLineitem

	genTime, loadTime, setupTime time.Duration
}

// setUp generates the workload's dataset, prepares it (sort or shadow
// population), loads it, and starts the Maintainer and the server —
// everything setup_s times. Oracles and warm-up are not part of it.
func setUp(w workload, seed uint64) (*env, error) {
	t0 := time.Now()
	data := tpch.Generate(w.sf, seed)
	genTime := time.Since(t0)
	if len(data.Lineitems) == 0 {
		return nil, fmt.Errorf("empty lineitem table at SF %v", w.sf)
	}
	if w.sorted {
		data.Lineitems = sortByShipDate(data.Lineitems)
	}
	if w.shadowFrac > 0 {
		data.Lineitems = withShadow(data.Lineitems, w.shadowFrac, rand.New(rand.NewPCG(seed, 0x5eed)))
	}

	rt, err := core.NewRuntime(core.Options{CompactionPacking: core.PackCluster})
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	e := &env{w: w, rt: rt, data: data, genTime: genTime}
	fail := func(err error) (*env, error) {
		e.tearDown()
		return nil, err
	}
	if e.sess, err = rt.NewSession(); err != nil {
		return fail(fmt.Errorf("session: %w", err))
	}
	t1 := time.Now()
	if e.db, err = tpch.LoadSMC(rt, e.sess, data, core.RowIndirect); err != nil {
		return fail(fmt.Errorf("load: %w", err))
	}
	e.loadTime = time.Since(t1)
	e.loaded = e.db.Lineitems.Len()
	e.q = tpch.NewSMCQueries(e.db)
	e.collectShadow()
	if w.budgetX > 0 {
		rt.SetMemoryBudget(int64(w.budgetX * float64(rt.Manager().Governor().GovernedUsed())))
	}

	e.mt = rt.StartMaintainer(mem.MaintainerConfig{Interval: 250 * time.Millisecond})
	srv := serve.New(rt, e.q, e.mt, serve.Config{
		MaxConcurrent:  64,
		AdmitWait:      100 * time.Millisecond,
		DefaultTimeout: 10 * time.Second,
		DefaultWorkers: 1,
	})
	e.th = &tracedHandler{next: srv}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(fmt.Errorf("listen: %w", err))
	}
	e.hs = &http.Server{Handler: e.th}
	e.done = make(chan error, 1)
	go func() { e.done <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.setupTime = time.Since(t0)
	return e, nil
}

// collectShadow records the refs of the loaded shadow rows and a pool
// of row templates for the writer. Workloads without a shadow population
// take their templates from the first live rows (the writer moves their
// ship dates past shadowFloor before adding them).
func (e *env) collectShadow() {
	const maxTemplates = 4096
	withShadow := e.w.shadowFrac > 0
	e.db.Lineitems.ForEach(e.sess, func(r core.Ref[tpch.SLineitem], v *tpch.SLineitem) bool {
		isShadow := v.ShipDate > shadowFloor
		if isShadow {
			e.shadow = append(e.shadow, r)
		}
		if (isShadow || !withShadow) && len(e.templates) < maxTemplates {
			e.templates = append(e.templates, *v)
		}
		// Without a shadow population only the templates are needed.
		return withShadow || len(e.templates) < maxTemplates
	})
}

// stopServing shuts the HTTP server down and stops the Maintainer,
// waiting for both; the quiesce check runs after it.
func (e *env) stopServing() error {
	var err error
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = e.hs.Shutdown(ctx)
		cancel()
		if serr := <-e.done; serr != nil && serr != http.ErrServerClosed && err == nil {
			err = serr
		}
		e.hs = nil
	}
	if e.mt != nil {
		e.mt.Stop()
		e.mt = nil
	}
	return err
}

// tearDown releases everything setUp built.
func (e *env) tearDown() {
	_ = e.stopServing() // a set-up being discarded has nothing to report
	if e.sess != nil {
		e.sess.Close()
	}
	e.rt.Close()
	e.data = nil
}

// sortByShipDate returns the rows in ship-date order, stable within a
// date (a counting sort: dates span a few thousand days).
func sortByShipDate(rows []tpch.LineitemRow) []tpch.LineitemRow {
	lo, hi := rows[0].ShipDate, rows[0].ShipDate
	for i := range rows {
		lo, hi = min(lo, rows[i].ShipDate), max(hi, rows[i].ShipDate)
	}
	start := make([]int, int(hi-lo)+2)
	for i := range rows {
		start[int(rows[i].ShipDate-lo)+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	out := make([]tpch.LineitemRow, len(rows))
	for i := range rows {
		k := int(rows[i].ShipDate - lo)
		out[start[k]] = rows[i]
		start[k]++
	}
	return out
}

// withShadow interleaves shadow copies: after each row, with probability
// frac, a copy whose dates move past shadowFloor.
func withShadow(rows []tpch.LineitemRow, frac float64, rng *rand.Rand) []tpch.LineitemRow {
	out := make([]tpch.LineitemRow, 0, int(float64(len(rows))*(1+frac))+1)
	for i := range rows {
		out = append(out, rows[i])
		if rng.Float64() < frac {
			c := rows[i]
			c.ShipDate = shadowDate(rng)
			c.CommitDate = c.ShipDate
			c.ReceiptDate = c.ShipDate.AddDays(1)
			out = append(out, c)
		}
	}
	return out
}

// shadowDate draws a ship date in the year after shadowFloor.
func shadowDate(rng *rand.Rand) types.Date { return shadowFloor.AddDays(1 + rng.IntN(365)) }
