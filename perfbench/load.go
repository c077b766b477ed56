package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/tpch"
)

// reqIDHeader carries the client's request id to the traced handler, so
// the handler span joins the client and replay spans of one request.
const reqIDHeader = "X-Bench-Req"

// tally is one load generator's outcome: latencies of the operations
// that succeeded, and counts of everything attempted and failed.
type tally struct {
	read, stream, write, late []time.Duration
	streamRate                []float64 // rows/s per stream
	byKind                    map[string][]time.Duration
	attempted, failed, wrong  int64
	errs                      []string
}

func (t *tally) fail(wrong bool, format string, args ...any) {
	t.failed++
	if wrong {
		t.wrong++
	}
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// note records latencies per endpoint (a diagnostic printed to stderr).
func (t *tally) note(kind string, ds ...time.Duration) {
	if t.byKind == nil {
		t.byKind = map[string][]time.Duration{}
	}
	t.byKind[kind] = append(t.byKind[kind], ds...)
}

func (t *tally) merge(o *tally) {
	t.read = append(t.read, o.read...)
	t.stream = append(t.stream, o.stream...)
	t.write = append(t.write, o.write...)
	t.late = append(t.late, o.late...)
	t.streamRate = append(t.streamRate, o.streamRate...)
	for k, v := range o.byKind {
		t.note(k, v...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for _, s := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, s)
		}
	}
}

// loadgen drives one env: a keep-alive HTTP client capped at the client
// count, and the request-id counter spans share.
type loadgen struct {
	e       *env
	hc      *http.Client
	tr      *http.Transport
	clients int
	dials   atomic.Int64
	ids     atomic.Int64
	// rec is the span recorder while a traced phase runs (nil otherwise).
	rec *recorder
}

func newLoadgen(e *env, clients int) *loadgen {
	g := &loadgen{e: e, clients: clients}
	g.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			g.dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	g.hc = &http.Client{Transport: g.tr}
	return g
}

// do sends one request, reads the whole body, then checks it against the
// oracle. Latency runs from send to the last body byte; checking is not
// timed. With a recorder set, the request is then replayed in process.
func (g *loadgen) do(ctx context.Context, r *request, t *tally) {
	t.attempted++
	id := g.ids.Add(1)
	url := g.e.base + "/query/" + r.kind + "?workers=" + strconv.Itoa(g.e.w.workers)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(r.body))
	if err != nil {
		t.fail(false, "%s: %v", r.kind, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	rec := g.rec
	if rec != nil {
		req.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := g.hc.Do(req)
	if err != nil {
		t.fail(false, "%s: %v", r.kind, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	lat := t1.Sub(t0)
	if rec != nil {
		rec.add("client", id, "", t0, t1)
	}
	if err != nil {
		t.fail(false, "%s: read body: %v", r.kind, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		t.fail(false, "%s: status %d: %.200s", r.kind, resp.StatusCode, body)
		return
	}
	if r.stream() {
		n, err := checkStream(body, r)
		if err != nil {
			t.fail(true, "%s %s: %v", r.kind, r.body, err)
			return
		}
		t.stream = append(t.stream, lat)
		t.streamRate = append(t.streamRate, float64(n)/lat.Seconds())
	} else {
		if err := r.check(body); err != nil {
			t.fail(true, "%s %s: %v", r.kind, r.body, err)
			return
		}
		t.read = append(t.read, lat)
	}
	t.note(r.kind, lat)
	if rec != nil {
		if err := g.replay(ctx, r, id, "client"); err != nil {
			t.fail(true, "replay %s %s: %v", r.kind, r.body, err)
		}
	}
}

// readers runs the workload's closed-loop clients until the deadline.
func (g *loadgen) readers(rs *requestSet, seed uint64, phase int, deadline time.Time) *tally {
	out := make([]tally, g.clients)
	var wg sync.WaitGroup
	for c := 0; c < g.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(phase)<<8|uint64(c)))
			for time.Now().Before(deadline) {
				g.do(context.Background(), rs.next(g.e.w, rng), &out[c])
			}
		}(c)
	}
	wg.Wait()
	var t tally
	for i := range out {
		t.merge(&out[i])
	}
	return &t
}

// writer is the in-process writer: the refresh workload's shadow churn,
// or the write probe on the others.
type writer struct {
	e    *env
	sess *core.Session
	rng  *rand.Rand
	// deficit counts shadow rows removed whose replacement Add failed;
	// the next batch adds them back so the live count converges.
	deficit int
}

func newWriter(e *env, seed uint64) (*writer, error) {
	s, err := e.rt.NewSession()
	if err != nil {
		return nil, fmt.Errorf("writer session: %w", err)
	}
	return &writer{e: e, sess: s, rng: rand.New(rand.NewPCG(seed, 0xa11))}, nil
}

func (w *writer) close() { w.sess.Close() }

// newRow copies a template row with a fresh shadow ship date.
func (w *writer) newRow() *tpch.SLineitem {
	v := w.e.templates[w.rng.IntN(len(w.e.templates))]
	v.ShipDate = shadowDate(w.rng)
	v.CommitDate = v.ShipDate
	v.ReceiptDate = v.ShipDate.AddDays(1)
	return &v
}

// timed runs one Add or Remove, recording its span when traced.
func timed(rec *recorder, name string, id int64, fn func() error) error {
	if rec == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	rec.add(name, id, "loadgen.batch", t0, time.Now())
	return err
}

// churn is a refresh batch: remove k seeded shadow rows, then add as many
// new ones (plus any earlier deficit).
func (w *writer) churn(rec *recorder, id int64, k int) error {
	c := w.e.db.Lineitems
	var firstErr error
	for i := 0; i < k && len(w.e.shadow) > 0; i++ {
		j := w.rng.IntN(len(w.e.shadow))
		ref := w.e.shadow[j]
		last := len(w.e.shadow) - 1
		w.e.shadow[j] = w.e.shadow[last]
		w.e.shadow = w.e.shadow[:last]
		if err := timed(rec, "core.remove", id, func() error { return c.Remove(w.sess, ref) }); err != nil {
			return fmt.Errorf("remove: %w", err)
		}
		w.deficit++
	}
	for n := w.deficit; n > 0; n-- {
		var ref core.Ref[tpch.SLineitem]
		err := timed(rec, "core.add", id, func() (err error) { ref, err = c.Add(w.sess, w.newRow()); return err })
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("add: %w", err)
			}
			break
		}
		w.e.shadow = append(w.e.shadow, ref)
		w.deficit--
	}
	return firstErr
}

// probe is a write-probe batch: add k rows past shadowFloor, then remove
// them again, leaving the live set as loaded.
func (w *writer) probe(rec *recorder, id int64, k int) error {
	c := w.e.db.Lineitems
	refs := make([]core.Ref[tpch.SLineitem], 0, k)
	var firstErr error
	for i := 0; i < k; i++ {
		var ref core.Ref[tpch.SLineitem]
		err := timed(rec, "core.add", id, func() (err error) { ref, err = c.Add(w.sess, w.newRow()); return err })
		if err != nil {
			firstErr = fmt.Errorf("add: %w", err)
			break
		}
		refs = append(refs, ref)
	}
	for _, ref := range refs {
		if err := timed(rec, "core.remove", id, func() error { return c.Remove(w.sess, ref) }); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("remove: %w", err)
		}
	}
	return firstErr
}

// batchFunc is one kind of write batch (churn or probe).
type batchFunc func(rec *recorder, id int64, k int) error

// run issues write batches at rate per second until the deadline or,
// when batches > 0, until that many were issued. With fromDue each batch
// is timed from its due time (open loop: a stall also charges the batches
// queued behind it); otherwise from its start (service time).
func (w *writer) run(g *loadgen, rate float64, batches int, deadline time.Time, k int, batch batchFunc, fromDue bool) *tally {
	var t tally
	rec := g.rec
	start := time.Now()
	for i := 0; batches <= 0 || i < batches; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if batches <= 0 && !due.Before(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		id := g.ids.Add(1)
		err := batch(rec, id, k)
		t1 := time.Now()
		if rec != nil {
			rec.add("loadgen.batch", id, "", t0, t1)
		}
		t.attempted++
		t.late = append(t.late, t0.Sub(due))
		if err != nil {
			t.fail(false, "write batch: %v", err)
			continue
		}
		if fromDue {
			t.write = append(t.write, t1.Sub(due))
		} else {
			t.write = append(t.write, t1.Sub(t0))
		}
	}
	return &t
}

// drain re-adds any deficit left by failed adds, so the live count is
// back at the loaded count before the quiesce check.
func (w *writer) drain() error {
	for tries := 0; w.deficit > 0 && tries < 100; tries++ {
		if err := w.churn(nil, 0, 0); err == nil {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	if w.deficit > 0 {
		return fmt.Errorf("%d shadow rows could not be re-added", w.deficit)
	}
	return nil
}

// sampler tracks memory while a phase runs: the peak of governed bytes
// plus Go heap in use (every 100ms), lineitem space amplification (every
// second), and how often the governor reported pressure.
type sampler struct {
	e            *env
	stop, done   chan struct{}
	peak         float64 // MiB
	amps         []float64
	ticks, tight int
}

func startSampler(e *env) *sampler {
	s := &sampler{e: e, stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	ms := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	rowSize := float64(s.e.db.Lineitems.Schema().Size)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(ms)
		gov := s.e.rt.Manager().Governor()
		used := float64(gov.GovernedUsed()) + float64(ms[0].Value.Uint64()+ms[1].Value.Uint64())
		s.peak = max(s.peak, used/(1<<20))
		if s.ticks%10 == 0 {
			c := s.e.db.Lineitems
			s.amps = append(s.amps, float64(c.MemoryBytes())/(float64(c.Len())*rowSize))
		}
		if gov.Level() != mem.Healthy {
			s.tight++
		}
		s.ticks++
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() *sampler {
	close(s.stop)
	<-s.done
	return s
}
