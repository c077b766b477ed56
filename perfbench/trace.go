package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/serve"
	"repro/internal/tpch"
)

// Tracing records spans from the benchmark's own side of each layer
// boundary: the client round trip, the server's http.Handler (wrapped),
// and an in-process replay of every traced request through the public
// functions the handler calls — core.Runtime.LeaseSession, the tpch
// driver, JSON encoding of its result, and a mem block scan with the
// request's predicate and an empty kernel. The program itself carries no
// instrumentation.

// span is one timed call. Spans of one request share req; parent names
// the enclosing span of the same request.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name string, req int64, parent string, start, end time.Time) {
	s := span{Name: name, Req: req, Parent: parent,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write stores the spans as JSON lines, preceded by one meta line.
func (r *recorder) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(map[string]any{"meta": meta})
	for i := 0; err == nil && i < len(r.spans); i++ {
		err = enc.Encode(r.spans[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedHandler wraps the server's handler; while a recorder is set it
// records a serve.handler span per request. Untraced phases pay one
// atomic load.
type tracedHandler struct {
	next http.Handler
	rec  atomic.Pointer[recorder]
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.rec.Load()
	if rec == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	id, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64) // 0 for untagged requests
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	rec.add("serve.handler", id, "client", t0, time.Now())
}

// driverSpan names the tpch driver span of a request kind.
func driverSpan(kind string) string {
	if kind == streamKind {
		return "tpch.q6window_rows"
	}
	return "tpch." + kind
}

// replay re-runs a request in process through the calls the handler
// makes, timing each, then checks the encoded result against the oracle
// (when the request has one) outside the timed spans.
func (g *loadgen) replay(ctx context.Context, r *request, id int64, parent string) error {
	rec, e, workers := g.rec, g.e, g.e.w.workers
	t0 := time.Now()
	sess, err := e.rt.LeaseSession()
	rec.add("core.lease_session", id, "replay", t0, time.Now())
	if err != nil {
		return fmt.Errorf("lease session: %w", err)
	}
	defer e.rt.ReturnSession(sess)

	var resp any
	var hits []tpch.Q6WindowHit
	t1 := time.Now()
	switch r.kind {
	case "q1":
		var rows []tpch.Q1Row
		rows, err = e.q.Q1ParCtx(ctx, sess, r.params, workers)
		resp = serve.RowsResponse[tpch.Q1Row]{Rows: rows}
	case "q3":
		var rows []tpch.Q3Row
		rows, err = e.q.Q3ParCtx(ctx, sess, r.params, workers)
		resp = serve.RowsResponse[tpch.Q3Row]{Rows: rows}
	case "q6":
		var sum decimal.Dec128
		sum, err = e.q.Q6ParCtx(ctx, sess, r.params, workers)
		resp = serve.SumResponse{Sum: sum}
	case "q10":
		var rows []tpch.Q10Row
		rows, err = e.q.Q10ParCtx(ctx, sess, r.params, workers)
		resp = serve.RowsResponse[tpch.Q10Row]{Rows: rows}
	case "q6window":
		var sum decimal.Dec128
		sum, err = e.q.Q6WindowSharedCtx(ctx, sess, r.lo, r.hi, workers, true)
		resp = serve.SumResponse{Sum: sum}
	case streamKind:
		err = e.q.Q6WindowRowsCtx(ctx, sess, r.lo, r.hi, workers, true, func(rows []tpch.Q6WindowHit) error {
			hits = append(hits, rows...)
			return nil
		})
	default:
		return fmt.Errorf("no replay for %q", r.kind)
	}
	rec.add(driverSpan(r.kind), id, "replay", t1, time.Now())
	if err != nil {
		return err
	}

	// Encode the way the handler does: an indented envelope, or one
	// NDJSON line per row plus the trailer.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	t2 := time.Now()
	if r.stream() {
		for i := range hits {
			if err = enc.Encode(hits[i]); err != nil {
				break
			}
		}
		if err == nil {
			err = enc.Encode(serve.StreamTrailer{Done: true, Rows: int64(len(hits))})
		}
	} else {
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
	}
	rec.add("serve.encode", id, "replay", t2, time.Now())
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}

	t3 := time.Now()
	err = e.db.Lineitems.ParallelBlocksPredCtx(ctx, sess, workers, noopPred(e, r),
		func(int, *core.Session, *mem.Block) error { return nil })
	t4 := time.Now()
	rec.add("mem.scan_noop", id, "replay", t3, t4)
	rec.add("replay", id, parent, t0, t4)
	if err != nil {
		return fmt.Errorf("noop scan: %w", err)
	}

	if r.stream() {
		_, err = checkStream(buf.Bytes(), r)
		return err
	}
	return r.check(buf.Bytes())
}
