package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/serve"
	"repro/internal/tpch"
	"repro/internal/types"
)

// streamKind is the chunked NDJSON endpoint; every other kind returns a
// buffered JSON envelope.
const streamKind = "q6window/rows"

// request is one served operation with its oracle. The seed fixes every
// request's parameters; the oracle is computed before the server sees
// any traffic.
type request struct {
	kind string // endpoint name under /query/
	body []byte
	// want is a buffered response's oracle in canonical JSON (nil for
	// timing-only replays, which have no oracle).
	want []byte
	// rows and rev are a stream's oracle: qualifying rows and their
	// revenue total.
	rows int64
	rev  decimal.Dec128
	// Parameters the in-process replay passes to the tpch driver.
	params tpch.Params
	lo, hi types.Date
}

func (r *request) stream() bool { return r.kind == streamKind }

// requestSet is a workload's parameter sets, one slice per endpoint.
type requestSet struct {
	q1, q3, q6, q10, window, streams []*request
	// coverage holds oracle-less requests for the tpch drivers the mix
	// never calls; the traced run replays them in process so every driver
	// span is measured on every workload.
	coverage []*request
}

// next picks a closed-loop client's next request.
func (rs *requestSet) next(w workload, rng *rand.Rand) *request {
	pick := func(s []*request) *request { return s[rng.IntN(len(s))] }
	if rng.Float64() < w.streamShare {
		return pick(rs.streams)
	}
	x := rng.Float64()
	switch w.name {
	case "dashboard":
		// q6 dominates so the pooled median sits inside the q6 band; the
		// join queries and q1 make the tail.
		switch {
		case x < 0.8:
			return pick(rs.q6)
		case x < 0.87:
			return pick(rs.q10)
		case x < 0.94:
			return pick(rs.q3)
		default:
			return pick(rs.q1)
		}
	case "window_scan":
		return pick(rs.window)
	default: // refresh
		switch {
		case x < 0.2:
			return pick(rs.q1)
		case x < 0.6:
			return pick(rs.q6)
		default:
			return pick(rs.window)
		}
	}
}

// all lists every oracle-checked request (the warm-up sends each once).
func (rs *requestSet) all() []*request {
	var out []*request
	for _, s := range [][]*request{rs.q1, rs.q3, rs.q6, rs.q10, rs.window, rs.streams} {
		out = append(out, s...)
	}
	return out
}

// liveShipDates returns the ship dates of the rows reads can see, sorted.
func liveShipDates(rows []tpch.LineitemRow) []types.Date {
	dates := make([]types.Date, 0, len(rows))
	for i := range rows {
		if d := rows[i].ShipDate; d <= shadowFloor {
			dates = append(dates, d)
		}
	}
	slices.Sort(dates)
	return dates
}

// window draws an inclusive ship-date window holding a fraction in
// [fmin, fmax] of the live rows. Drawing by rank rather than by date
// keeps the work per request independent of how dense the dates are.
func window(rng *rand.Rand, dates []types.Date, fmin, fmax float64) (types.Date, types.Date) {
	n := len(dates)
	k := max(1, int(float64(n)*(fmin+rng.Float64()*(fmax-fmin))))
	i := rng.IntN(n - k + 1)
	return dates[i], dates[i+k-1]
}

// windowOracle is the serial fold over the generated rows: qualifying
// rows with ship date in [lo, hi] and their revenue sum. sorted rows are
// narrowed by binary search first.
func windowOracle(rows []tpch.LineitemRow, sorted bool, lo, hi types.Date) (n int64, sum decimal.Dec128) {
	a, b := 0, len(rows)
	if sorted {
		a = sort.Search(len(rows), func(i int) bool { return rows[i].ShipDate >= lo })
		b = sort.Search(len(rows), func(i int) bool { return rows[i].ShipDate > hi })
	}
	for i := a; i < b; i++ {
		r := &rows[i]
		if r.ShipDate < lo || r.ShipDate > hi {
			continue
		}
		decimal.MulAdd(&sum, &r.ExtendedPrice, &r.Discount)
		n++
	}
	return n, sum
}

// recode decodes a response into T and re-encodes it: the canonical
// form oracle and response are compared in.
func recode[T any](body []byte) ([]byte, error) {
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return json.Marshal(v)
}

// canonical re-encodes a buffered response body of the given endpoint.
func canonical(kind string, body []byte) ([]byte, error) {
	switch kind {
	case "q1":
		return recode[serve.RowsResponse[tpch.Q1Row]](body)
	case "q3":
		return recode[serve.RowsResponse[tpch.Q3Row]](body)
	case "q10":
		return recode[serve.RowsResponse[tpch.Q10Row]](body)
	default: // q6, q6window
		return recode[serve.SumResponse](body)
	}
}

// check compares a buffered response body with the oracle. Requests
// without an oracle (coverage replays) pass.
func (r *request) check(body []byte) error {
	if r.want == nil {
		return nil
	}
	got, err := canonical(r.kind, body)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, r.want) {
		return fmt.Errorf("response %.200s differs from the serial oracle %.200s", got, r.want)
	}
	return nil
}

// checkStream validates an NDJSON body against the request's oracle: the
// last line must be the {"done":true} trailer, and its row count, the
// rows received and their revenue total must all match.
func checkStream(body []byte, r *request) (int64, error) {
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	var tr serve.StreamTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil || !tr.Done || tr.Error != nil {
		return 0, fmt.Errorf("stream ended without the done trailer: %.200s", lines[len(lines)-1])
	}
	var n int64
	var sum decimal.Dec128
	for _, ln := range lines[:len(lines)-1] {
		var h tpch.Q6WindowHit
		if err := json.Unmarshal(ln, &h); err != nil {
			return 0, fmt.Errorf("stream row: %w", err)
		}
		decimal.AddAssign(&sum, &h.Revenue)
		n++
	}
	if n != tr.Rows || n != r.rows || sum != r.rev {
		return 0, fmt.Errorf("stream sent %d rows (trailer %d) revenue %v; oracle %d rows revenue %v",
			n, tr.Rows, sum, r.rows, r.rev)
	}
	return n, nil
}

// oracleCorruption perturbs every oracle by one decimal unit (or one
// row); the benchmark's own tests use it to prove the checks can fail.
type oracleCorruption bool

func (c oracleCorruption) bump(d *decimal.Dec128) {
	if c {
		*d = d.Add(decimal.FromUnits(1))
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // params and oracle types are plain structs
	}
	return b
}

// buildRequests draws the workload's parameter sets from the seed and
// computes each one's oracle: the serial tpch drivers for q1/q3/q6/q10,
// and a serial fold over the generated rows for the window scans.
func buildRequests(e *env, seed uint64, corrupt oracleCorruption) (*requestSet, error) {
	rng := rand.New(rand.NewPCG(seed, 0x7e9))
	rs := &requestSet{}
	rows := e.data.Lineitems
	dates := liveShipDates(rows)
	add := func(set *[]*request, r *request) { *set = append(*set, r) }

	newQ1 := func(oracle bool) *request {
		delta := 60 + rng.IntN(61)
		p := tpch.DefaultParams()
		p.Q1Delta = delta
		r := &request{kind: "q1", body: mustJSON(serve.Q1Params{Delta: delta}), params: p}
		if oracle {
			want := e.q.Q1(e.sess, p)
			if len(want) > 0 {
				corrupt.bump(&want[0].SumQty)
			}
			r.want = mustJSON(serve.RowsResponse[tpch.Q1Row]{Rows: nonNil(want)})
		}
		return r
	}
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	newQ3 := func(oracle bool) *request {
		p := tpch.DefaultParams()
		p.Q3Segment = segments[rng.IntN(len(segments))]
		p.Q3Date = types.MustDate("1995-03-01").AddDays(rng.IntN(31))
		r := &request{kind: "q3", body: mustJSON(serve.Q3Params{Segment: p.Q3Segment, Date: p.Q3Date}), params: p}
		if oracle {
			want := e.q.Q3(e.sess, p)
			if len(want) > 0 {
				corrupt.bump(&want[0].Revenue)
			}
			r.want = mustJSON(serve.RowsResponse[tpch.Q3Row]{Rows: nonNil(want)})
		}
		return r
	}
	newQ6 := func(oracle bool) *request {
		p := tpch.DefaultParams()
		p.Q6Date = types.MakeDate(1993+rng.IntN(5), 1, 1)
		p.Q6Discount = decimal.FromCents(int64(2 + rng.IntN(8)))
		p.Q6Quantity = decimal.FromInt64(int64(24 + rng.IntN(2)))
		r := &request{kind: "q6", params: p,
			body: mustJSON(serve.Q6Params{Date: p.Q6Date, Discount: p.Q6Discount, Quantity: p.Q6Quantity})}
		if oracle {
			want := e.q.Q6(e.sess, p)
			corrupt.bump(&want)
			r.want = mustJSON(serve.SumResponse{Sum: want})
		}
		return r
	}
	newQ10 := func(oracle bool) *request {
		p := tpch.DefaultParams()
		p.Q10Date = types.MustDate("1993-02-01").AddMonths(rng.IntN(24))
		r := &request{kind: "q10", body: mustJSON(serve.Q10Params{Date: p.Q10Date}), params: p}
		if oracle {
			want := e.q.Q10(e.sess, p)
			if len(want) > 0 {
				corrupt.bump(&want[0].Revenue)
			}
			r.want = mustJSON(serve.RowsResponse[tpch.Q10Row]{Rows: nonNil(want)})
		}
		return r
	}
	newWindow := func(kind string, fmin, fmax float64, oracle bool) *request {
		a, b := window(rng, dates, fmin, fmax)
		r := &request{kind: kind, body: mustJSON(serve.Q6WindowParams{Lo: a, Hi: b}), lo: a, hi: b}
		if oracle {
			r.rows, r.rev = windowOracle(rows, e.w.sorted, a, b)
			corrupt.bump(&r.rev)
			if kind != streamKind {
				r.want = mustJSON(serve.SumResponse{Sum: r.rev})
			}
		}
		return r
	}

	switch e.w.name {
	case "dashboard":
		// 32 parameter sets per query, so a seed's draw barely moves where
		// the pooled median falls inside the q6 band.
		for i := 0; i < 32; i++ {
			add(&rs.q1, newQ1(true))
			add(&rs.q3, newQ3(true))
			add(&rs.q6, newQ6(true))
			add(&rs.q10, newQ10(true))
		}
		for i := 0; i < 32; i++ {
			add(&rs.streams, newWindow(streamKind, 0.005, 0.005, true))
		}
		for i := 0; i < 4; i++ {
			add(&rs.coverage, newWindow("q6window", 0.01, 0.05, false))
		}
	case "window_scan":
		for i := 0; i < 128; i++ {
			add(&rs.window, newWindow("q6window", 0.01, 0.05, true))
		}
		for i := 0; i < 64; i++ {
			add(&rs.streams, newWindow(streamKind, 0.005, 0.005, true))
		}
		for i := 0; i < 2; i++ {
			add(&rs.coverage, newQ1(false))
			add(&rs.coverage, newQ3(false))
			add(&rs.coverage, newQ6(false))
			add(&rs.coverage, newQ10(false))
		}
	case "refresh":
		for i := 0; i < 8; i++ {
			add(&rs.q1, newQ1(true))
			add(&rs.q6, newQ6(true))
		}
		for i := 0; i < 32; i++ {
			add(&rs.window, newWindow("q6window", 0.01, 0.05, true))
		}
		for i := 0; i < 32; i++ {
			add(&rs.streams, newWindow(streamKind, 0.005, 0.005, true))
		}
		for i := 0; i < 4; i++ {
			add(&rs.coverage, newQ3(false))
			add(&rs.coverage, newQ10(false))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", e.w.name)
	}
	return rs, nil
}

// nonNil keeps an empty oracle encoding as [] rather than null.
func nonNil[R any](rows []R) []R {
	if rows == nil {
		return []R{}
	}
	return rows
}

// noopPred is the lineitem synopsis predicate the request's driver pushes
// into its lineitem scan (for q3 and q10 without the key-set refinement
// their earlier stages add).
func noopPred(e *env, r *request) *mem.ScanPredicate {
	p := e.db.Lineitems.Predicate()
	switch r.kind {
	case "q1":
		return p.DateRange("ShipDate", types.Date(math.MinInt32), r.params.Q1Cutoff())
	case "q3":
		return p.DateRange("ShipDate", r.params.Q3Date+1, types.Date(math.MaxInt32))
	case "q6":
		one := decimal.MustParse("0.01")
		return p.DateRange("ShipDate", r.params.Q6Date, r.params.Q6Date.AddYears(1)-1).
			DecimalRange("Discount", r.params.Q6Discount.Sub(one), r.params.Q6Discount.Add(one)).
			DecimalRange("Quantity", decimal.Dec128{Hi: math.MinInt64}, r.params.Q6Quantity.Sub(decimal.FromUnits(1)))
	case "q10":
		return p.Int32Range("ReturnFlag", 'R', 'R')
	default: // q6window and its stream
		return p.DateRange("ShipDate", r.lo, r.hi)
	}
}
