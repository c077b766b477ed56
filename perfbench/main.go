// Command perfbench is the repository's serving benchmark. It sets up
// an in-process serve.Server over TPC-H data in self-managed
// collections, drives it over loopback HTTP from at most nproc client
// goroutines and connections, checks every answer against a serial
// oracle, and prints one JSON result line.
//
//	perfbench --workload dashboard|window_scan|refresh --seed N --seconds S --trace 0|1
//
// Workloads:
//
//   - dashboard: SF 0.05 in generator row order, 1 closed-loop client
//     sending ?workers=2 q1/q3/q6/q10 drawn from 32 parameter sets each.
//     Kernels, parallel fan-out, merge and region tables do the work;
//     pruning, sharing and compaction have nothing to do.
//   - window_scan: SF 0.2 loaded in ship-date order (a heap a few times
//     the last-level cache), 2 closed-loop clients at workers=1 sending
//     q6window over windows holding 1–5% of the rows, one request in four
//     a q6window/rows stream over 0.5% of the rows. The decision pass,
//     session lease, admission, HTTP, share attach and NDJSON encoding
//     do the work.
//   - refresh: SF 0.05 plus 25% shadow lineitems dated past 1998-12-01,
//     interleaved at load, under a memory budget of 1.5x the governed
//     bytes after set-up. An open-loop writer removes and re-adds shadow
//     rows at 200 batches/s beside 1 closed-loop q1/q6/q6window reader
//     whose predicates never select a shadow row.
//
// So that every workload reports every end-to-end metric, dashboard and
// refresh readers also send a small share of streams, and dashboard and
// window_scan pause their readers 8 times to run a slice of a write probe
// (8000 paced batches in all after 1000 warm-up ones, each adding 256
// rows past 1998-12-01 and removing them again, timed by service time;
// write_p99_ms is the median p99 of windows of 500 batches). --trace 0
// prints the end-to-end metrics; --trace 1 runs half the time untraced
// and half traced, prints the per-layer metrics (see
// metrics.go for which end-to-end metric each should move) and writes
// the spans as JSON lines to --trace-out.
//
// The process exits 1 on a wrong answer or a failed quiesce check, and
// 2 when it cannot run at all; run.sh builds and runs it from the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name     = flag.String("workload", "", "dashboard, window_scan or refresh")
		seed     = flag.Uint64("seed", 1, "seed for the generated data and every request parameter")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		traceOut = flag.String("trace-out", "", "span file of a traced run (default .bench_build/traces/<workload>-<seed>.jsonl)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceOut: *traceOut,
	}
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = fmt.Sprintf(".bench_build/traces/%s-%d.jsonl", w.name, *seed)
	}
	meta, _ := json.Marshal(meta(cfg)) // a map of plain values always encodes
	fmt.Printf("{\"meta\": %s}\n", meta)

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
