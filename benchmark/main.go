// Command benchmark is the repository's performance ruler: four
// closed-loop workloads against this checkout's own ranksqld (and, for
// embed_join, the embedded engine), end-to-end metrics with regression
// bounds, and a traced run that times each layer from outside. See
// README.md in this directory; BENCHMARK.json at the repository root
// records the contract.
//
//	bash benchmark/run.sh --workload serve_topk --seed 1 --seconds 20 --trace 0
//	go run -C benchmark .                      # all four workloads, timed and traced
//	go run -C benchmark . -repeat 5 -out A.json
//	go run -C benchmark . compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "workload to run: serve_topk, serve_mixed, embed_join or router_topk (default: all four, timed then traced)")
		seed     = flag.Int64("seed", 1, "seed of the generated op streams (and of embed_join's database)")
		seconds  = flag.Int("seconds", 20, "length of the timed window in seconds")
		trace    = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		repeat   = flag.Int("repeat", 1, "run this many times with seeds seed, seed+1, … and report medians and quartiles")
		out      = flag.String("out", "", "write the full report (runs, diagnostics, machine) to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -repeat must be at least 1, -trace 0 or 1")
		os.Exit(2)
	}
	ok, err := runMain(*workload, *seed, *seconds, *trace == 1, *repeat, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	if !ok {
		os.Exit(1)
	}
}

// runMain runs the selected jobs and prints their metrics and the result
// line. It reports whether every op was correct.
func runMain(workload string, seed int64, seconds int, trace bool, repeat int, out string) (bool, error) {
	root, err := repoRoot()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir, "spans"), 0o755); err != nil {
		return false, err
	}
	bin, err := buildDaemon(root)
	if err != nil {
		return false, err
	}

	// Every exit path — return, error, signal — stops the daemons first.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	g := &procGroup{bin: bin}
	defer g.stopAll()

	type job struct {
		name  string
		trace bool
	}
	jobs := []job{{workload, trace}}
	if workload == "" {
		jobs = nil
		for _, w := range workloadNames {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	}

	rep := &report{Machine: readMachine(root)}
	var last *result
	ok := true
	for i := 0; i < repeat; i++ {
		for _, j := range jobs {
			r, err := runOne(ctx, g, root, j.name, seed+int64(i), seconds, j.trace)
			g.stopAll()
			if err != nil {
				return false, fmt.Errorf("%s: %w", j.name, err)
			}
			printMetrics(os.Stdout, r)
			rep.Runs = append(rep.Runs, r.record())
			ok = ok && r.Correct
			last = r
		}
	}
	rep.Machine.LoadEnd = loadAvg1()
	rep.Summary = summarize(rep.Runs)
	if repeat > 1 {
		for _, s := range rep.Summary {
			fmt.Printf("%-12s %-34s median %14.4f  q1 %14.4f  q3 %14.4f  iqr/median %6.2f%%  n=%d\n",
				s.Workload, s.Metric, s.Median, s.Q1, s.Q3, 100*(s.Q3-s.Q1)/s.Median, s.N)
		}
	}
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			return false, err
		}
	}
	// The result line: the last run's, which is the only run when the
	// driver asks for one workload.
	line, err := json.Marshal(last)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return ok, nil
}

// runOne measures one workload once: the timed run, or with trace a
// shorter untraced window followed by the in-process ladder.
func runOne(ctx context.Context, g *procGroup, root, name string, seed int64, seconds int, trace bool) (*result, error) {
	r := &result{Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Metrics: map[string]metric{}, Diagnostics: map[string]float64{}}
	w, isHTTP := httpWorkloads[name]
	if !isHTTP && name != "embed_join" {
		return nil, fmt.Errorf("unknown workload (want one of %v)", workloadNames)
	}
	plan, reps := planWindow(seconds), setupReps
	half := time.Duration(seconds) * time.Second / 2
	if trace {
		// Half the time for the counters' window, half for the ladder.
		plan, reps = windowPlan{warmup: warmup / 2, rounds: 2, roundLen: half / 2}, 1
	}
	var run *windowRun
	var err error
	if isHTTP {
		run, err = runHTTPWindow(ctx, g, w, seed, plan, reps)
	} else {
		run, err = runJoinWindow(seed, plan, min(reps, setupRepsJoin))
	}
	if err != nil {
		return nil, err
	}
	r.Attempted, r.Failed = run.attempted, run.failed
	r.noteErr(run.firstErr)
	m, diag := windowMetrics(run.win, plan, name)

	if !trace {
		m["setup_s"] = median(run.setups)
		m["peak_rss_mb"] = run.rssMB
		r.setMetrics(endToEnd, m)
		for _, more := range []map[string]float64{run.counters, run.extra} {
			for k, v := range more {
				diag[k] = v
			}
		}
		diag["ops"] = float64(len(run.win.samples))
		r.Diagnostics = diag
	} else {
		var l *ladder
		switch {
		case !isHTTP:
			l, err = traceJoin(seed, half)
		case w.router:
			l, err = traceRouter(ctx, w, seed, half)
		default:
			l, err = traceServe(ctx, w, seed, half)
		}
		if err != nil {
			return nil, err
		}
		if err := r.finishTrace(l, run.counters, m["read_p50_ms"], root); err != nil {
			return nil, err
		}
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// setMetrics copies the catalog's metrics out of values; a per-layer
// metric a workload has no value for reads 0. A value that is not a
// number — a median over no samples, when a window was too short to
// hold the op class — also reads 0, and counts as a failed op: JSON
// cannot carry it and a run without it measured nothing.
func (r *result) setMetrics(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			r.Failed++
			r.noteErr(fmt.Errorf("%s has no samples: the window is too short for this workload", d.Name))
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
}

func (r *result) noteErr(err error) {
	if err != nil && r.FirstError == "" {
		r.FirstError = err.Error()
	}
}

// finishTrace merges counters and ladder medians into the per-layer
// metrics, derives the tracing overhead and writes the span file.
// windowP50 is the untraced window's read p50, the baseline where the
// ladder made no untraced pass of its own (embed_join, whose window is
// the same single goroutine in the same process).
func (r *result) finishTrace(l *ladder, values map[string]float64, windowP50 float64, root string) error {
	st := l.stats()
	for k, v := range l.metrics(st) {
		values[k] = v
	}
	untraced := windowP50
	if len(l.untraced) > 0 {
		untraced = median(l.untraced)
	}
	traced := tracedReadP50(st)
	values["trace.overhead_share"] = (traced - untraced) / untraced
	r.setMetrics(perLayer, values)
	r.Attempted += l.ops
	for k, v := range shares(st) {
		r.Diagnostics[k] = v
	}
	r.Diagnostics["traced_ops"] = float64(l.ops)
	r.Diagnostics["untraced_read_p50_ms"] = untraced
	r.Diagnostics["traced_read_p50_ms"] = traced
	r.Diagnostics["window_read_p50_ms"] = windowP50
	path := filepath.Join(root, buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", r.Workload, r.Seed))
	return l.rec.writeJSONLines(path)
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	b, err := readReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if a.Machine.CPUModel != b.Machine.CPUModel || a.Machine.NProc != b.Machine.NProc {
		fmt.Printf("warning: reports come from different machines (%s ×%d vs %s ×%d); timings do not compare\n",
			a.Machine.CPUModel, a.Machine.NProc, b.Machine.CPUModel, b.Machine.NProc)
	}
	rows := compareReports(a, b)
	printCompare(os.Stdout, rows)
	for _, v := range rows {
		if v.Verdict == "regressed" {
			return 1
		}
	}
	return 0
}
