package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"
)

// Run shape shared by the workloads. The timed window is --seconds long
// and split into timedRounds rounds; every timing is the median of the
// per-round statistic, so a burst from a noisy neighbour moves one round
// and not the result.
const (
	timedRounds = 5
	warmup      = 2 * time.Second
	// setupReps is how often a timed run sets the program up; setup_s is
	// the median, the last set-up serves the run. embed_join's set-up takes
	// most of a second, the daemons' a tenth of one.
	setupReps     = 5
	setupRepsJoin = 3
	// webshopRows is the seeded product table's size.
	webshopRows = 20000
	// streamOps is each client's generated stream length; a stream wraps
	// when a run consumes more (recorded as stream_wraps).
	streamOps = 400000
)

// workloadNames lists the workloads in the order the all-in-one run
// takes them; later issues refer to these names.
var workloadNames = []string{"serve_topk", "serve_mixed", "embed_join", "router_topk"}

// httpWorkload is one out-of-process workload: how to start the program
// and what traffic to send it.
type httpWorkload struct {
	name   string
	spec   streamSpec
	router bool
}

var httpWorkloads = map[string]httpWorkload{
	"serve_topk":  {name: "serve_topk", spec: specServeTopk},
	"serve_mixed": {name: "serve_mixed", spec: specServeMixed},
	"router_topk": {name: "router_topk", spec: specRouterTopk, router: true},
}

// cluster is one set-up of the program: the daemon clients talk to, and
// the daemons that host an engine (the same one on a single node, the
// shards behind a router).
type cluster struct {
	front   *daemon
	engines []*daemon
	all     []*daemon
}

// startCluster brings the program up with its documented flags and
// returns once data is loaded and indexes are built, with the time at
// which that was the case.
func startCluster(ctx context.Context, g *procGroup, w httpWorkload) (*cluster, time.Time, error) {
	rows := fmt.Sprint(webshopRows)
	if !w.router {
		// -seed loads and indexes before the listener opens, so a healthy
		// daemon is a ready one.
		d, err := g.start(ctx, "-seed", "webshop", "-rows", rows)
		if err != nil {
			return nil, time.Time{}, err
		}
		return &cluster{front: d, engines: []*daemon{d}, all: []*daemon{d}}, time.Now(), nil
	}
	c := &cluster{}
	var urls []string
	for i := 0; i < 2; i++ {
		d, err := g.start(ctx, "-seed", "none", "-scorers", "webshop")
		if err != nil {
			return nil, time.Time{}, err
		}
		c.engines = append(c.engines, d)
		urls = append(urls, d.base)
	}
	front, err := g.start(ctx, "-router", "-shards", strings.Join(urls, ","), "-seed", "webshop", "-rows", rows)
	if err != nil {
		return nil, time.Time{}, err
	}
	c.front = front
	c.all = append(append(c.all, c.engines...), front)
	ready, err := waitSeeded(ctx, c)
	return c, ready, err
}

// seedQuiet is how long the shards' DDL/load counters must stand still
// before the router's background seeding counts as finished. Its
// requests follow each other within a millisecond, so a pause this long
// is the end; the wait itself is not part of setup_s.
const seedQuiet = 150 * time.Millisecond

// waitSeeded watches the shards' /stats until the router's seeding —
// CREATE TABLE, partitioned /load, rank-index DDL — has reached them and
// stopped. The router seeds in the background after its listener opens,
// so its /healthz alone does not mean the data is there. It returns the
// time of the last change it saw.
func waitSeeded(ctx context.Context, c *cluster) (time.Time, error) {
	deadline := time.Now().Add(60 * time.Second)
	last, lastChange := -1.0, time.Now()
	for {
		var sum float64
		loaded := true
		for _, d := range c.engines {
			var s statsDoc
			if err := getJSON(ctx, d.base+"/stats", &s); err != nil {
				return time.Time{}, err
			}
			sum += float64(s.Execs)
			loaded = loaded && len(s.Tables) > 0
		}
		now := time.Now()
		if sum != last {
			last, lastChange = sum, now
		}
		if loaded && now.Sub(lastChange) >= seedQuiet {
			return lastChange, nil
		}
		if now.After(deadline) {
			return time.Time{}, fmt.Errorf("router seeding did not finish within 60s:\n%s", c.front.log.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// statsDoc is the part of /stats the harness reads, from a single node
// and from the router (the two payloads share most field names).
type statsDoc struct {
	Queries   uint64   `json:"queries"`
	Execs     uint64   `json:"execs"`
	Errors    uint64   `json:"errors"`
	Tables    []string `json:"tables"`
	Resources struct {
		RowsReturned       uint64 `json:"rows_returned"`
		TuplesScanned      uint64 `json:"tuples_scanned"`
		TuplesMaterialized uint64 `json:"tuples_materialized"`
	} `json:"resources"`
	PlanCache struct {
		Hits            uint64 `json:"hits"`
		Misses          uint64 `json:"misses"`
		StaleRecompiles uint64 `json:"stale_recompiles"`
	} `json:"plan_cache"`
	Cursors struct {
		Hits        uint64 `json:"hits"`
		Misses      uint64 `json:"misses"`
		HitsTotal   uint64 `json:"hits_total"`
		MissesTotal uint64 `json:"misses_total"`
	} `json:"cursors"`
	RefillsTotal      uint64 `json:"refills_total"`
	RowsFetchedTotal  uint64 `json:"rows_fetched_total"`
	RowsReturnedTotal uint64 `json:"rows_returned_total"`
	ShardsPrunedTotal uint64 `json:"shards_pruned_total"`
	ResultCache       *struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"result_cache"`
	ShardHealth []struct {
		Replicas []struct {
			Requests uint64 `json:"requests"`
		} `json:"replicas"`
	} `json:"shard_health"`
}

// counters are the /stats totals the per-layer counter metrics are
// deltas of, summed over the daemons each belongs to.
type counters struct {
	queries, errors                         float64
	scanned, materialized, rowsReturned     float64
	planHits, planMisses, stale             float64
	cursorHits, cursorMisses                float64
	refills, rowsFetched, pruned            float64
	resultHits, resultMisses, shardRequests float64
}

// scrape reads /stats from every daemon of the cluster.
func scrape(ctx context.Context, c *cluster, router bool) (counters, error) {
	var k counters
	for _, d := range c.all {
		var s statsDoc
		if err := getJSON(ctx, d.base+"/stats", &s); err != nil {
			return k, err
		}
		k.errors += float64(s.Errors)
		if d != c.front || !router {
			// An engine: operator work and plan cache live here.
			k.scanned += float64(s.Resources.TuplesScanned)
			k.materialized += float64(s.Resources.TuplesMaterialized)
			k.planHits += float64(s.PlanCache.Hits)
			k.planMisses += float64(s.PlanCache.Misses)
			k.stale += float64(s.PlanCache.StaleRecompiles)
		}
		if d != c.front {
			continue
		}
		k.queries = float64(s.Queries)
		if !router {
			k.rowsReturned = float64(s.Resources.RowsReturned)
			k.cursorHits, k.cursorMisses = float64(s.Cursors.Hits), float64(s.Cursors.Misses)
			continue
		}
		k.rowsReturned = float64(s.RowsReturnedTotal)
		k.cursorHits, k.cursorMisses = float64(s.Cursors.HitsTotal), float64(s.Cursors.MissesTotal)
		k.refills, k.rowsFetched, k.pruned = float64(s.RefillsTotal), float64(s.RowsFetchedTotal), float64(s.ShardsPrunedTotal)
		if s.ResultCache != nil {
			k.resultHits, k.resultMisses = float64(s.ResultCache.Hits), float64(s.ResultCache.Misses)
		}
		for _, sh := range s.ShardHealth {
			for _, r := range sh.Replicas {
				k.shardRequests += float64(r.Requests)
			}
		}
	}
	return k, nil
}

// share is a/(a+b), or 0 when nothing was counted.
func share(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// counterMetrics turns a window's /stats delta into the per-layer
// counter metrics. ops is the number of ops the harness completed.
func counterMetrics(a, b counters, ops float64, router bool) map[string]float64 {
	d := func(x, y float64) float64 { return y - x }
	m := map[string]float64{
		"exec.tuples_scanned_per_op":      d(a.scanned, b.scanned) / ops,
		"exec.tuples_materialized_per_op": d(a.materialized, b.materialized) / ops,
		"engine.plan_cache_hit_share":     share(d(a.planHits, b.planHits), d(a.planMisses, b.planMisses)),
		"engine.stale_recompiles":         d(a.stale, b.stale),
		"server.cursor_hit_share":         share(d(a.cursorHits, b.cursorHits), d(a.cursorMisses, b.cursorMisses)),
		"server.errors":                   d(a.errors, b.errors),
	}
	if rows := d(a.rowsReturned, b.rowsReturned); rows > 0 {
		m["exec.tuples_per_row_returned"] = d(a.scanned, b.scanned) / rows
		if router {
			m["router.fetch_amplification"] = d(a.rowsFetched, b.rowsFetched) / rows
		}
	}
	if router {
		m["router.shard_fetches_per_op"] = d(a.shardRequests, b.shardRequests) / ops
		m["router.refills_per_op"] = d(a.refills, b.refills) / ops
		if q := d(a.queries, b.queries); q > 0 {
			// Two shards: a query can prune at most both.
			m["router.pruned_share"] = d(a.pruned, b.pruned) / (2 * q)
		}
		m["router.result_cache_hit_share"] = share(d(a.resultHits, b.resultHits), d(a.resultMisses, b.resultMisses))
	}
	return m
}

// setupOnce starts the program and times it from process start to the
// first contract-checked answer, seeding and index build included.
func setupOnce(ctx context.Context, g *procGroup, w httpWorkload, probe op) (*cluster, float64, error) {
	t0 := time.Now()
	c, ready, err := startCluster(ctx, g, w)
	if err != nil {
		return nil, 0, err
	}
	cl := newClient(0, w.name, c.front.base, nil)
	t1 := time.Now()
	_, err = cl.do(ctx, probe, "")
	cl.http.CloseIdleConnections()
	if err != nil {
		return nil, 0, fmt.Errorf("first answer after set-up: %w", err)
	}
	return c, (ready.Sub(t0) + time.Since(t1)).Seconds(), nil
}

// windowPlan is how long a run warms up and measures.
type windowPlan struct {
	warmup   time.Duration
	rounds   int
	roundLen time.Duration
}

func planWindow(seconds int) windowPlan {
	return windowPlan{warmup: warmup, rounds: timedRounds, roundLen: time.Duration(seconds) * time.Second / timedRounds}
}

// windowRun is everything one run measured around and in its window;
// the timed and the traced mode both start from it.
type windowRun struct {
	setups []float64
	win    windowResult
	rssMB  float64
	// counters are the per-layer counter metrics over the window;
	// extra goes to the diagnostics as it is.
	counters  map[string]float64
	extra     map[string]float64
	attempted int
	failed    int
	firstErr  error
}

// note books ops attempted and failed outside or inside the window.
func (r *windowRun) note(attempted, failed int, err error) {
	r.attempted += attempted
	r.failed += failed
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// noteOp books one op.
func (r *windowRun) noteOp(err error) {
	failed := 0
	if err != nil {
		failed = 1
	}
	r.note(1, failed, err)
}

// runHTTPWindow sets the program up, checks it against the oracle,
// warms it up, measures one closed-loop window, and checks it again.
func runHTTPWindow(ctx context.Context, g *procGroup, w httpWorkload, seed int64, plan windowPlan, reps int) (*windowRun, error) {
	nClients := min(2, runtime.NumCPU())
	streams := make([][]op, nClients)
	for i := range streams {
		streams[i] = webshopStream(w.spec, seed, w.name, i, streamOps)
	}
	probe := op{kind: opStateless, tmpl: 0, k: 10, p1: 300}

	run := &windowRun{}
	var c *cluster
	for i := 0; i < reps; i++ {
		g.stopAll()
		var s float64
		var err error
		if c, s, err = setupOnce(ctx, g, w, probe); err != nil {
			return nil, err
		}
		run.setups = append(run.setups, s)
	}

	clients := make([]*client, nClients)
	for i := range clients {
		clients[i] = newClient(i, w.name, c.front.base, streams[i])
		if err := clients[i].prepare(ctx); err != nil {
			return nil, fmt.Errorf("preparing client %d: %w", i, err)
		}
	}
	oracle, err := fetchWebshopOracle(ctx, clients[0])
	if err != nil {
		return nil, err
	}
	run.note(checkWebshop(ctx, clients[0], oracle))

	runWindow(ctx, clients, time.Now(), 1, plan.warmup)

	pidList := pids(c.all)
	before, err := scrape(ctx, c, w.router)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cpu := sampleCPU(start, plan.rounds, plan.roundLen, pidList)
	run.win = runWindow(ctx, clients, start, plan.rounds, plan.roundLen)
	if run.win.cpuMS, err = cpu(); err != nil {
		return nil, err
	}
	after, err := scrape(ctx, c, w.router)
	if err != nil {
		return nil, err
	}
	run.counters = counterMetrics(before, after, float64(len(run.win.samples)), w.router)
	run.note(len(run.win.samples)+run.win.failed, run.win.failed, run.win.firstErr)

	run.extra = map[string]float64{}
	for _, cl := range clients {
		cl.closeCursor(ctx)
		run.extra["stream_wraps"] += float64(cl.wraps)
	}
	if w.spec.insertLast {
		// The table grew: derive the oracle again from what is there now.
		if oracle, err = fetchWebshopOracle(ctx, clients[0]); err != nil {
			return nil, err
		}
	}
	run.extra["table_rows_end"] = float64(oracle.rows())
	run.note(checkWebshop(ctx, clients[0], oracle))

	if run.rssMB, err = sumOver(pidList, peakRSSMB); err != nil {
		return nil, err
	}
	for _, cl := range clients {
		cl.http.CloseIdleConnections()
	}
	g.stopAll()
	return run, nil
}

// bestOfRounds applies stat to every round's samples and returns the
// best (lowest) per-round result. On the machines this runs on, other
// tenants slow the program down for seconds at a time and never speed it
// up, so the quietest round is the one nearest to what the program
// costs; the median of rounds still carries every disturbed round that
// falls on its side. Rounds with no samples are skipped.
func bestOfRounds(rounds [][]float64, stat func(sorted []float64) float64) float64 {
	best := math.NaN()
	for _, r := range rounds {
		if len(r) == 0 {
			continue
		}
		if v := stat(sortedCopy(r)); math.IsNaN(best) || v < best {
			best = v
		}
	}
	return best
}

// classRounds splits the window's samples of the kinds keep accepts into
// per-round latency lists.
func classRounds(samples []sample, rounds int, keep func(opKind) bool) [][]float64 {
	out := make([][]float64, rounds)
	for _, s := range samples {
		if keep(s.kind) && s.round < rounds {
			out[s.round] = append(out[s.round], s.ms)
		}
	}
	return out
}

// minLen is the smallest round's sample count.
func minLen(rounds [][]float64) int {
	n := len(rounds[0])
	for _, r := range rounds {
		n = min(n, len(r))
	}
	return n
}

// windowMetrics derives throughput, latencies and CPU per op from a
// window, each from its best round, plus diagnostics: the same figures
// per round and per op kind.
func windowMetrics(win windowResult, plan windowPlan, workload string) (m map[string]float64, diag map[string]float64) {
	heavy, tail := heavyKind(workload), tailOf(workload)
	m, diag = map[string]float64{}, map[string]float64{}
	// Work done per round: an op that spans a boundary counts towards each
	// round by the share of its duration spent there, so a round's figure
	// does not jump by a whole op with where the boundary happens to fall
	// (embed_join completes under twenty ops a round).
	ops := make([]float64, plan.rounds)
	roundMS := float64(plan.roundLen) / 1e6
	for _, s := range win.samples {
		for i := range ops {
			lo, hi := float64(i)*roundMS, float64(i+1)*roundMS
			if overlap := math.Min(s.endMS, hi) - math.Max(s.endMS-s.ms, lo); overlap > 0 {
				ops[i] += overlap / s.ms
			}
		}
	}
	p := func(pct float64) func([]float64) float64 {
		return func(sorted []float64) float64 { return percentile(sorted, pct) }
	}
	reads := classRounds(win.samples, plan.rounds, opKind.isRead)
	heavies := classRounds(win.samples, plan.rounds, func(k opKind) bool { return k == heavy })
	m["read_p50_ms"] = bestOfRounds(reads, p(50))
	m["read_tail_ms"] = bestOfRounds(reads, p(tail))
	m["heavy_p50_ms"] = bestOfRounds(heavies, p(50))
	bestThr, bestCPU := math.NaN(), math.NaN()
	for i, n := range ops {
		if n == 0 {
			continue
		}
		thr, cpu := n/plan.roundLen.Seconds(), win.cpuMS[i]/n
		if math.IsNaN(bestThr) || thr > bestThr {
			bestThr = thr
		}
		if math.IsNaN(bestCPU) || cpu < bestCPU {
			bestCPU = cpu
		}
		diag[fmt.Sprintf("round%d.ops_s", i)] = thr
		diag[fmt.Sprintf("round%d.cpu_ms_per_op", i)] = cpu
		if len(reads[i]) > 0 {
			diag[fmt.Sprintf("round%d.read_p50_ms", i)] = percentile(sortedCopy(reads[i]), 50)
		}
	}
	m["throughput_ops_s"], m["cpu_ms_per_op"] = bestThr, bestCPU
	diag["read_tail_percentile"] = tail
	diag["read_tail_supported_percentile"] = tailPercentile(minLen(reads))
	diag["read_samples_min_round"] = float64(minLen(reads))
	diag["heavy_samples_min_round"] = float64(minLen(heavies))

	for k := opKind(0); k < numOpKinds; k++ {
		var all []float64
		for _, s := range win.samples {
			if s.kind == k {
				all = append(all, s.ms)
			}
		}
		if len(all) > 0 {
			diag["p50_ms."+opKindNames[k]] = median(all)
			diag["ops."+opKindNames[k]] = float64(len(all))
		}
		if k == heavy && len(all) > 0 {
			// The heavy class's tail over the whole window: too few samples
			// per round on some workloads to gate on, kept for reading.
			ht := tailPercentile(len(all))
			diag["heavy_tail_percentile"] = ht
			diag["heavy_tail_ms"] = percentile(sortedCopy(all), ht)
		}
	}
	return m, diag
}

// tailOf is the percentile read_tail_ms reports on a workload. On the
// HTTP workloads it is what tailPercentile picks at a round's sample
// count (p99 with 1 600 to 15 000 reads a round); embed_join completes
// some 16 reads a round, too few for that rule, and reports p80. Either
// is held fixed: a tail that switched percentile when a change moved the
// sample count across a threshold could not be compared across commits.
// The percentile the rule supports at the run's own count is recorded
// next to it.
func tailOf(workload string) float64 {
	if workload == "embed_join" {
		return 80
	}
	return 99
}

// heavyKind names a workload's expensive op class (heavy_p50_ms).
func heavyKind(workload string) opKind {
	switch workload {
	case "serve_mixed":
		return opInsert
	case "embed_join":
		return opCompile
	default:
		return opCursorOpen
	}
}
