package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ranksql"
	"ranksql/internal/obs"
	"ranksql/internal/router"
	"ranksql/internal/server"
	"ranksql/internal/wire"
)

// runBench is the `ranksql bench` load generator: it drives a ranksqld
// service over HTTP with prepared top-k statements under concurrency,
// verifies ranked results, and reports throughput, latency percentiles
// and plan-cache effectiveness. With no -addr it self-hosts an in-process
// daemon seeded with an example dataset, so the whole service path —
// HTTP, sessions, prepared statements, plan cache, concurrent engine —
// is exercised end to end with one command.
func runBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	addr := fs.String("addr", "", "target ranksqld base URL (empty = self-hosted in-process server)")
	dataset := fs.String("seed", "webshop", "dataset for the self-hosted server: webshop or tripplanner")
	rows := fs.Int("rows", 20000, "seeded base-table row count (self-hosted)")
	concurrency := fs.Int("concurrency", 8, "concurrent client workers")
	requests := fs.Int("requests", 2000, "total query requests (timed, after warm-up)")
	warmup := fs.Int("warmup", 200, "untimed warm-up requests before the measured window (plan cache and CPU warm)")
	k := fs.Int("k", 10, "top-k bound per query")
	writeEvery := fs.Int("write-every", 0, "per worker, issue an INSERT every N queries (0 = read-only)")
	paginate := fs.Bool("paginate", false, "pagination scenario: each request opens a ranked cursor and pulls -pages pages of k rows through /cursor/next, then compares the cursor's enumeration cost against one-shot and naive re-execution paging")
	pages := fs.Int("pages", 10, "pages pulled per cursor session in -paginate mode")
	templates := fs.Int("templates", 1, "distinct query templates rotated per worker (pressures the plan cache; open cursors must keep streaming after their plan is evicted)")
	routerMode := fs.Bool("router", false, "drive a sharded cluster: self-host -shards in-process ranksqld shards behind a router (or treat -addr as a router)")
	numShards := fs.Int("shards", 2, "shard count for the self-hosted router cluster")
	replicas := fs.Int("replicas", 1, "replicas per shard for the self-hosted router cluster (the router fans writes to every copy and fails reads over between them)")
	failover := fs.Bool("failover", false, "router-mode failover scenario: kill one replica of shard 0 halfway through the measured window; every query must still succeed (needs -replicas >= 2, self-hosted)")
	jsonPath := fs.String("json", "", "write the machine-readable benchmark report to this file")
	insightPath := fs.String("insight", "", "after the run, dump the service's /insight/templates workload profile to this file")
	validate := fs.String("validate", "", "validate an existing benchmark report file and exit (CI schema check)")
	compare := fs.Bool("compare", false, "compare two report files (bench -compare old.json new.json) and warn on >10% p95-latency or per-request resource regressions")
	strict := fs.Bool("strict", false, "with -compare: exit non-zero on regressions (the CI bench-gate); the gate only applies when both reports were recorded on comparable machines")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *validate != "" {
		if err := validateReport(*validate); err != nil {
			log.Fatalf("bench: validate %s: %v", *validate, err)
		}
		fmt.Printf("%s: valid benchmark report\n", *validate)
		return
	}
	if *compare {
		if fs.NArg() != 2 {
			log.Fatalf("bench: -compare needs exactly two report files (old new), got %d", fs.NArg())
		}
		res, err := compareReports(fs.Arg(0), fs.Arg(1))
		if err != nil {
			log.Fatalf("bench: compare: %v", err)
		}
		// Timing numbers (p95, qps) only gate between comparable machines;
		// per-request resource counters (tuples scanned/materialized per
		// request) are machine-independent and always gate.
		gating := res.resourceWarnings
		if res.comparable {
			gating += res.timingWarnings
		} else if res.timingWarnings > 0 {
			fmt.Printf("%d timing warning(s), but the reports' machines differ — refusing to gate on timing (informational only)\n",
				res.timingWarnings)
		}
		if gating == 0 {
			fmt.Println("no gating regressions: within 10% of baseline")
			return
		}
		fmt.Printf("%d gating regression warning(s) — see above\n", gating)
		if *strict {
			os.Exit(1)
		}
		return
	}
	if *concurrency < 1 || *requests < 1 || *k < 1 {
		log.Fatalf("bench: -concurrency, -requests and -k must be >= 1 (got %d, %d, %d)", *concurrency, *requests, *k)
	}
	if *replicas < 1 {
		*replicas = 1
	}
	if *failover && (!*routerMode || *replicas < 2 || *addr != "") {
		log.Fatalf("bench: -failover needs a self-hosted router cluster with -replicas >= 2 (got -router=%v -replicas=%d -addr=%q)",
			*routerMode, *replicas, *addr)
	}
	if *warmup < 0 {
		*warmup = 0
	}
	if *pages < 1 {
		*pages = 1
	}
	if *templates < 1 {
		*templates = 1
	}

	base := *addr
	var cluster *benchCluster
	if base == "" {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if *routerMode {
			cluster = selfHostCluster(ctx, *numShards, *replicas, *dataset, *rows)
			base = cluster.base
			fmt.Printf("self-hosted router at %s over %d shard(s) x %d replica(s) (%s, %d rows partitioned)\n",
				base, *numShards, *replicas, *dataset, *rows)
		} else {
			// Self-host a daemon on a loopback port.
			db := ranksql.Open()
			if err := server.Seed(db, *dataset, *rows); err != nil {
				log.Fatalf("bench: seeding: %v", err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatalf("bench: listen: %v", err)
			}
			srv := server.New(db, server.WithLogger(func(string, ...interface{}) {}))
			go func() {
				if err := srv.ServeListener(ctx, ln); err != nil {
					log.Fatalf("bench: server: %v", err)
				}
			}()
			base = "http://" + ln.Addr().String()
			fmt.Printf("self-hosted ranksqld at %s (%s, %d rows)\n", base, *dataset, *rows)
		}
	}

	queryTemplate, insertTemplate, paramGen := benchWorkload(*dataset)
	fmt.Printf("template: %s\n", queryTemplate)
	fmt.Printf("%d requests (after %d warm-up), %d workers, k=%d", *requests, *warmup, *concurrency, *k)
	if *writeEvery > 0 {
		fmt.Printf(", 1 INSERT per %d queries per worker", *writeEvery)
	}
	if *paginate {
		fmt.Printf(", %d cursor pages per request", *pages)
	}
	if *templates > 1 {
		fmt.Printf(", %d templates", *templates)
	}
	fmt.Println()

	var (
		done       int64
		pagesDone  int64
		cacheHits  int64
		violations int64
		writes     int64
		maxNanos   int64
		failed     int64
		hist       = obs.NewHistogram()
	)
	// -failover: one replica of shard 0 is killed the moment half the
	// measured requests have completed; killedReplica is written under the
	// Once and read only after wg.Wait.
	var killOnce sync.Once
	killedReplica := ""
	// Warm-up requests are issued through the same sessions and prepared
	// statements as the measured window, so the plan cache, scheduler and
	// allocator are warm — but their latencies never enter the histogram.
	// All workers finish warming up before the timed window opens (the
	// warmed barrier), so slow first-compilations can't leak into the tail.
	var warmed, wg sync.WaitGroup
	timedGate := make(chan struct{})
	// Distribute requests across workers, spreading the remainder so
	// -requests (and -warmup) are honored exactly.
	perWorker, extra := *requests / *concurrency, *requests%*concurrency
	warmPerWorker, warmExtra := *warmup / *concurrency, *warmup%*concurrency
	warmed.Add(*concurrency)
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			quota, warmQuota := perWorker, warmPerWorker
			if worker < extra {
				quota++
			}
			if worker < warmExtra {
				warmQuota++
			}
			c := &benchClient{base: base, http: &http.Client{Timeout: 30 * time.Second}}
			sessionID, err := c.openSession()
			if err != nil {
				log.Fatalf("bench: worker %d: session: %v", worker, err)
			}
			// Each worker rotates through -templates distinct statement
			// shapes; with more shapes than plan-cache capacity, every
			// request evicts someone else's plan, so paginating cursors
			// demonstrably keep streaming after losing their cached plan.
			stmtIDs := make([]string, *templates)
			for j := range stmtIDs {
				if stmtIDs[j], err = c.prepare(sessionID, templateVariant(*dataset, queryTemplate, j)); err != nil {
					log.Fatalf("bench: worker %d: prepare template %d: %v", worker, j, err)
				}
			}
			insertID := ""
			if *writeEvery > 0 {
				if insertID, err = c.prepare(sessionID, insertTemplate); err != nil {
					log.Fatalf("bench: worker %d: prepare insert: %v", worker, err)
				}
			}
			rng := server.NewRng(uint64(worker)*0x9E3779B97F4A7C15 + 1)
			for i := 0; i < warmQuota; i++ {
				if _, err := c.query(sessionID, stmtIDs[i%len(stmtIDs)], paramGen.query(&rng, *k)); err != nil {
					log.Fatalf("bench: worker %d: warm-up query: %v", worker, err)
				}
			}
			warmed.Done()
			<-timedGate
			for i := 0; i < quota; i++ {
				if *writeEvery > 0 && i%*writeEvery == *writeEvery-1 {
					if err := c.exec(sessionID, insertID, paramGen.insert(&rng, worker, i)); err != nil {
						log.Fatalf("bench: worker %d: insert: %v", worker, err)
					}
					atomic.AddInt64(&writes, 1)
				}
				stmtID := stmtIDs[i%len(stmtIDs)]
				params := paramGen.query(&rng, *k)
				t0 := time.Now()
				var d time.Duration
				if *paginate {
					out, err := c.paginateSession(sessionID, stmtID, params, *k, *pages, hist)
					if err != nil {
						if *failover {
							atomic.AddInt64(&failed, 1)
							atomic.AddInt64(&done, 1)
							continue
						}
						log.Fatalf("bench: worker %d: cursor session: %v", worker, err)
					}
					d = time.Since(t0)
					atomic.AddInt64(&pagesDone, int64(out.pages))
					atomic.AddInt64(&violations, int64(out.violations))
					if out.cacheHit {
						atomic.AddInt64(&cacheHits, 1)
					}
				} else {
					resp, err := c.query(sessionID, stmtID, params)
					if err != nil {
						if *failover {
							atomic.AddInt64(&failed, 1)
							atomic.AddInt64(&done, 1)
							continue
						}
						log.Fatalf("bench: worker %d: query: %v", worker, err)
					}
					d = time.Since(t0)
					hist.ObserveDuration(d)
					if resp.CacheHit {
						atomic.AddInt64(&cacheHits, 1)
					}
					// Verify the ranked contract: at most k rows, scores
					// non-increasing.
					if len(resp.Rows) > *k {
						atomic.AddInt64(&violations, 1)
					}
					for j := 1; j < len(resp.Scores); j++ {
						if resp.Scores[j] > resp.Scores[j-1]+1e-9 {
							atomic.AddInt64(&violations, 1)
							break
						}
					}
				}
				for {
					cur := atomic.LoadInt64(&maxNanos)
					if int64(d) <= cur || atomic.CompareAndSwapInt64(&maxNanos, cur, int64(d)) {
						break
					}
				}
				atomic.AddInt64(&done, 1)
				if *failover && atomic.LoadInt64(&done) >= int64(*requests/2) {
					killOnce.Do(func() { killedReplica = cluster.kill() })
				}
			}
		}(w)
	}
	warmed.Wait()
	start := time.Now()
	close(timedGate)
	wg.Wait()
	elapsed := time.Since(start)

	total := atomic.LoadInt64(&done)
	if total == 0 {
		fmt.Println("no requests issued (check -requests/-concurrency)")
		os.Exit(1)
	}
	lat := hist.Summarize()
	maxMS := float64(atomic.LoadInt64(&maxNanos)) / 1e6
	hitRate := float64(atomic.LoadInt64(&cacheHits)) / float64(total)
	fmt.Printf("\n== results ==\n")
	fmt.Printf("queries    %d (+%d inserts) in %.2fs  ->  %.0f qps\n",
		total, atomic.LoadInt64(&writes), elapsed.Seconds(), float64(total)/elapsed.Seconds())
	if *paginate {
		fmt.Printf("pages      %d pages of k=%d across %d cursor sessions  ->  %.0f pages/sec\n",
			atomic.LoadInt64(&pagesDone), *k, total, float64(atomic.LoadInt64(&pagesDone))/elapsed.Seconds())
	}
	fmt.Printf("latency    mean=%.2fms  p50=%.2fms  p95=%.2fms  p99=%.2fms  max=%.2fms\n",
		lat.MeanMS, lat.P50MS, lat.P95MS, lat.P99MS, maxMS)
	fmt.Printf("plan cache %d/%d client-observed hits (%.1f%%)\n",
		atomic.LoadInt64(&cacheHits), total, 100*hitRate)

	report := benchReport{
		Mode:         "single",
		Dataset:      *dataset,
		Rows:         *rows,
		Concurrency:  *concurrency,
		Requests:     int(total),
		Warmup:       *warmup,
		K:            *k,
		Templates:    *templates,
		Writes:       atomic.LoadInt64(&writes),
		ElapsedSec:   elapsed.Seconds(),
		QPS:          float64(total) / elapsed.Seconds(),
		Latency:      lat,
		MaxMS:        maxMS,
		CacheHitRate: hitRate,
		Violations:   atomic.LoadInt64(&violations),
		Machine:      currentMachine(),
		GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
	}
	if *routerMode {
		report.Mode = "router"
		report.Shards = *numShards
		report.Replicas = *replicas
	}

	if v := atomic.LoadInt64(&violations); v > 0 {
		fmt.Printf("RANKING VIOLATIONS: %d\n", v)
		writeReport(*jsonPath, &report)
		os.Exit(1)
	}
	fmt.Println("ranking    all responses correctly ordered, |rows| <= k, ranks contiguous")

	if *paginate {
		pag, err := measurePagination(base, queryTemplate, paramGen, *k, *pages)
		if err != nil {
			log.Fatalf("bench: pagination measurement: %v", err)
		}
		pag.Sessions = int(total)
		pag.PagesPerSec = float64(atomic.LoadInt64(&pagesDone)) / elapsed.Seconds()
		report.Pagination = pag
		fmt.Printf("\n== pagination: enumeration cost for %d pages of k=%d ==\n", *pages, *k)
		fmt.Printf("cursor     %d tuples scanned (suspended stream, pages are deltas)\n", pag.CursorTuples)
		fmt.Printf("one-shot   %d tuples scanned for a single top-%d  ->  cursor/one-shot = %.2fx\n",
			pag.OneShotTuples, *pages**k, pag.CursorVsOneShot)
		fmt.Printf("naive      %d tuples scanned re-running deeper limits  ->  naive/one-shot = %.2fx\n",
			pag.NaiveTuples, pag.NaiveVsOneShot)
	}

	// Server-side view.
	if *routerMode {
		var stats router.Snapshot
		if err := getJSON(base+"/stats", &stats); err != nil {
			log.Fatalf("bench: stats: %v", err)
		}
		if *paginate {
			fmt.Printf("\ncursors: opened=%d open=%d hits=%d misses=%d expired=%d\n",
				stats.Cursors.Opened, stats.Cursors.Open, stats.Cursors.Hits,
				stats.Cursors.Misses, stats.Cursors.Expired)
		}
		report.Pruning = &pruningReport{
			QueriesWithPrunedShards: stats.QueriesWithPrunedShards,
			ShardsPrunedTotal:       stats.ShardsPrunedTotal,
			RefillsTotal:            stats.RefillsTotal,
			FetchAmplification:      stats.FetchAmplification,
		}
		report.Resources = &resourceReport{
			RowsScanned:        int64(stats.TuplesScannedTotal),
			TuplesMaterialized: int64(stats.TuplesMaterializedTotal),
		}
		fmt.Printf("\n== router /stats ==\n")
		fmt.Printf("shards=%d queries=%d execs=%d errors=%d avg=%.2fms\n",
			stats.Shards, stats.Queries, stats.Execs, stats.Errors, stats.AvgQueryMS)
		fmt.Printf("threshold merge: %d/%d queries pruned >=1 shard (%d shard fetches skipped), refills=%d\n",
			stats.QueriesWithPrunedShards, stats.Queries, stats.ShardsPrunedTotal, stats.RefillsTotal)
		fmt.Printf("fetch amplification: %.2f rows fetched per row returned (%d/%d)\n",
			stats.FetchAmplification, stats.RowsFetchedTotal, stats.RowsReturnedTotal)
		for _, q := range stats.PerQuery {
			fmt.Printf("  %6d× pruned=%d refills=%d avg=%.2fms  %s\n",
				q.Count, q.ShardsPruned, q.Refills, q.AvgMS, truncate(q.Query, 80))
		}
		if *failover {
			report.Failover = &failoverReport{
				Replicas:             *replicas,
				KilledReplica:        killedReplica,
				FailedQueries:        atomic.LoadInt64(&failed),
				Failovers:            stats.Reliability.Failovers,
				HedgesIssued:         stats.Reliability.HedgesIssued,
				HedgesWon:            stats.Reliability.HedgesWon,
				CursorReplicaResumes: stats.Reliability.CursorReplicaResumes,
			}
			fmt.Printf("\n== failover ==\n")
			fmt.Printf("killed %s at the halfway point: failed_queries=%d failovers=%d hedges=%d/%d cursor_resumes=%d\n",
				killedReplica, report.Failover.FailedQueries, report.Failover.Failovers,
				report.Failover.HedgesWon, report.Failover.HedgesIssued,
				report.Failover.CursorReplicaResumes)
			if report.Failover.FailedQueries > 0 {
				fmt.Printf("FAILOVER: %d queries failed after the replica kill\n", report.Failover.FailedQueries)
				writeReport(*jsonPath, &report)
				os.Exit(1)
			}
		}
		// Probe the router-side ranked-result cache: repeat one query and
		// confirm via the per-replica request counters that the second
		// answer involved zero shard fan-out.
		rc, err := measureResultCache(base, queryTemplate, paramGen, *k)
		if err != nil {
			log.Fatalf("bench: result cache probe: %v", err)
		}
		report.ResultCache = rc
		fmt.Printf("result cache: hits=%d misses=%d stale=%d hit_rate=%.3f zero_fanout_verified=%v\n",
			rc.Hits, rc.Misses, rc.Stale, rc.HitRate, rc.VerifiedZeroFanout)
		if !rc.VerifiedZeroFanout {
			fmt.Println("RESULT CACHE: repeated query was not served fan-out-free")
			writeReport(*jsonPath, &report)
			os.Exit(1)
		}
		dumpInsight(base, *insightPath)
		writeReport(*jsonPath, &report)
		return
	}
	var stats server.Snapshot
	if err := getJSON(base+"/stats", &stats); err != nil {
		log.Fatalf("bench: stats: %v", err)
	}
	// Prefer the daemon's own plan-cache hit rate (it also sees warm-up
	// traffic and concurrent clients) in the recorded report.
	report.CacheHitRate = stats.PlanCache.HitRate
	fmt.Printf("\n== server /stats ==\n")
	fmt.Printf("queries=%d execs=%d errors=%d qps(recent)=%.0f avg=%.2fms\n",
		stats.Queries, stats.Execs, stats.Errors, stats.QPS, stats.AvgQueryMS)
	fmt.Printf("plan cache: hits=%d misses=%d entries=%d hit_rate=%.1f%%\n",
		stats.PlanCache.Hits, stats.PlanCache.Misses, stats.PlanCache.Entries, 100*stats.PlanCache.HitRate)
	if *paginate {
		fmt.Printf("cursors: opened=%d open=%d hits=%d misses=%d expired=%d\n",
			stats.Cursors.Opened, stats.Cursors.Open, stats.Cursors.Hits,
			stats.Cursors.Misses, stats.Cursors.Expired)
	}
	for _, q := range stats.PerQuery {
		fmt.Printf("  %6d× avg_depth_k=%.1f max_depth_k=%d avg=%.2fms  %s\n",
			q.Count, q.AvgDepthK, q.MaxDepthK, q.AvgMS, truncate(q.Query, 80))
	}
	report.Resources = &resourceReport{
		RowsScanned:          int64(stats.Resources.TuplesScanned),
		TuplesMaterialized:   int64(stats.Resources.TuplesMaterialized),
		CursorPinnedBytesMax: stats.Resources.CursorPinnedBytesMax,
	}
	fmt.Printf("resources: %d tuples scanned, %d materialized, cursor pinned max %dB\n",
		report.Resources.RowsScanned, report.Resources.TuplesMaterialized,
		report.Resources.CursorPinnedBytesMax)
	dumpInsight(base, *insightPath)
	writeReport(*jsonPath, &report)
}

// dumpInsight fetches the service's /insight/templates profile and
// writes it verbatim, so CI can upload the workload's depth-k and drift
// breakdown alongside the perf report.
func dumpInsight(base, path string) {
	if path == "" {
		return
	}
	var raw json.RawMessage
	if err := getJSON(base+"/insight/templates", &raw); err != nil {
		log.Fatalf("bench: insight: %v", err)
	}
	if err := os.WriteFile(path, append([]byte(raw), '\n'), 0o644); err != nil {
		log.Fatalf("bench: writing %s: %v", path, err)
	}
	fmt.Printf("insight profile written to %s\n", path)
}

// compareResult classifies what `bench -compare` found. Timing warnings
// (p95 latency, throughput) and resource warnings (per-request tuples
// scanned/materialized, pinned cursor bytes) are kept apart because only
// the latter are machine-independent: the comparable flag reports whether
// the two runs came from comparable machines (same CPU model, GOMAXPROCS
// and architecture), and when they did not, timing deltas mean nothing
// and must not gate. Reports that predate machine metadata are treated as
// comparable so old baselines keep working, with a note.
type compareResult struct {
	timingWarnings   int
	resourceWarnings int
	comparable       bool
}

// compareReports is the regression check behind `bench -compare old
// new`: it validates both reports, then warns when the new run's p95
// latency or per-request resource use grew more than 10% over the
// baseline, or its throughput dropped more than 10%.
func compareReports(oldPath, newPath string) (res compareResult, err error) {
	load := func(path string) (*benchReport, error) {
		if err := validateReport(path); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r benchReport
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, err
		}
		return &r, nil
	}
	oldR, err := load(oldPath)
	if err != nil {
		return res, err
	}
	newR, err := load(newPath)
	if err != nil {
		return res, err
	}
	if oldR.Mode != newR.Mode {
		return res, fmt.Errorf("mode mismatch: %s is %q, %s is %q", oldPath, oldR.Mode, newPath, newR.Mode)
	}
	fmt.Printf("baseline %s (%s)  vs  %s\n", oldPath, oldR.GeneratedAt, newPath)
	res.comparable = true
	switch om, nm := oldR.Machine, newR.Machine; {
	case om == nil || nm == nil:
		fmt.Println("note: a report predates machine metadata; assuming comparable environments")
	case om.CPUModel != nm.CPUModel || om.GOMAXPROCS != nm.GOMAXPROCS || om.Arch != nm.Arch:
		res.comparable = false
		fmt.Printf("note: incomparable environments:\n  old %s (%s, GOMAXPROCS=%d, %s)\n  new %s (%s, GOMAXPROCS=%d, %s)\n",
			om.CPUModel, om.Arch, om.GOMAXPROCS, om.GoVersion,
			nm.CPUModel, nm.Arch, nm.GOMAXPROCS, nm.GoVersion)
	}

	warn := func(format string, args ...interface{}) {
		res.timingWarnings++
		fmt.Printf("WARNING: "+format+"\n", args...)
	}
	const slack = 1.10
	fmt.Printf("p95 latency  %.2fms -> %.2fms\n", oldR.Latency.P95MS, newR.Latency.P95MS)
	if oldR.Latency.P95MS > 0 && newR.Latency.P95MS > oldR.Latency.P95MS*slack {
		warn("p95 latency grew %.1f%% (%.2fms -> %.2fms)",
			100*(newR.Latency.P95MS/oldR.Latency.P95MS-1), oldR.Latency.P95MS, newR.Latency.P95MS)
	}
	fmt.Printf("qps          %.0f -> %.0f\n", oldR.QPS, newR.QPS)
	if newR.QPS < oldR.QPS/slack {
		warn("throughput dropped %.1f%% (%.0f -> %.0f qps)",
			100*(1-newR.QPS/oldR.QPS), oldR.QPS, newR.QPS)
	}
	// Resource counters are lifetime totals; normalize per request so
	// baselines with different -requests stay comparable.
	if oldR.Resources != nil && newR.Resources != nil {
		resourceWarn := func(format string, args ...interface{}) {
			res.resourceWarnings++
			fmt.Printf("WARNING: "+format+"\n", args...)
		}
		perReq := func(r *benchReport, v int64) float64 {
			n := r.Requests + r.Warmup
			if n < 1 {
				n = 1
			}
			return float64(v) / float64(n)
		}
		check := func(name string, ov, nv int64) {
			o, n := perReq(oldR, ov), perReq(newR, nv)
			fmt.Printf("%-12s %.1f -> %.1f per request\n", name, o, n)
			if o > 0 && n > o*slack {
				resourceWarn("%s per request grew %.1f%% (%.1f -> %.1f)", name, 100*(n/o-1), o, n)
			}
		}
		check("scanned", oldR.Resources.RowsScanned, newR.Resources.RowsScanned)
		check("materialized", oldR.Resources.TuplesMaterialized, newR.Resources.TuplesMaterialized)
		o, n := oldR.Resources.CursorPinnedBytesMax, newR.Resources.CursorPinnedBytesMax
		fmt.Printf("%-12s %d -> %d bytes\n", "pinned max", o, n)
		if o > 0 && float64(n) > float64(o)*slack {
			resourceWarn("max pinned cursor bytes grew %.1f%% (%d -> %d)", 100*(float64(n)/float64(o)-1), o, n)
		}
	} else if oldR.Resources == nil && newR.Resources != nil {
		fmt.Println("baseline predates resource accounting; skipping resource comparison")
	}
	return res, nil
}

// machineReport records where a benchmark ran. Absolute qps/latency
// numbers are only meaningful against a baseline from the same kind of
// machine, so -compare checks these fields before gating.
type machineReport struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// currentMachine snapshots this host's identity for the report.
func currentMachine() *machineReport {
	return &machineReport{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel returns the CPU model string from /proc/cpuinfo, or a
// GOOS/GOARCH placeholder on platforms without it (macOS CI runners,
// etc.) — still stable per runner class, which is all the comparability
// check needs.
func cpuModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					return strings.TrimSpace(line[i+1:])
				}
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

// benchReport is the machine-readable result written by -json and
// checked by -validate: the recorded perf baseline's schema.
type benchReport struct {
	Mode         string             `json:"mode"` // "single" or "router"
	Dataset      string             `json:"dataset"`
	Rows         int                `json:"rows"`
	Shards       int                `json:"shards,omitempty"`
	Replicas     int                `json:"replicas,omitempty"`
	Concurrency  int                `json:"concurrency"`
	Requests     int                `json:"requests"`
	Warmup       int                `json:"warmup"`
	K            int                `json:"k"`
	Templates    int                `json:"templates,omitempty"`
	Writes       int64              `json:"writes"`
	ElapsedSec   float64            `json:"elapsed_sec"`
	QPS          float64            `json:"qps"`
	Latency      obs.Summary        `json:"latency_ms"`
	MaxMS        float64            `json:"max_ms"`
	CacheHitRate float64            `json:"cache_hit_rate"`
	Violations   int64              `json:"violations"`
	Resources    *resourceReport    `json:"resources,omitempty"`
	Pruning      *pruningReport     `json:"pruning,omitempty"`
	Pagination   *paginationReport  `json:"pagination,omitempty"`
	Failover     *failoverReport    `json:"failover,omitempty"`
	ResultCache  *resultCacheReport `json:"result_cache,omitempty"`
	Machine      *machineReport     `json:"machine,omitempty"`
	GeneratedAt  string             `json:"generated_at"`
}

// failoverReport captures the -failover scenario: one replica of shard 0
// is killed once half the measured requests have completed, and the
// workload must finish with zero failed queries — reads fail over to the
// surviving replica (router /stats reliability counters confirm it).
type failoverReport struct {
	Replicas             int    `json:"replicas"`
	KilledReplica        string `json:"killed_replica"`
	FailedQueries        int64  `json:"failed_queries"`
	Failovers            uint64 `json:"failovers"`
	HedgesIssued         uint64 `json:"hedges_issued"`
	HedgesWon            uint64 `json:"hedges_won"`
	CursorReplicaResumes uint64 `json:"cursor_replica_resumes"`
}

// resultCacheReport records the router's ranked-result cache for the
// run, plus the probe that repeats one query and checks — through the
// per-replica request counters in /stats — that the repeat reached no
// shard at all.
type resultCacheReport struct {
	Hits               uint64  `json:"hits"`
	Misses             uint64  `json:"misses"`
	Stale              uint64  `json:"stale"`
	HitRate            float64 `json:"hit_rate"`
	VerifiedZeroFanout bool    `json:"verified_zero_fanout"`
}

// resourceReport is the service-side resource accounting for the whole
// run (warm-up included — it is the daemon's lifetime view), read from
// /stats after the measured window. CursorPinnedBytesMax is the largest
// single-cursor suspended-state footprint seen (0 for the router, which
// holds no engine cursor state itself).
type resourceReport struct {
	RowsScanned          int64 `json:"rows_scanned"`
	TuplesMaterialized   int64 `json:"tuples_materialized"`
	CursorPinnedBytesMax int64 `json:"cursor_pinned_bytes_max"`
}

// paginationReport captures the -paginate scenario: cursor throughput
// plus the enumeration-cost comparison against a single deep top-k run
// and against naive re-execution paging.
type paginationReport struct {
	Pages       int     `json:"pages"`
	PageSize    int     `json:"page_size"`
	Sessions    int     `json:"sessions"`
	PagesPerSec float64 `json:"pages_per_sec"`
	// CursorTuples is the cumulative tuples_scanned after pulling all
	// pages through one suspended cursor; OneShotTuples is the same
	// counter for a single top-(pages*page_size) run; NaiveTuples sums
	// re-running the query with a deeper LIMIT for every page.
	CursorTuples    int64   `json:"cursor_tuples_scanned"`
	OneShotTuples   int64   `json:"one_shot_tuples_scanned"`
	NaiveTuples     int64   `json:"naive_tuples_scanned"`
	CursorVsOneShot float64 `json:"cursor_vs_one_shot"`
	NaiveVsOneShot  float64 `json:"naive_vs_one_shot"`
}

// pruningReport captures the router's threshold-merge effectiveness for
// the benchmarked workload.
type pruningReport struct {
	QueriesWithPrunedShards uint64  `json:"queries_with_pruned_shards"`
	ShardsPrunedTotal       uint64  `json:"shards_pruned_total"`
	RefillsTotal            uint64  `json:"refills_total"`
	FetchAmplification      float64 `json:"fetch_amplification"`
}

// writeReport writes the benchmark report as indented JSON. A missing
// -json path is a no-op so the human-readable output stands alone.
func writeReport(path string, r *benchReport) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatalf("bench: encoding report: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatalf("bench: writing %s: %v", path, err)
	}
	fmt.Printf("\nreport written to %s\n", path)
}

// validateReport checks that a benchmark report file conforms to the
// benchReport schema, for the CI bench smoke lane.
func validateReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("not valid JSON: %v", err)
	}
	if r.Mode != "single" && r.Mode != "router" {
		return fmt.Errorf("mode = %q, want single or router", r.Mode)
	}
	if r.Mode == "router" {
		if r.Shards < 1 {
			return fmt.Errorf("router report has shards = %d", r.Shards)
		}
		if r.Pruning == nil {
			return fmt.Errorf("router report missing pruning block")
		}
	}
	if r.Requests < 1 || r.Concurrency < 1 || r.K < 1 {
		return fmt.Errorf("requests/concurrency/k must be >= 1 (got %d, %d, %d)", r.Requests, r.Concurrency, r.K)
	}
	if r.QPS <= 0 || r.ElapsedSec <= 0 {
		return fmt.Errorf("qps and elapsed_sec must be positive (got %.2f, %.2f)", r.QPS, r.ElapsedSec)
	}
	if r.Latency.Count == 0 {
		return fmt.Errorf("latency_ms.count is zero")
	}
	if r.Latency.P50MS < 0 || r.Latency.P50MS > r.Latency.P95MS+1e-9 || r.Latency.P95MS > r.Latency.P99MS+1e-9 {
		return fmt.Errorf("latency percentiles not monotone: p50=%.3f p95=%.3f p99=%.3f",
			r.Latency.P50MS, r.Latency.P95MS, r.Latency.P99MS)
	}
	if r.CacheHitRate < 0 || r.CacheHitRate > 1 {
		return fmt.Errorf("cache_hit_rate = %.3f, want within [0, 1]", r.CacheHitRate)
	}
	if r.Violations != 0 {
		return fmt.Errorf("report records %d ranking violations", r.Violations)
	}
	if m := r.Machine; m != nil {
		if m.CPUModel == "" || m.GoVersion == "" {
			return fmt.Errorf("machine block present but incomplete: cpu_model=%q go_version=%q", m.CPUModel, m.GoVersion)
		}
		if m.NumCPU < 1 || m.GOMAXPROCS < 1 {
			return fmt.Errorf("machine block has num_cpu=%d gomaxprocs=%d, want >= 1", m.NumCPU, m.GOMAXPROCS)
		}
	}
	if res := r.Resources; res != nil {
		if res.RowsScanned <= 0 {
			return fmt.Errorf("resources.rows_scanned = %d, want > 0 for a query workload", res.RowsScanned)
		}
		if res.TuplesMaterialized < 0 || res.CursorPinnedBytesMax < 0 {
			return fmt.Errorf("negative resource counters: materialized=%d pinned_max=%d",
				res.TuplesMaterialized, res.CursorPinnedBytesMax)
		}
	}
	if p := r.Pagination; p != nil {
		if p.Pages < 1 || p.PageSize < 1 || p.Sessions < 1 {
			return fmt.Errorf("pagination pages/page_size/sessions must be >= 1 (got %d, %d, %d)",
				p.Pages, p.PageSize, p.Sessions)
		}
		if p.PagesPerSec <= 0 {
			return fmt.Errorf("pagination pages_per_sec must be positive (got %.2f)", p.PagesPerSec)
		}
		if p.OneShotTuples <= 0 || p.CursorTuples <= 0 {
			return fmt.Errorf("pagination tuple counters must be positive (cursor=%d one_shot=%d)",
				p.CursorTuples, p.OneShotTuples)
		}
		// The point of resumable cursors: paging must cost about what a
		// single deep run costs, not re-enumerate per page. The router
		// gets slack for per-shard overfetch.
		limit := 1.2
		if r.Mode == "router" {
			limit = 1.5
		}
		if p.CursorVsOneShot > limit {
			return fmt.Errorf("cursor paging scanned %.2fx the tuples of a one-shot run (limit %.1fx)",
				p.CursorVsOneShot, limit)
		}
		if p.NaiveVsOneShot < 1 {
			return fmt.Errorf("naive_vs_one_shot = %.2f, want >= 1 (naive paging repeats work)", p.NaiveVsOneShot)
		}
	}
	if f := r.Failover; f != nil {
		if r.Mode != "router" {
			return fmt.Errorf("failover block on a %q report, want router", r.Mode)
		}
		if f.Replicas < 2 {
			return fmt.Errorf("failover.replicas = %d, want >= 2 (nothing to fail over to)", f.Replicas)
		}
		if f.FailedQueries != 0 {
			return fmt.Errorf("failover scenario recorded %d failed queries, want 0", f.FailedQueries)
		}
		if f.Failovers == 0 {
			return fmt.Errorf("failover scenario recorded no replica failovers")
		}
	}
	if rc := r.ResultCache; rc != nil {
		if rc.HitRate < 0 || rc.HitRate > 1 {
			return fmt.Errorf("result_cache.hit_rate = %.3f, want within [0, 1]", rc.HitRate)
		}
		if rc.Hits == 0 {
			return fmt.Errorf("result_cache block present but records zero hits")
		}
		if !rc.VerifiedZeroFanout {
			return fmt.Errorf("result cache hit was not verified fan-out-free")
		}
	}
	if _, err := time.Parse(time.RFC3339, r.GeneratedAt); err != nil {
		return fmt.Errorf("generated_at: %v", err)
	}
	return nil
}

// benchCluster is a self-hosted router deployment: base is the router's
// URL; kill shuts down shard 0's first replica (for the -failover
// scenario) and returns the killed replica's URL.
type benchCluster struct {
	base string
	kill func() string
}

// selfHostCluster spins up n in-process ranksqld shards — each as a
// group of identically-seeded replicas — on loopback ports, a router
// over them, and seeds the dataset through the router's partitioned,
// replica-fanned ingest.
func selfHostCluster(ctx context.Context, n, replicas int, dataset string, rows int) *benchCluster {
	quiet := func(string, ...interface{}) {}
	var shardSpecs []string
	killFirst := func() string { return "" }
	for i := 0; i < n; i++ {
		var urls []string
		for j := 0; j < replicas; j++ {
			db := ranksql.Open()
			if err := server.RegisterScorers(db, dataset); err != nil {
				log.Fatalf("bench: shard %d replica %d scorers: %v", i, j, err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatalf("bench: shard %d replica %d listen: %v", i, j, err)
			}
			url := "http://" + ln.Addr().String()
			// The -failover scenario kills shard 0's first replica by
			// canceling its context; the canceled replica's server exit is
			// deliberate, not fatal.
			srvCtx := ctx
			if i == 0 && j == 0 {
				var cancel context.CancelFunc
				srvCtx, cancel = context.WithCancel(ctx)
				killFirst = func() string {
					cancel()
					ln.Close()
					return url
				}
			}
			srv := server.New(db, server.WithLogger(quiet))
			go func(i, j int, sctx context.Context) {
				if err := srv.ServeListener(sctx, ln); err != nil && sctx.Err() == nil {
					log.Fatalf("bench: shard %d replica %d: %v", i, j, err)
				}
			}(i, j, srvCtx)
			urls = append(urls, url)
		}
		shardSpecs = append(shardSpecs, strings.Join(urls, ","))
	}
	rt, err := router.New(shardSpecs, router.WithLogger(quiet))
	if err != nil {
		log.Fatalf("bench: router: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("bench: router listen: %v", err)
	}
	go func() {
		if err := rt.ServeListener(ctx, ln); err != nil {
			log.Fatalf("bench: router: %v", err)
		}
	}()
	base := "http://" + ln.Addr().String()
	waitHealthy(base)
	if err := router.SeedVia(nil, base, dataset, rows); err != nil {
		log.Fatalf("bench: seeding via router: %v", err)
	}
	return &benchCluster{base: base, kill: killFirst}
}

// measureResultCache repeats one fixed-bindings query against the
// router and verifies — via the per-replica request counters /stats
// exposes — that the repeat was a ranked-result-cache hit that reached
// no shard, then records the cache's run-wide counters.
func measureResultCache(base, queryTemplate string, gen paramGenerator, k int) (*resultCacheReport, error) {
	rng := server.NewRng(0xC0FFEE)
	params := gen.query(&rng, k)
	c := &benchClient{base: base, http: &http.Client{Timeout: 30 * time.Second}}
	probe := func() (*wire.QueryResponse, error) {
		var out wire.QueryResponse
		if err := c.post("/query", map[string]interface{}{"sql": queryTemplate, "params": params}, &out); err != nil {
			return nil, err
		}
		if out.Error != "" {
			return nil, fmt.Errorf("probe query: %s", out.Error)
		}
		return &out, nil
	}
	replicaRequests := func() (uint64, error) {
		var s router.Snapshot
		if err := getJSON(base+"/stats", &s); err != nil {
			return 0, err
		}
		var total uint64
		for _, sh := range s.ShardHealth {
			for _, rep := range sh.Replicas {
				total += rep.Requests
			}
		}
		return total, nil
	}
	if _, err := probe(); err != nil { // mint (or refresh) the cache entry
		return nil, err
	}
	before, err := replicaRequests()
	if err != nil {
		return nil, err
	}
	hit, err := probe()
	if err != nil {
		return nil, err
	}
	after, err := replicaRequests()
	if err != nil {
		return nil, err
	}
	var stats router.Snapshot
	if err := getJSON(base+"/stats", &stats); err != nil {
		return nil, err
	}
	r := &resultCacheReport{VerifiedZeroFanout: hit.ResultCacheHit && after == before}
	if stats.ResultCache != nil {
		r.Hits = stats.ResultCache.Hits
		r.Misses = stats.ResultCache.Misses
		r.Stale = stats.ResultCache.Stale
		r.HitRate = stats.ResultCache.HitRate
	}
	return r, nil
}

// waitHealthy polls /healthz until the service answers (the listeners
// above are bound before their HTTP servers attach).
func waitHealthy(base string) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			log.Fatalf("bench: %s did not become healthy within 5s", base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// benchWorkload returns the prepared query/insert templates and parameter
// generator for a dataset.
func benchWorkload(dataset string) (query, insert string, gen paramGenerator) {
	switch dataset {
	case "tripplanner":
		return `SELECT h.name, r.name FROM hotel AS h, restaurant AS r
				WHERE h.addr = r.addr AND h.price < ?
				ORDER BY cheap(h.price) + cheap(r.price) LIMIT ?`,
			`INSERT INTO hotel VALUES (?, ?, ?)`,
			paramGenerator{
				query: func(r *server.Rng, k int) []interface{} {
					return []interface{}{100 + r.Float()*400, k}
				},
				insert: func(r *server.Rng, worker, i int) []interface{} {
					return []interface{}{fmt.Sprintf("Bench-Hotel-%d-%d", worker, i), 30 + r.Float()*470, r.Intn(50)}
				},
			}
	default: // webshop
		return `SELECT name, price, stars, sales FROM product
				WHERE in_stock AND price < ?
				ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*bargain(price) LIMIT ?`,
			`INSERT INTO product VALUES (?, ?, ?, ?, ?)`,
			paramGenerator{
				query: func(r *server.Rng, k int) []interface{} {
					return []interface{}{50 + r.Float()*450, k}
				},
				insert: func(r *server.Rng, worker, i int) []interface{} {
					return []interface{}{fmt.Sprintf("BENCH-%d-%d", worker, i),
						5 + r.Float()*495, 1 + 4*r.Float(), r.Intn(100000), true}
				},
			}
	}
}

type paramGenerator struct {
	query  func(r *server.Rng, k int) []interface{}
	insert func(r *server.Rng, worker, i int) []interface{}
}

// templateVariant derives the j-th distinct-but-equivalent statement
// shape from a dataset's base template by injecting an always-true
// predicate whose literal embeds j: each variant normalizes to its own
// template, so -templates N mints N plan-cache entries from one
// workload. Variant 0 is the base template itself, keeping single-
// template runs comparable with older baselines.
func templateVariant(dataset, base string, j int) string {
	if j == 0 {
		return base
	}
	var pred string
	switch dataset {
	case "tripplanner":
		pred = fmt.Sprintf("h.price > 0.%03d", j%1000) // prices start at 30
	default: // webshop
		pred = fmt.Sprintf("stars >= 0.%03d", j%1000) // stars start at 1
	}
	return strings.Replace(base, "WHERE ", "WHERE "+pred+" AND ", 1)
}

// paginationOutcome is one worker cursor session's tally.
type paginationOutcome struct {
	pages      int
	violations int
	cacheHit   bool
}

// paginateSession opens a ranked cursor, pulls up to pages pages of k
// rows through /cursor/next, verifies the paged stream looks exactly
// like one contiguous ranked run (scores non-increasing across page
// boundaries, ranks consecutive from 1), and closes the cursor. Each
// page's latency enters the histogram individually.
func (c *benchClient) paginateSession(sessionID, stmtID string, params []interface{}, k, pages int, hist *obs.Histogram) (paginationOutcome, error) {
	var out paginationOutcome
	lastScore := math.Inf(1)
	nextRank := 1
	check := func(r *wire.QueryResponse) {
		if len(r.Rows) > k {
			out.violations++
		}
		for _, s := range r.Scores {
			if s > lastScore+1e-9 {
				out.violations++
			}
			lastScore = s
		}
		for _, rk := range r.Ranks {
			if rk != nextRank {
				out.violations++
			}
			nextRank = rk + 1
		}
	}
	t0 := time.Now()
	resp, err := c.queryCursor(sessionID, stmtID, params, k)
	if err != nil {
		return out, err
	}
	hist.ObserveDuration(time.Since(t0))
	if resp.CursorID == "" {
		return out, fmt.Errorf("cursor open returned no cursor_id")
	}
	out.pages++
	out.cacheHit = resp.CacheHit
	check(resp)
	for p := 1; p < pages && !resp.Exhausted; p++ {
		t0 = time.Now()
		if resp, err = c.cursorNext(resp.CursorID, k); err != nil {
			return out, err
		}
		hist.ObserveDuration(time.Since(t0))
		out.pages++
		check(resp)
	}
	return out, c.cursorClose(resp.CursorID)
}

// measurePagination compares the enumeration cost (tuples_scanned) of
// three ways to read pages*k ranked rows with identical parameters: a
// suspended cursor pulling k-row pages, one deep top-(pages*k) run, and
// the naive client strategy of re-running with a deeper LIMIT per page.
// Cursor stats are cumulative, so the final page's counter is the whole
// stream's cost.
func measurePagination(base, queryTemplate string, gen paramGenerator, k, pages int) (*paginationReport, error) {
	c := &benchClient{base: base, http: &http.Client{Timeout: 60 * time.Second}}
	sessionID, err := c.openSession()
	if err != nil {
		return nil, err
	}
	stmtID, err := c.prepare(sessionID, queryTemplate)
	if err != nil {
		return nil, err
	}
	rng := server.NewRng(0xC0FFEE)
	params := gen.query(&rng, k) // the LIMIT occupies the last slot
	limitAt := len(params) - 1
	withLimit := func(n int) []interface{} {
		return append(append([]interface{}{}, params[:limitAt]...), n)
	}

	resp, err := c.queryCursor(sessionID, stmtID, params, k)
	if err != nil {
		return nil, fmt.Errorf("cursor open: %w", err)
	}
	cursorTuples := resp.Stats.TuplesScanned
	for p := 1; p < pages && !resp.Exhausted; p++ {
		if resp, err = c.cursorNext(resp.CursorID, k); err != nil {
			return nil, fmt.Errorf("cursor page %d: %w", p+1, err)
		}
		cursorTuples = resp.Stats.TuplesScanned
	}
	if err := c.cursorClose(resp.CursorID); err != nil {
		return nil, fmt.Errorf("cursor close: %w", err)
	}

	one, err := c.query(sessionID, stmtID, withLimit(pages*k))
	if err != nil {
		return nil, fmt.Errorf("one-shot run: %w", err)
	}

	var naiveTuples int64
	for p := 1; p <= pages; p++ {
		r, err := c.query(sessionID, stmtID, withLimit(p*k))
		if err != nil {
			return nil, fmt.Errorf("naive page %d: %w", p, err)
		}
		naiveTuples += r.Stats.TuplesScanned
	}

	pr := &paginationReport{
		Pages:         pages,
		PageSize:      k,
		CursorTuples:  cursorTuples,
		OneShotTuples: one.Stats.TuplesScanned,
		NaiveTuples:   naiveTuples,
	}
	if pr.OneShotTuples > 0 {
		pr.CursorVsOneShot = float64(pr.CursorTuples) / float64(pr.OneShotTuples)
		pr.NaiveVsOneShot = float64(pr.NaiveTuples) / float64(pr.OneShotTuples)
	}
	return pr, nil
}

// benchClient is a minimal ranksqld protocol client.
type benchClient struct {
	base string
	http *http.Client
}

func (c *benchClient) openSession() (string, error) {
	var out struct {
		SessionID string `json:"session_id"`
		Error     string `json:"error"`
	}
	if err := c.post("/session", map[string]interface{}{}, &out); err != nil {
		return "", err
	}
	if out.Error != "" {
		return "", fmt.Errorf("%s", out.Error)
	}
	return out.SessionID, nil
}

func (c *benchClient) prepare(sessionID, sql string) (string, error) {
	var out struct {
		StmtID string `json:"stmt_id"`
		Error  string `json:"error"`
	}
	if err := c.post("/prepare", map[string]interface{}{"session_id": sessionID, "sql": sql}, &out); err != nil {
		return "", err
	}
	if out.Error != "" {
		return "", fmt.Errorf("%s", out.Error)
	}
	return out.StmtID, nil
}

func (c *benchClient) query(sessionID, stmtID string, params []interface{}) (*wire.QueryResponse, error) {
	var out wire.QueryResponse
	req := map[string]interface{}{"session_id": sessionID, "stmt_id": stmtID, "params": params}
	if err := c.post("/query", req, &out); err != nil {
		return nil, err
	}
	if out.Error != "" {
		return nil, fmt.Errorf("%s", out.Error)
	}
	return &out, nil
}

// queryCursor opens a ranked cursor over a prepared statement and
// returns its first page (carrying the cursor_id for cursorNext).
func (c *benchClient) queryCursor(sessionID, stmtID string, params []interface{}, fetch int) (*wire.QueryResponse, error) {
	var out wire.QueryResponse
	req := map[string]interface{}{
		"session_id": sessionID, "stmt_id": stmtID, "params": params,
		"cursor": true, "fetch": fetch,
	}
	if err := c.post("/query", req, &out); err != nil {
		return nil, err
	}
	if out.Error != "" {
		return nil, fmt.Errorf("%s", out.Error)
	}
	return &out, nil
}

// cursorNext pulls the next page of a suspended ranked cursor.
func (c *benchClient) cursorNext(cursorID string, fetch int) (*wire.QueryResponse, error) {
	var out wire.QueryResponse
	req := map[string]interface{}{"cursor_id": cursorID, "fetch": fetch}
	if err := c.post("/cursor/next", req, &out); err != nil {
		return nil, err
	}
	if out.Error != "" {
		return nil, fmt.Errorf("%s", out.Error)
	}
	if out.CursorID == "" {
		out.CursorID = cursorID
	}
	return &out, nil
}

// cursorClose releases a ranked cursor.
func (c *benchClient) cursorClose(cursorID string) error {
	var out struct {
		Error string `json:"error"`
	}
	if err := c.post("/cursor/close", map[string]interface{}{"cursor_id": cursorID}, &out); err != nil {
		return err
	}
	if out.Error != "" {
		return fmt.Errorf("%s", out.Error)
	}
	return nil
}

func (c *benchClient) exec(sessionID, stmtID string, params []interface{}) error {
	var out struct {
		Error string `json:"error"`
	}
	req := map[string]interface{}{"session_id": sessionID, "stmt_id": stmtID, "params": params}
	if err := c.post("/exec", req, &out); err != nil {
		return err
	}
	if out.Error != "" {
		return fmt.Errorf("%s", out.Error)
	}
	return nil
}

func (c *benchClient) post(path string, req, out interface{}) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

func getJSON(url string, out interface{}) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
