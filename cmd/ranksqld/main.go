// Command ranksqld runs the RankSQL query daemon: a concurrent HTTP/JSON
// service with sessions, prepared statements and a rank-aware plan cache
// (see internal/server for the endpoint protocol).
//
//	$ go run ./cmd/ranksqld -addr :7070 -seed webshop -rows 20000
//
//	$ curl -s localhost:7070/query -d '{
//	    "sql": "SELECT name, price FROM product WHERE in_stock AND price < ? ORDER BY rating(stars) LIMIT ?",
//	    "params": [200, 5]}'
//	$ curl -s localhost:7070/stats
//
// With -router it instead runs the sharding coordinator over a set of
// ranksqld backends (see internal/router): tables are hash-partitioned
// across the shards and top-k SELECTs are answered by a threshold-merge
// over the shards' ranked streams.
//
//	$ go run ./cmd/ranksqld -addr :7171 -seed none -scorers webshop   # x2 shards
//	$ go run ./cmd/ranksqld -addr :7172 -seed none -scorers webshop
//	$ go run ./cmd/ranksqld -router -shards localhost:7171,localhost:7172 \
//	      -addr :7070 -seed webshop -rows 20000
//
// The daemon shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ranksql"
	"ranksql/internal/router"
	"ranksql/internal/server"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	seed := flag.String("seed", "webshop", "example dataset to preload: webshop, tripplanner or none")
	rows := flag.Int("rows", 20000, "seeded base-table row count")
	cache := flag.Int("plan-cache", 0, "plan cache capacity (0 = engine default)")
	scorers := flag.String("scorers", "", "register a dataset's scorers without seeding its data (comma-separated; for shard backends started with -seed none)")
	sessionTTL := flag.Duration("session-ttl", 0, "expiry of idle sessions and idle ranked cursors; in router mode, of idle router cursors (0 = never expire)")
	routerMode := flag.Bool("router", false, "run as a sharding coordinator over -shards instead of an embedded engine")
	shards := flag.String("shards", "", "shard base URLs (router mode): shards separated by ';', replicas of one shard by ',', e.g. a:7070,b:7070;c:7070,d:7070 (two shards, two replicas each); with no ';' each comma-separated URL is its own single-replica shard")
	hedgeDelay := flag.Duration("hedge-delay", 0, "router mode: issue a hedged read to a shard's next replica when the preferred one hasn't answered within this delay (0 = disabled)")
	resultCache := flag.Int("result-cache", 0, "router mode: ranked-result cache capacity in entries (0 = default, negative = disabled)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this threshold at Warn (0 = disabled), e.g. 250ms")
	profileEvery := flag.Int("profile-every", 0, "sample per-operator runtime profiles every N-th execution of a cached plan (0 = engine default)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *routerMode {
		var ropts []router.Option
		if *sessionTTL > 0 {
			ropts = append(ropts, router.WithCursorTTL(*sessionTTL))
		}
		if *pprofFlag {
			ropts = append(ropts, router.WithPprof())
		}
		if *slowQuery > 0 {
			ropts = append(ropts, router.WithSlowQueryThreshold(*slowQuery))
		}
		if *hedgeDelay > 0 {
			ropts = append(ropts, router.WithHedgeDelay(*hedgeDelay))
		}
		if *resultCache != 0 {
			ropts = append(ropts, router.WithResultCache(*resultCache))
		}
		runRouter(ctx, *addr, *shards, *seed, *rows, ropts)
		return
	}

	db := ranksql.Open()
	if *cache > 0 {
		db.SetPlanCacheCapacity(*cache)
	}
	if *profileEvery > 0 {
		db.SetProfileSampling(*profileEvery)
	}
	if err := server.Seed(db, *seed, *rows); err != nil {
		log.Fatalf("ranksqld: seeding %s: %v", *seed, err)
	}
	for _, ds := range strings.Split(*scorers, ",") {
		ds = strings.TrimSpace(ds)
		if ds == "" || strings.EqualFold(ds, *seed) { // seeding already registered them
			continue
		}
		if err := server.RegisterScorers(db, ds); err != nil {
			log.Fatalf("ranksqld: scorers %s: %v", ds, err)
		}
	}
	if *seed != "none" && *seed != "" {
		log.Printf("ranksqld: seeded %s dataset (%d rows), tables: %v", *seed, *rows, db.Tables())
	}

	var opts []server.Option
	if *sessionTTL > 0 {
		opts = append(opts, server.WithSessionTTL(*sessionTTL))
	}
	if *pprofFlag {
		opts = append(opts, server.WithPprof())
	}
	if *slowQuery > 0 {
		opts = append(opts, server.WithSlowQueryThreshold(*slowQuery))
	}
	if err := server.New(db, opts...).Serve(ctx, *addr); err != nil {
		log.Fatalf("ranksqld: %v", err)
	}
}

// runRouter serves the sharding coordinator: partition-aware DDL/DML
// fan-out plus threshold-merged top-k over the listed shard backends.
// With -seed it loads the dataset through its own partitioned ingest
// path once the listener is up (the shards receive only their rows).
func runRouter(ctx context.Context, addr, shardList, seed string, rows int, opts []router.Option) {
	// ';' separates shards, ',' separates a shard's replicas. Without a
	// ';' the legacy form — every comma-separated URL its own shard —
	// still applies, so existing single-replica invocations keep working.
	var urls []string
	groupSep := ","
	if strings.Contains(shardList, ";") {
		groupSep = ";"
	}
	for _, g := range strings.Split(shardList, groupSep) {
		if g = strings.TrimSpace(g); g != "" {
			urls = append(urls, g)
		}
	}
	rt, err := router.New(urls, opts...)
	if err != nil {
		log.Fatalf("ranksqld: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("ranksqld: %v", err)
	}
	if seed != "" && seed != "none" {
		base := "http://" + ln.Addr().String()
		if host, port, err := net.SplitHostPort(ln.Addr().String()); err == nil && (host == "::" || host == "0.0.0.0") {
			base = "http://127.0.0.1:" + port
		}
		go func() {
			// Wait for our own endpoint (and every shard behind it: the
			// router's /healthz is 200 only when all shards answer) before
			// ingesting through the front door. A failed seed leaves the
			// router serving — the operator can re-run the load — rather
			// than killing a healthy daemon from a goroutine.
			if err := seedWhenHealthy(base, seed, rows); err != nil {
				log.Printf("ranksqld-router: seeding %s failed: %v (are the shards up, with -scorers %s? re-seed via POST /exec + /load)", seed, err, seed)
				return
			}
			log.Printf("ranksqld-router: seeded %s dataset (%d rows) across %d shards", seed, rows, rt.NumShards())
		}()
	}
	if err := rt.ServeListener(ctx, ln); err != nil {
		log.Fatalf("ranksqld: %v", err)
	}
}

// seedWhenHealthy polls the router's /healthz (200 = router up and all
// shards answering) for up to 15s, then loads the dataset through the
// router's partitioned ingest.
func seedWhenHealthy(base, seed string, rows int) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not healthy within 15s")
		}
		time.Sleep(100 * time.Millisecond)
	}
	return router.SeedVia(nil, base, seed, rows)
}
