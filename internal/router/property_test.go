package router

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ranksql"
	"ranksql/internal/server"
)

// registerGridScorers installs the identity scorers the property tests
// rank with: sa(x) = x and sb(x) = x over grid-valued columns, so
// duplicate scores (ties) are frequent.
func registerGridScorers(db *ranksql.DB) error {
	if err := db.RegisterScorer("sa", func(args []ranksql.Value) float64 {
		return args[0].Float()
	}); err != nil {
		return err
	}
	return db.RegisterScorer("sb", func(args []ranksql.Value) float64 {
		return args[0].Float()
	})
}

// propConfig sizes one equivalence-property run.
type propConfig struct {
	iters       int
	shardCounts []int
	seed        uint64
}

// runEquivalenceProperty is the sharded-vs-single-node property: for
// randomized datasets, weights, predicates and k, the sharded top-k
// (result set and order, modulo tie groups) must equal the single-node
// top-k, for every shard count. Datasets draw values from a coarse grid
// so score ties are common, pinning the tie handling too.
func runEquivalenceProperty(t *testing.T, cfg propConfig) {
	rng := server.NewRng(cfg.seed)
	for iter := 0; iter < cfg.iters; iter++ {
		nRows := 50 + rng.Intn(350)
		k := 1 + rng.Intn(25)
		w1 := float64(1+rng.Intn(20)) / 10 // 0.1 .. 2.0
		w2 := float64(1+rng.Intn(20)) / 10
		bound := float64(rng.Intn(11)) / 10 // WHERE a >= bound

		// Rows over a 21-point grid; id is the (unique) partition key.
		var csvB strings.Builder
		for i := 0; i < nRows; i++ {
			fmt.Fprintf(&csvB, "%d,%.2f,%.2f,%d\n",
				i, float64(rng.Intn(21))/20, float64(rng.Intn(21))/20, rng.Intn(5))
		}
		csvData := csvB.String()

		const ddl = `CREATE TABLE items (id INT, a FLOAT, b FLOAT, grp INT)`
		query := fmt.Sprintf(
			`SELECT id, a, b FROM items WHERE a >= ? ORDER BY %g*sa(a) + %g*sb(b) LIMIT ?`, w1, w2)

		single := ranksql.Open()
		if err := registerGridScorers(single); err != nil {
			t.Fatal(err)
		}
		if _, err := single.Exec(ddl); err != nil {
			t.Fatal(err)
		}
		if _, err := single.LoadCSV("items", strings.NewReader(csvData), false); err != nil {
			t.Fatal(err)
		}
		// The reference goes all the way down (LIMIT = table size), so
		// boundary tie groups are always covered in full.
		ref, err := single.QueryContext(t.Context(), query, bound, nRows)
		if err != nil {
			t.Fatal(err)
		}

		for _, shards := range cfg.shardCounts {
			label := fmt.Sprintf("iter=%d shards=%d rows=%d k=%d w=(%g,%g) bound=%g",
				iter, shards, nRows, k, w1, w2, bound)
			c := newCluster(t, shards, registerGridScorers)
			var ex struct {
				Error string `json:"error"`
			}
			postJSON(t, c.front.URL+"/exec", map[string]interface{}{"sql": ddl}, &ex)
			if ex.Error != "" {
				t.Fatalf("%s: ddl: %s", label, ex.Error)
			}
			// Alternate the two ingest paths: partitioned CSV /load and
			// partitioned multi-row INSERT /exec.
			if iter%2 == 0 {
				resp, err := c.front.Client().Post(c.front.URL+"/load?table=items", "text/csv",
					strings.NewReader(csvData))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Fatalf("%s: /load status %d", label, resp.StatusCode)
				}
			} else {
				var tuples []string
				for _, line := range strings.Split(strings.TrimSpace(csvData), "\n") {
					f := strings.Split(line, ",")
					tuples = append(tuples, fmt.Sprintf("(%s, %s, %s, %s)", f[0], f[1], f[2], f[3]))
				}
				postJSON(t, c.front.URL+"/exec", map[string]interface{}{
					"sql": "INSERT INTO items VALUES " + strings.Join(tuples, ", "),
				}, &ex)
				if ex.Error != "" {
					t.Fatalf("%s: insert: %s", label, ex.Error)
				}
			}
			var got testQueryResponse
			postJSON(t, c.front.URL+"/query", map[string]interface{}{
				"sql": query, "params": []interface{}{bound, k},
			}, &got)
			assertEquivalent(t, label, ref, k, &got)
			if got.Merge.Shards != shards {
				t.Fatalf("%s: merge.shards = %d", label, got.Merge.Shards)
			}
		}
	}
}

// TestShardedEqualsSingleNodeProperty is the acceptance-criteria
// property run: shard counts 1, 2 and 4 under -race (CI always runs
// tests with -race). The slowtests build tag scales the iteration count
// up; see slow_test.go.
func TestShardedEqualsSingleNodeProperty(t *testing.T) {
	runEquivalenceProperty(t, propConfig{
		iters:       equivalenceIters,
		shardCounts: []int{1, 2, 4},
		seed:        0xC0FFEE,
	})
}

// TestShardedEquivalenceUnderConcurrentMerges runs the same cluster's
// merge path from many goroutines at once (distinct k and bounds), so
// the fan-out, refill and template-cache machinery is raced against
// itself.
func TestShardedEquivalenceUnderConcurrentMerges(t *testing.T) {
	const rows = 800
	single := ranksql.Open()
	if err := server.Webshop.Seed(single, rows); err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 4, server.Webshop.RegisterScorers)
	if err := SeedVia(nil, c.front.URL, "webshop", rows); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT name, price, stars, sales FROM product
		WHERE in_stock AND price < ?
		ORDER BY 0.5*rating(stars) + 0.3*popular(sales) + 0.2*bargain(price) LIMIT ?`
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := 1 + (g*10+i)%17
				bound := 120 + float64((g*7+i)%10)*38
				ref, err := single.QueryContext(t.Context(), q, bound, k+100)
				if err != nil {
					t.Error(err)
					return
				}
				var got testQueryResponse
				postJSON(t, c.front.URL+"/query", map[string]interface{}{
					"sql": q, "params": []interface{}{bound, k},
				}, &got)
				assertEquivalent(t, fmt.Sprintf("goroutine=%d i=%d k=%d", g, i, k), ref, k, &got)
			}
		}(g)
	}
	wg.Wait()
}
