package server

import (
	"fmt"
	"math"
	"strings"

	"ranksql"
)

// Rng is a xorshift-style deterministic generator, so seeded datasets
// are reproducible across runs and processes.
type Rng uint64

// NewRng returns a generator for a non-zero-ified seed.
func NewRng(seed uint64) Rng { return Rng(seed | 1) }

// Next returns the next pseudo-random 64-bit value.
func (r *Rng) Next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = Rng(x)
	return x * 0x2545F4914F6CDD1D
}

// Float returns a uniform float64 in [0, 1).
func (r *Rng) Float() float64 { return float64(r.Next()>>11) / (1 << 53) }

// Intn returns a uniform int in [0, n).
func (r *Rng) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Dataset describes one example dataset once: its scorers, its tables
// and its index DDL. Seed fills a local database from it and
// router.SeedVia fills a cluster over HTTP, so both run the same
// statements in the same order (Load).
type Dataset struct {
	// Scorers are Go code, so every process serving the dataset's data —
	// each shard of a sharded deployment included — must register them
	// at startup (RegisterScorers); data can then arrive over the wire.
	Scorers []Scorer
	Tables  []Table
	// CSV renders n-scaled rows for every table, in Tables order, as CSV
	// without a header.
	CSV func(n int) []string
	// IndexDDL runs after the data is loaded.
	IndexDDL []string
}

// Scorer is one ranking function of a dataset.
type Scorer struct {
	Name string
	Fn   ranksql.ScoreFunc
	Cost float64
}

// Table is one base table of a dataset.
type Table struct {
	Name string
	DDL  string
	// PartitionKey is the column a sharded deployment partitions the
	// table on; "" leaves the choice to the router.
	PartitionKey string
}

// Webshop is a product table with rating/popular/bargain scorers and a
// rank index over each criterion. Mirrors examples/webshop.
var Webshop = &Dataset{
	Scorers: []Scorer{
		{"rating", func(args []ranksql.Value) float64 { return args[0].Float() / 5 }, 1},
		{"popular", func(args []ranksql.Value) float64 {
			return math.Log1p(args[0].Float()) / math.Log1p(100000)
		}, 1},
		{"bargain", func(args []ranksql.Value) float64 { return math.Max(0, 1-args[0].Float()/500) }, 1},
	},
	Tables: []Table{
		{Name: "product", DDL: `CREATE TABLE product (name TEXT, price FLOAT, stars FLOAT, sales INT, in_stock BOOL)`},
	},
	CSV: func(n int) []string {
		r := NewRng(99)
		var b strings.Builder
		for i := 0; i < n; i++ {
			stock := "true"
			if r.Float() < 0.15 {
				stock = "false"
			}
			fmt.Fprintf(&b, "SKU-%05d,%.2f,%.1f,%d,%s\n",
				i, 5+r.Float()*495, 1+4*r.Float(), r.Intn(100000), stock)
		}
		return []string{b.String()}
	},
	IndexDDL: []string{
		`CREATE RANK INDEX ON product (rating(stars))`,
		`CREATE RANK INDEX ON product (popular(sales))`,
		`CREATE RANK INDEX ON product (bargain(price))`,
	},
}

// Tripplanner is hotels (n rows) and restaurants (2n rows) joined on
// address blocks, with cheap/close scorers and rank indexes. Both tables
// are partitioned on addr, so a sharded deployment keeps the join
// shard-local and per-shard joins are complete.
var Tripplanner = &Dataset{
	Scorers: []Scorer{
		{"cheap", func(args []ranksql.Value) float64 { return math.Max(0, 1-args[0].Float()/500) }, 1},
		{"close", func(args []ranksql.Value) float64 {
			return 1 / (1 + math.Abs(args[0].Float()-args[1].Float())/10)
		}, 2},
	},
	Tables: []Table{
		{Name: "hotel", DDL: `CREATE TABLE hotel (name TEXT, price FLOAT, addr INT)`, PartitionKey: "addr"},
		{Name: "restaurant", DDL: `CREATE TABLE restaurant (name TEXT, price FLOAT, addr INT)`, PartitionKey: "addr"},
	},
	CSV: func(n int) []string {
		blocks := n/10 + 1
		r := NewRng(7)
		var h, rs strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&h, "Hotel-%04d,%.2f,%d\n", i, 30+r.Float()*470, r.Intn(blocks))
		}
		for i := 0; i < 2*n; i++ {
			fmt.Fprintf(&rs, "Rest-%04d,%.2f,%d\n", i, 5+r.Float()*195, r.Intn(blocks))
		}
		return []string{h.String(), rs.String()}
	},
	IndexDDL: []string{
		`CREATE RANK INDEX ON hotel (cheap(price))`,
		`CREATE RANK INDEX ON restaurant (cheap(price))`,
		`CREATE INDEX ON hotel (addr)`,
		`CREATE INDEX ON restaurant (addr)`,
	},
}

// RegisterScorers registers the dataset's ranking functions in db.
func (d *Dataset) RegisterScorers(db *ranksql.DB) error {
	for _, s := range d.Scorers {
		if err := db.RegisterScorer(s.Name, s.Fn, ranksql.WithCost(s.Cost)); err != nil {
			return err
		}
	}
	return nil
}

// Load runs the dataset's statements in the one order every seeder uses:
// each table's DDL through exec, each table's n-scaled CSV through load,
// then the index DDL through exec.
func (d *Dataset) Load(n int, exec func(sql, partitionKey string) error, load func(table, csv string) error) error {
	for _, t := range d.Tables {
		if err := exec(t.DDL, t.PartitionKey); err != nil {
			return err
		}
	}
	for i, body := range d.CSV(n) {
		if err := load(d.Tables[i].Name, body); err != nil {
			return err
		}
	}
	for _, ddl := range d.IndexDDL {
		if err := exec(ddl, ""); err != nil {
			return err
		}
	}
	return nil
}

// Seed registers the dataset's scorers in db and loads it, n-scaled.
func (d *Dataset) Seed(db *ranksql.DB, n int) error {
	if err := d.RegisterScorers(db); err != nil {
		return err
	}
	return d.Load(n, func(sql, _ string) error {
		_, err := db.Exec(sql)
		return err
	}, func(table, csv string) error {
		_, err := db.LoadCSV(table, strings.NewReader(csv), false)
		return err
	})
}

// LookupDataset finds a dataset by name ("webshop" or "tripplanner");
// "" and "none" name no dataset and return nil, nil.
func LookupDataset(name string) (*Dataset, error) {
	switch strings.ToLower(name) {
	case "webshop":
		return Webshop, nil
	case "tripplanner":
		return Tripplanner, nil
	case "", "none":
		return nil, nil
	default:
		return nil, fmt.Errorf("server: unknown dataset %q (want webshop, tripplanner or none)", name)
	}
}

// Seed loads a named example dataset; n scales the base table size.
func Seed(db *ranksql.DB, dataset string, n int) error {
	d, err := LookupDataset(dataset)
	if d == nil {
		return err
	}
	return d.Seed(db, n)
}

// RegisterScorers registers a named dataset's ranking functions without
// loading any data — how the shards of a sharded deployment start, with
// data arriving afterwards through the router's partitioning ingest.
func RegisterScorers(db *ranksql.DB, dataset string) error {
	d, err := LookupDataset(dataset)
	if d == nil {
		return err
	}
	return d.RegisterScorers(db)
}
