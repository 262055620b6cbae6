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

// WebshopDDL creates the webshop base table; WebshopRankIndexDDL builds
// its rank indexes (run after loading data). They are exported so a
// sharded deployment can replay the same schema on every backend.
const WebshopDDL = `CREATE TABLE product (name TEXT, price FLOAT, stars FLOAT, sales INT, in_stock BOOL)`

// WebshopRankIndexDDL lists the webshop rank-index statements.
var WebshopRankIndexDDL = []string{
	`CREATE RANK INDEX ON product (rating(stars))`,
	`CREATE RANK INDEX ON product (popular(sales))`,
	`CREATE RANK INDEX ON product (bargain(price))`,
}

// RegisterWebshopScorers registers the webshop ranking functions
// (rating/popular/bargain). Scorers are Go code, so every process
// serving webshop data — each shard of a sharded deployment included —
// must register them at startup; data can then arrive over the wire.
func RegisterWebshopScorers(db *ranksql.DB) error {
	if err := db.RegisterScorer("rating", func(args []ranksql.Value) float64 {
		return args[0].Float() / 5
	}, ranksql.WithCost(1)); err != nil {
		return err
	}
	if err := db.RegisterScorer("popular", func(args []ranksql.Value) float64 {
		return math.Log1p(args[0].Float()) / math.Log1p(100000)
	}, ranksql.WithCost(1)); err != nil {
		return err
	}
	return db.RegisterScorer("bargain", func(args []ranksql.Value) float64 {
		return math.Max(0, 1-args[0].Float()/500)
	}, ranksql.WithCost(1))
}

// SeedWebshop loads the webshop example schema: a product table with n
// rows, the rating/popular/bargain scorers, and rank indexes over each
// criterion. Mirrors examples/webshop. Data goes through the same CSV
// text WebshopCSV renders, so a sharded cluster ingesting that CSV via a
// router holds exactly this database, partitioned.
func SeedWebshop(db *ranksql.DB, n int) error {
	if err := RegisterWebshopScorers(db); err != nil {
		return err
	}
	if _, err := db.Exec(WebshopDDL); err != nil {
		return err
	}
	if _, err := db.LoadCSV("product", strings.NewReader(WebshopCSV(n)), false); err != nil {
		return err
	}
	for _, ddl := range WebshopRankIndexDDL {
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
	}
	return nil
}

// WebshopCSV renders the same n webshop product rows SeedWebshop
// inserts, as CSV (no header). A sharded router ingests this through its
// partitioning /load path, so a sharded cluster holds exactly the same
// data a single node seeded with SeedWebshop does.
func WebshopCSV(n int) string {
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
	return b.String()
}

// RegisterTripplannerScorers registers the tripplanner ranking functions
// (cheap/close); see RegisterWebshopScorers for why this is separate
// from data seeding.
func RegisterTripplannerScorers(db *ranksql.DB) error {
	if err := db.RegisterScorer("cheap", func(args []ranksql.Value) float64 {
		return math.Max(0, 1-args[0].Float()/500)
	}, ranksql.WithCost(1)); err != nil {
		return err
	}
	return db.RegisterScorer("close", func(args []ranksql.Value) float64 {
		return 1 / (1 + math.Abs(args[0].Float()-args[1].Float())/10)
	}, ranksql.WithCost(2))
}

// Tripplanner schema DDL, exported for sharded replay. Hotels and
// restaurants join on addr, so a sharded deployment must co-partition
// both tables on addr (the router's per-shard joins are then complete).
const (
	TripplannerHotelDDL      = `CREATE TABLE hotel (name TEXT, price FLOAT, addr INT)`
	TripplannerRestaurantDDL = `CREATE TABLE restaurant (name TEXT, price FLOAT, addr INT)`
)

// TripplannerIndexDDL lists the tripplanner index statements.
var TripplannerIndexDDL = []string{
	`CREATE RANK INDEX ON hotel (cheap(price))`,
	`CREATE RANK INDEX ON restaurant (cheap(price))`,
	`CREATE INDEX ON hotel (addr)`,
	`CREATE INDEX ON restaurant (addr)`,
}

// TripplannerCSV renders the tripplanner hotel (n rows) and restaurant
// (2n rows) tables as CSV, drawing the same random stream SeedTripplanner
// loads.
func TripplannerCSV(n int) (hotels, restaurants string) {
	blocks := n/10 + 1
	r := NewRng(7)
	var h, rs strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&h, "Hotel-%04d,%.2f,%d\n", i, 30+r.Float()*470, r.Intn(blocks))
	}
	for i := 0; i < 2*n; i++ {
		fmt.Fprintf(&rs, "Rest-%04d,%.2f,%d\n", i, 5+r.Float()*195, r.Intn(blocks))
	}
	return h.String(), rs.String()
}

// SeedTripplanner loads the tripplanner example schema: hotels and
// restaurants joined on address blocks, with cheap/close scorers and rank
// indexes. n sizes the hotel table; restaurants get 2n rows.
func SeedTripplanner(db *ranksql.DB, n int) error {
	if err := RegisterTripplannerScorers(db); err != nil {
		return err
	}
	if _, err := db.Exec(TripplannerHotelDDL); err != nil {
		return err
	}
	if _, err := db.Exec(TripplannerRestaurantDDL); err != nil {
		return err
	}
	hotels, restaurants := TripplannerCSV(n)
	if _, err := db.LoadCSV("hotel", strings.NewReader(hotels), false); err != nil {
		return err
	}
	if _, err := db.LoadCSV("restaurant", strings.NewReader(restaurants), false); err != nil {
		return err
	}
	for _, ddl := range TripplannerIndexDDL {
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
	}
	return nil
}

// Seed loads a named example dataset ("webshop" or "tripplanner"); n
// scales the base table size.
func Seed(db *ranksql.DB, dataset string, n int) error {
	switch strings.ToLower(dataset) {
	case "webshop":
		return SeedWebshop(db, n)
	case "tripplanner":
		return SeedTripplanner(db, n)
	case "", "none":
		return nil
	default:
		return fmt.Errorf("server: unknown dataset %q (want webshop, tripplanner or none)", dataset)
	}
}

// RegisterScorers registers a named dataset's ranking functions without
// loading any data — how the shards of a sharded deployment start, with
// data arriving afterwards through the router's partitioning ingest.
func RegisterScorers(db *ranksql.DB, dataset string) error {
	switch strings.ToLower(dataset) {
	case "webshop":
		return RegisterWebshopScorers(db)
	case "tripplanner":
		return RegisterTripplannerScorers(db)
	case "", "none":
		return nil
	default:
		return fmt.Errorf("server: unknown scorer set %q (want webshop, tripplanner or none)", dataset)
	}
}
