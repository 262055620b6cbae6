package paper

import (
	"fmt"
	"math"
	"strings"

	"ranksql/internal/catalog"
	"ranksql/internal/expr"
	"ranksql/internal/optimizer"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// Config parameterizes the §6 database: three tables A, B, C of equal size
// with Boolean attributes of selectivity 0.4 on A and B, two join columns
// jc1/jc2 with controlled join selectivity, and ranking-predicate score
// columns drawn from uniform, normal(0.5, 0.16) and cosine distributions.
// Fields mirror the paper's experimental axes.
type Config struct {
	// Size s: rows per table (paper: 10,000 – 1,000,000; default 100,000).
	Size int
	// JoinSelectivity j (paper: 0.001 – 0.00001; default 0.0001). The
	// join columns draw uniformly from 1/j distinct values.
	JoinSelectivity float64
	// PredCost c: unit cost of every ranking predicate (paper: 0 – 1,000;
	// default 1).
	PredCost float64
	// K: requested result size (paper: 1 – 1,000; default 10).
	K int
	// BoolSelectivity of A.b and B.b (paper: 0.4).
	BoolSelectivity float64
	// Seed makes generation deterministic.
	Seed uint64
}

// DefaultConfig returns the paper's default parameter setting
// (k=10, s=100,000, j=0.0001, c=1).
func DefaultConfig() Config {
	return Config{
		Size:            100000,
		JoinSelectivity: 0.0001,
		PredCost:        1,
		K:               10,
		BoolSelectivity: 0.4,
		Seed:            1,
	}
}

// rng is xorshift64*, deterministic and dependency-free.
type rng uint64

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r := rng(seed)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545F4914F6CDD1D
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Distribution names a score distribution.
type Distribution int

// Score distributions used by the paper.
const (
	Uniform Distribution = iota
	Normal               // mean 0.5, variance 0.16, truncated to [0, 1]
	Cosine               // raised-cosine density 1 + cos(2πx) on [0, 1]
)

// sample draws one score from the distribution.
func (d Distribution) sample(r *rng) float64 {
	switch d {
	case Normal:
		// Box-Muller, truncated into [0,1] by resampling.
		const sigma = 0.4 // sqrt(0.16)
		for i := 0; i < 64; i++ {
			u1, u2 := r.float(), r.float()
			if u1 == 0 {
				continue
			}
			z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
			x := 0.5 + sigma*z
			if x >= 0 && x <= 1 {
				return x
			}
		}
		return 0.5
	case Cosine:
		// Inverse-transform sampling of f(x) = 1 + cos(2πx):
		// F(x) = x + sin(2πx)/(2π); invert by bisection.
		u := r.float()
		lo, hi := 0.0, 1.0
		for i := 0; i < 40; i++ {
			mid := (lo + hi) / 2
			if mid+math.Sin(2*math.Pi*mid)/(2*math.Pi) < u {
				lo = mid
			} else {
				hi = mid
			}
		}
		return (lo + hi) / 2
	default:
		return r.float()
	}
}

// DB bundles the generated catalog with everything the plans need: the
// query in canonical form and the five ranking predicates f1..f5.
type DB struct {
	Config  Config
	Catalog *catalog.Catalog
	// Spec is F = f1(A.p1)+f2(A.p2)+f3(B.p1)+f4(B.p2)+f5(C.p1).
	Spec *rank.Spec
	// Preds aliases Spec.Preds for convenience (f1..f5 in order).
	Preds []*rank.Predicate
	// env builds plans against A, B and C (see Run).
	env *optimizer.Env
}

// identityScore reads the precomputed score column; the predicate's
// expense is modeled by Predicate.Cost, which the execution counters
// accumulate, as the paper's user-defined functions were.
func identityScore(args []types.Value) float64 {
	f, _ := args[0].AsFloat()
	return f
}

// Build generates the database: tables, statistics, rank indexes on A.p1,
// B.p1, C.p1 (the access paths plan2/plan4 use), and attribute indexes on
// the join columns (for plan1's sort-merge strategy).
func Build(cfg Config) (*DB, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("paper: size must be positive")
	}
	if cfg.JoinSelectivity <= 0 || cfg.JoinSelectivity > 1 {
		return nil, fmt.Errorf("paper: join selectivity must be in (0, 1]")
	}
	if cfg.BoolSelectivity == 0 {
		cfg.BoolSelectivity = 0.4
	}
	c := catalog.New()
	r := newRng(cfg.Seed)
	distinct := int(math.Round(1 / cfg.JoinSelectivity))
	if distinct < 1 {
		distinct = 1
	}

	type tableSpec struct {
		name    string
		hasBool bool
		dists   []Distribution // score column distributions
	}
	specs := []tableSpec{
		{"A", true, []Distribution{Uniform, Normal}},
		{"B", true, []Distribution{Cosine, Uniform}},
		{"C", false, []Distribution{Normal}},
	}
	env := &optimizer.Env{Tables: map[string]*catalog.TableMeta{}}
	for _, ts := range specs {
		cols := []schema.Column{
			{Name: "jc1", Kind: types.KindInt},
			{Name: "jc2", Kind: types.KindInt},
		}
		if ts.hasBool {
			cols = append(cols, schema.Column{Name: "b", Kind: types.KindBool})
		}
		for i := range ts.dists {
			cols = append(cols, schema.Column{Name: fmt.Sprintf("p%d", i+1), Kind: types.KindFloat})
		}
		tm, err := c.CreateTable(ts.name, schema.NewSchema(cols...))
		if err != nil {
			return nil, err
		}
		env.Tables[strings.ToLower(ts.name)] = tm
		for i := 0; i < cfg.Size; i++ {
			row := []types.Value{
				types.NewInt(int64(r.intn(distinct))),
				types.NewInt(int64(r.intn(distinct))),
			}
			if ts.hasBool {
				row = append(row, types.NewBool(r.float() < cfg.BoolSelectivity))
			}
			for _, d := range ts.dists {
				row = append(row, types.NewFloat(d.sample(r)))
			}
			tm.Table.MustAppend(row)
		}
	}

	// Ranking predicates f1..f5 with uniform cost c.
	mk := func(index int, scorer, table, col string) *rank.Predicate {
		return &rank.Predicate{
			Index:  index,
			Name:   fmt.Sprintf("%s(%s.%s)", scorer, table, col),
			Scorer: scorer,
			Args:   []rank.ColumnRef{{Table: table, Column: col}},
			Fn:     identityScore,
			Cost:   cfg.PredCost,
		}
	}
	preds := []*rank.Predicate{
		mk(0, "f1", "A", "p1"),
		mk(1, "f2", "A", "p2"),
		mk(2, "f3", "B", "p1"),
		mk(3, "f4", "B", "p2"),
		mk(4, "f5", "C", "p1"),
	}
	spec, err := rank.NewSpec(rank.NewSum(5), preds)
	if err != nil {
		return nil, err
	}

	// Rank indexes used by the Figure 11 plans: f1 on A, f3 on B, f5 on C.
	for _, ri := range []struct {
		table, scorer, col string
	}{
		{"A", "f1", "p1"},
		{"B", "f3", "p1"},
		{"C", "f5", "p1"},
	} {
		tm, err := c.Table(ri.table)
		if err != nil {
			return nil, err
		}
		if _, err := tm.CreateRankIndex(ri.scorer, []string{ri.col}, identityScore); err != nil {
			return nil, err
		}
	}
	// Attribute indexes on join columns (plan1's access paths).
	for _, ai := range []struct{ table, col string }{
		{"A", "jc1"}, {"B", "jc1"}, {"B", "jc2"}, {"C", "jc2"},
	} {
		tm, err := c.Table(ai.table)
		if err != nil {
			return nil, err
		}
		if _, err := tm.CreateIndex(ai.col); err != nil {
			return nil, err
		}
	}
	return &DB{Config: cfg, Catalog: c, Spec: spec, Preds: preds, env: env}, nil
}

// Query returns the paper's benchmark query Q in canonical form:
//
//	SELECT * FROM A, B, C
//	WHERE A.jc1=B.jc1 AND B.jc2=C.jc2 AND A.b AND B.b
//	ORDER BY f1(A.p1)+f2(A.p2)+f3(B.p1)+f4(B.p2)+f5(C.p1)
//	LIMIT k
func (db *DB) Query() *optimizer.Query {
	where := expr.And(
		expr.Eq(expr.NewCol("A", "jc1"), expr.NewCol("B", "jc1")),
		expr.Eq(expr.NewCol("B", "jc2"), expr.NewCol("C", "jc2")),
		expr.NewCol("A", "b"),
		expr.NewCol("B", "b"),
	)
	return &optimizer.Query{
		Catalog: db.Catalog,
		Tables: []optimizer.TableRef{
			{Alias: "A", Name: "A"}, {Alias: "B", Name: "B"}, {Alias: "C", Name: "C"},
		},
		Where: where,
		Spec:  db.Spec,
		K:     db.Config.K,
	}
}
