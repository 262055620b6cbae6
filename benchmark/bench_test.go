package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90},
		{99, 80}, {50, 80}, {49, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && float64(c.n)*(100-p)/100 < minBeyond {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than %d samples beyond", c.n, p, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {80, 80}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestBestOfRoundsIgnoresDisturbedRounds(t *testing.T) {
	quiet := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 2}
	noisy := []float64{1, 1, 1, 1, 40, 40, 40, 40, 40, 40}
	p90 := func(s []float64) float64 { return percentile(s, 90) }
	// Three of five rounds disturbed: the median of rounds follows them,
	// the best round does not.
	rounds := [][]float64{noisy, quiet, noisy, noisy, quiet}
	if got := bestOfRounds(rounds, p90); got != 1 {
		t.Errorf("best per-round p90 = %v, want 1", got)
	}
	var per []float64
	for _, r := range rounds {
		per = append(per, p90(sortedCopy(r)))
	}
	if got := median(per); got != 40 {
		t.Errorf("median of per-round p90 = %v, want 40 (the contrast this test rests on)", got)
	}
	if got := bestOfRounds([][]float64{{3}, nil, {5}}, p90); got != 3 {
		t.Errorf("empty rounds must be skipped: got %v, want 3", got)
	}
	if !math.IsNaN(bestOfRounds([][]float64{nil, nil}, p90)) {
		t.Error("no samples at all should give NaN")
	}
}

func TestWindowMetricsTakeTheBestRound(t *testing.T) {
	plan := windowPlan{rounds: 3, roundLen: 2 * time.Second}
	var win windowResult
	add := func(round int, kind opKind, ms float64, n int) {
		for i := 0; i < n; i++ {
			// Back to back from the round's start: all inside the round.
			win.samples = append(win.samples, sample{kind, round, ms, float64(round)*2000 + 1000 + float64(i+1)*ms/100})
		}
	}
	// Round 1 is the quiet one: most ops, lowest latencies, least CPU.
	add(0, opStateless, 2, 100)
	add(0, opCursorOpen, 5, 10)
	add(1, opStateless, 1, 200)
	add(1, opCursorOpen, 3, 20)
	add(2, opStateless, 4, 50)
	add(2, opCursorOpen, 9, 5)
	win.cpuMS = []float64{110 * 3, 220 * 1.5, 55 * 6}
	m, diag := windowMetrics(win, plan, "serve_topk")
	want := map[string]float64{
		"throughput_ops_s": 110, "read_p50_ms": 1, "read_tail_ms": 1, "heavy_p50_ms": 3, "cpu_ms_per_op": 1.5,
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("windowMetrics = %v, want %v", m, want)
	}
	if diag["round2.ops_s"] != 27.5 || diag["ops.cursor_open"] != 35 {
		t.Errorf("diagnostics off: %v", diag)
	}

	// An op spanning a boundary is shared between the rounds by time; the
	// op still running when the window closes counts for its part inside.
	win = windowResult{cpuMS: []float64{1, 1, 1}, samples: []sample{
		{opPrepared, 0, 1000, 1000},
		{opPrepared, 1, 2000, 3000}, // half in round 0, half in round 1
		{opPrepared, 2, 3000, 6000}, // a third in round 1, two thirds in round 2
		{opPrepared, 3, 1000, 6500}, // in flight when the window closed at 6000: half inside
	}}
	_, diag = windowMetrics(win, plan, "embed_join")
	for i, want := range []float64{1.5, 0.5 + 1.0/3, 2.0/3 + 0.5} {
		if got := diag[fmt.Sprintf("round%d.ops_s", i)] * 2; math.Abs(got-want) > 1e-9 {
			t.Errorf("round %d holds %v ops, want %v", i, got, want)
		}
	}
}

// Reference values from Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 1, 5, 3, 8}, 2, 9},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	a := webshopStream(specServeTopk, 7, "serve_topk", 0, 1000)
	time.Sleep(3 * time.Millisecond) // generation must not read the clock
	b := webshopStream(specServeTopk, 7, "serve_topk", 0, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, workload and client gave different streams")
	}
	if reflect.DeepEqual(a, webshopStream(specServeTopk, 8, "serve_topk", 0, 1000)) {
		t.Error("another seed gave the same stream")
	}
	if reflect.DeepEqual(a, webshopStream(specServeTopk, 7, "serve_topk", 1, 1000)) {
		t.Error("another client gave the same stream")
	}
	if !reflect.DeepEqual(joinStream(3, 100), joinStream(3, 100)) {
		t.Error("joinStream is not deterministic")
	}

	// How fast a client consumes its stream does not change what it sends.
	fast := newClient(0, "serve_topk", "", a)
	slow := newClient(0, "serve_topk", "", b)
	for i := 0; i < 50; i++ {
		x := fast.next()
		if i%10 == 0 {
			time.Sleep(time.Millisecond)
		}
		if y := slow.next(); x != y {
			t.Fatalf("op %d differs between two consumers of one stream", i)
		}
	}
}

func TestStreamBlocksHoldTheExactMix(t *testing.T) {
	count := func(ops []op) map[opKind]int {
		m := map[opKind]int{}
		for _, o := range ops {
			m[o.kind]++
		}
		return m
	}
	s := webshopStream(specServeTopk, 1, "serve_topk", 0, 2000)
	for b := 0; b+20 <= len(s); b += 20 {
		m := count(s[b : b+20])
		if m[opStateless] != 12 || m[opPrepared] != 4 || m[opCursorOpen] != 1 || m[opCursorNext] != 2 || m[opCursorClose] != 1 {
			t.Fatalf("serve_topk block at %d has mix %v", b, m)
		}
	}
	for i, o := range s {
		if o.kind == opCursorOpen {
			if s[i+1].kind != opCursorNext || s[i+2].kind != opCursorNext || s[i+3].kind != opCursorClose {
				t.Fatalf("cursor session at %d is not open, next, next, close", i)
			}
		}
	}
	s = webshopStream(specServeMixed, 1, "serve_mixed", 0, 2000)
	for i, o := range s {
		if (o.kind == opInsert) != (i%20 == 19) {
			t.Fatalf("serve_mixed op %d is %s: inserts belong at every 20th op and nowhere else", i, opKindNames[o.kind])
		}
	}
	seen := map[int]bool{}
	for _, o := range s {
		if o.kind == opInsert {
			if seen[o.seq] {
				t.Fatalf("insert serial %d repeats", o.seq)
			}
			seen[o.seq] = true
		}
	}
	s = webshopStream(specRouterTopk, 1, "router_topk", 0, 20000)
	distinct := map[float64]bool{}
	for _, o := range s {
		distinct[o.p1] = true
	}
	if len(distinct) < 10*512 {
		t.Errorf("router_topk draws %d distinct bindings in 20000 ops; the working set must dwarf the 512-entry result cache", len(distinct))
	}
	j := joinStream(1, 200)
	lits := map[float64]bool{}
	for i, o := range j {
		if (o.kind == opCompile) != (i%joinBlock == joinBlock-1) {
			t.Fatalf("embed_join op %d is %s", i, opKindNames[o.kind])
		}
		if o.kind == opCompile {
			if lits[o.p2] || o.p2 < 0.9 || o.p2 >= 1 {
				t.Fatalf("compile literal %v repeats or leaves [0.9, 1)", o.p2)
			}
			lits[o.p2] = true
		}
	}
	for b := 0; b+joinBlock <= len(j); b += joinBlock {
		ks := map[int]int{}
		for _, o := range j[b : b+joinBlock-1] {
			ks[o.k]++
		}
		if ks[1] != 3 || ks[10] != 3 || ks[100] != 3 {
			t.Fatalf("embed_join block at %d draws k as %v", b, ks)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, StartNS: 100, EndNS: 200}
	nested := func(a, b int64) span { return span{Parent: 1, StartNS: a, EndNS: b} }
	replayed := func(d int64) span { return span{Parent: 1, StartNS: 1000, EndNS: 1000 + d, Replayed: true} }
	for _, c := range []struct {
		name     string
		children []span
		want     float64
	}{
		{"no children", nil, 100},
		{"disjoint nested", []span{nested(110, 120), nested(150, 170)}, 70},
		{"overlapping nested count once", []span{nested(110, 150), nested(130, 170)}, 40},
		{"contained nested", []span{nested(110, 190), nested(120, 130)}, 20},
		{"nested clipped to the parent", []span{nested(50, 120), nested(190, 300)}, 70},
		{"replayed children add up", []span{replayed(30), replayed(25)}, 45},
		{"nested and replayed", []span{nested(110, 150), nested(140, 160), replayed(20)}, 30},
		{"never negative", []span{replayed(150)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}

	// A tree: the self times of a root and everything under it add up to
	// the root's duration.
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 1000},
		{ID: 2, Parent: 1, StartNS: 100, EndNS: 900},
		{ID: 3, Parent: 2, StartNS: 200, EndNS: 600},
		{ID: 4, Parent: 2, StartNS: 500, EndNS: 800},
		{ID: 5, Parent: 3, StartNS: 5000, EndNS: 5100, Replayed: true},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 200, 2: 200, 3: 300, 4: 300, 5: 100}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	// Spans 3 and 4 overlap by 100, which the sum counts twice.
	var sum float64
	for _, v := range self {
		sum += v
	}
	if sum != 1100 {
		t.Errorf("self times sum to %v, want 1100", sum)
	}
}

func TestCheckRanked(t *testing.T) {
	page := func(scores []float64, first int) *wireResponse {
		r := &wireResponse{Scores: scores}
		for i := range scores {
			r.Rows = append(r.Rows, json.RawMessage(`[]`))
			r.Ranks = append(r.Ranks, first+i)
		}
		return r
	}
	if err := checkRanked(page([]float64{0.9, 0.9, 0.5}, 1), 3, 1, 0); err != nil {
		t.Errorf("a valid page failed: %v", err)
	}
	if err := checkRanked(page([]float64{0.4, 0.3}, 11), 10, 11, 0.4); err != nil {
		t.Errorf("a valid second page failed: %v", err)
	}
	if checkRanked(page([]float64{0.5, 0.9}, 1), 3, 1, 0) == nil {
		t.Error("rising scores passed")
	}
	if checkRanked(page([]float64{0.9, 0.5, 0.4}, 1), 2, 1, 0) == nil {
		t.Error("more rows than the limit passed")
	}
	if checkRanked(page([]float64{0.6}, 11), 10, 11, 0.5) == nil {
		t.Error("a page scoring above the page before it passed")
	}
	if checkRanked(page([]float64{0.9, 0.5}, 2), 3, 1, 0) == nil {
		t.Error("ranks starting at 2 passed")
	}
	bad := page([]float64{0.9, 0.5}, 1)
	bad.Scores = bad.Scores[:1]
	if checkRanked(bad, 3, 1, 0) == nil {
		t.Error("a page with fewer scores than rows passed")
	}
}

// The webshop oracle on a 50-row table: filter and top-k against an
// independent computation, ties included.
func TestWebshopOracleOn50Rows(t *testing.T) {
	var ps []product
	for i := 0; i < 50; i++ {
		ps = append(ps, product{
			price:   float64(10 + (i*37)%200),
			sales:   float64((i * 7919) % 1000),
			inStock: i%5 != 0,
			score:   float64((i*13)%10) / 10, // heavy ties
		})
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].score > ps[j].score })
	o := &webshopOracle{byOrder: map[string][]product{orderThree: ps, orderTwo: ps, orderOne: ps}}

	q := op{kind: opStateless, tmpl: 0, k: 10, p1: 120}
	var want []float64
	for _, p := range ps {
		if p.inStock && p.price < 120 {
			want = append(want, p.score)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	if len(want) < 10 {
		t.Fatalf("test table too selective: %d matches", len(want))
	}
	if got := o.topScores(q, 10); !reflect.DeepEqual(got, want[:10]) {
		t.Errorf("topScores = %v, want %v", got, want[:10])
	}
	if err := sameScores(o.topScores(q, 10), want[:10]); err != nil {
		t.Error(err)
	}
	// A binding that leaves fewer than k rows returns them all.
	q.p1 = 12
	if got := o.topScores(q, 10); len(got) >= 10 {
		t.Errorf("price < 12 left %d rows", len(got))
	}
	// The two-conjunct template ignores in_stock and tests sales.
	q = op{kind: opStateless, tmpl: 1, k: 50, p1: 1000, p2: 500}
	n := 0
	for _, p := range ps {
		if p.sales > 500 {
			n++
		}
	}
	if got := len(o.topScores(q, 50)); got != n {
		t.Errorf("two-conjunct template matched %d rows, want %d", got, n)
	}
	if sameScores([]float64{0.5, 0.4}, []float64{0.5}) == nil || sameScores([]float64{0.5}, []float64{0.4}) == nil {
		t.Error("sameScores accepted differing sequences")
	}
}

// The join oracle on 50-row tables, against the engine itself through
// the same path the workload uses.
func TestJoinOracleOn50Rows(t *testing.T) {
	data := genJoinData(5, 50, 0.2)
	oracle := newJoinOracle(data)
	if len(oracle.ranked) == 0 {
		t.Fatal("the 50-row join is empty")
	}
	// Independent nested-loop count of the join.
	n := 0
	for _, a := range data.a {
		for _, b := range data.b {
			for _, c := range data.c {
				if a.b && b.b && a.jc1 == b.jc1 && b.jc2 == c.jc2 {
					n++
				}
			}
		}
	}
	if n != len(oracle.ranked) {
		t.Fatalf("oracle joined %d tuples, nested loops %d", len(oracle.ranked), n)
	}
	db, err := openJoinDB(data)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(joinSQL(""))
	if err != nil {
		t.Fatal(err)
	}
	j := &joinRunner{db: db, stmt: stmt}
	for _, o := range []op{
		{kind: opPrepared, k: 1, p1: 0.9},
		{kind: opPrepared, k: 10, p1: 0.6},
		{kind: opPrepared, k: 100, p1: 1},
		{kind: opCompile, k: 10, p1: 0.95, p2: 0.9123456789},
	} {
		scores, err := j.do(o)
		if err != nil {
			t.Fatalf("%s k=%d: %v", opKindNames[o.kind], o.k, err)
		}
		if err := (joinAnswer{o, scores}).verify(oracle); err != nil {
			t.Errorf("%s k=%d: %v", opKindNames[o.kind], o.k, err)
		}
	}
	// A wrong answer must not pass.
	if (joinAnswer{op{kind: opPrepared, k: 3, p1: 1}, []float64{9, 8, 7}}).verify(oracle) == nil {
		t.Error("the oracle accepted invented scores")
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := map[string]float64{}
	for _, d := range endToEnd {
		bound[d.Name] = d.Bound
	}
	// tight is a row whose quartiles sit 1 % either side of its median.
	tight := func(metric string, median float64) summaryRow {
		return summaryRow{Workload: "w", Metric: metric, Unit: "x", N: 5, Median: median, Q1: 0.99 * median, Q3: 1.01 * median}
	}
	wide := tight("cpu_ms_per_op", 1)
	wide.Q1, wide.Q3 = 1-bound["cpu_ms_per_op"], 1+bound["cpu_ms_per_op"]
	a := &report{Summary: []summaryRow{
		tight("read_p50_ms", 1), tight("throughput_ops_s", 1000), wide, tight("peak_rss_mb", 50),
	}}
	b := &report{Summary: []summaryRow{
		tight("read_p50_ms", 1+bound["read_p50_ms"]+0.05),   // slower by more than the bound: regressed
		tight("throughput_ops_s", 1100),                     // faster: ok
		tight("cpu_ms_per_op", 2),                           // A's spread is twice the bound: unresolved
		tight("peak_rss_mb", 50*(1+bound["peak_rss_mb"]/2)), // worse, inside the bound: ok
	}}
	got := map[string]string{}
	for _, v := range compareReports(a, b) {
		got[v.Metric] = v.Verdict
	}
	want := map[string]string{"read_p50_ms": "regressed", "throughput_ops_s": "ok", "cpu_ms_per_op": "unresolved", "peak_rss_mb": "ok"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts %v, want %v", got, want)
	}
	// A throughput drop is a worsening even though the number went down.
	b.Summary[1] = tight("throughput_ops_s", 1000*(1-bound["throughput_ops_s"]-0.05))
	for _, v := range compareReports(a, b) {
		if v.Metric == "throughput_ops_s" && v.Verdict != "regressed" {
			t.Errorf("a throughput drop beyond the bound is %q", v.Verdict)
		}
	}
}

// BENCHMARK.json and the catalog in report.go must say the same thing.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, perLayer)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
}
