package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// product is one webshop row as the oracle sees it: the attributes the
// templates filter on, plus its score under one ranking expression.
type product struct {
	price   float64
	sales   float64
	inStock bool
	score   float64
}

// webshopOracle holds, per ranking expression, the table's full ranking
// as the program returns it through the ad-hoc route: a literal-only,
// unlimited ORDER BY, which sorts everything and shares neither plan nor
// operators with the cached rank-aware top-k plans it is used to check.
type webshopOracle struct {
	byOrder map[string][]product
}

// fetchWebshopOracle reads the full ranking once per distinct order.
func fetchWebshopOracle(ctx context.Context, c *client) (*webshopOracle, error) {
	o := &webshopOracle{byOrder: map[string][]product{}}
	for _, t := range webshopTemplates {
		if _, ok := o.byOrder[t.order]; ok {
			continue
		}
		resp, err := c.post(ctx, "/query", &wireRequest{
			SQL: `SELECT price, sales, in_stock FROM product ORDER BY ` + t.order,
		}, "")
		if err != nil {
			return nil, fmt.Errorf("oracle ranking for %s: %w", t.name, err)
		}
		if len(resp.Scores) != len(resp.Rows) {
			return nil, fmt.Errorf("oracle ranking for %s: %d rows, %d scores", t.name, len(resp.Rows), len(resp.Scores))
		}
		ps := make([]product, len(resp.Rows))
		for i, raw := range resp.Rows {
			var row []interface{}
			if err := json.Unmarshal(raw, &row); err != nil || len(row) != 3 {
				return nil, fmt.Errorf("oracle ranking for %s: row %d unreadable", t.name, i)
			}
			price, ok1 := row[0].(float64)
			sales, ok2 := row[1].(float64)
			stock, ok3 := row[2].(bool)
			if !ok1 || !ok2 || !ok3 {
				return nil, fmt.Errorf("oracle ranking for %s: row %d has unexpected types", t.name, i)
			}
			ps[i] = product{price, sales, stock, resp.Scores[i]}
		}
		// The harness sorts for itself rather than trusting the route's order.
		sort.SliceStable(ps, func(i, j int) bool { return ps[i].score > ps[j].score })
		o.byOrder[t.order] = ps
	}
	return o, nil
}

// rows is the table's row count as the oracle saw it.
func (o *webshopOracle) rows() int {
	for _, ps := range o.byOrder {
		return len(ps)
	}
	return 0
}

// matches reports whether p passes the template's WHERE clause under the
// op's bindings.
func (o op) matches(p product) bool {
	if webshopTemplates[o.tmpl].params == 2 {
		return p.price < o.p1 && p.sales > float64(int(o.p2))
	}
	return p.inStock && p.price < o.p1
}

// topScores returns the scores of the op's top n rows.
func (o *webshopOracle) topScores(q op, n int) []float64 {
	var out []float64
	for _, p := range o.byOrder[webshopTemplates[q.tmpl].order] {
		if len(out) == n {
			break
		}
		if q.matches(p) {
			out = append(out, p.score)
		}
	}
	return out
}

// sameScores compares a returned score sequence with the oracle's. Rows
// that tie on score are interchangeable, so the sequences — not the rows
// — must agree, position by position.
func sameScores(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d rows returned, %d expected", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > scoreEps {
			return fmt.Errorf("oracle: score %.12g at rank %d, expected %.12g", got[i], i+1, want[i])
		}
	}
	return nil
}

// checkRowsMatch decodes a page's rows (name, price, stars, sales) and
// verifies each passes the bindings' filters that are visible in the
// projection.
func checkRowsMatch(q op, r *wireResponse) error {
	for i, raw := range r.Rows {
		var row []interface{}
		if err := json.Unmarshal(raw, &row); err != nil || len(row) != 4 {
			return fmt.Errorf("oracle: row %d unreadable", i)
		}
		price, ok1 := row[1].(float64)
		sales, ok2 := row[3].(float64)
		if !ok1 || !ok2 {
			return fmt.Errorf("oracle: row %d has unexpected types", i)
		}
		if price >= q.p1 {
			return fmt.Errorf("oracle: row %d has price %g, bound %g", i, price, q.p1)
		}
		if webshopTemplates[q.tmpl].params == 2 && sales <= float64(int(q.p2)) {
			return fmt.Errorf("oracle: row %d has sales %g, bound %d", i, sales, int(q.p2))
		}
	}
	return nil
}

// oracleSamples is the number of stream ops each check phase replays.
const oracleSamples = 50

// checkWebshop replays the first oracleSamples reads and cursor sessions
// of the client's stream position against the oracle, single-threaded
// and untimed, without consuming the stream. It returns ops attempted
// and failed.
func checkWebshop(ctx context.Context, c *client, o *webshopOracle) (attempted, failed int, firstErr error) {
	note := func(err error) {
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	checked := 0
	var pages []float64
	for i := 0; checked < oracleSamples && i < len(c.stream); i++ {
		q := c.stream[(c.pos+i)%len(c.stream)]
		if q.kind == opInsert {
			continue
		}
		if q.kind != opCursorOpen && c.cursor == "" && !q.kind.isRead() {
			continue // tail of a session whose head lies before the sample
		}
		attempted++
		resp, err := c.do(ctx, q, "")
		if err != nil {
			note(err)
			continue
		}
		switch q.kind {
		case opStateless, opPrepared:
			checked++
			note(sameScores(resp.Scores, o.topScores(q, q.k)))
			note(checkRowsMatch(q, resp))
		case opCursorOpen:
			pages = append(pages[:0], resp.Scores...)
			note(checkRowsMatch(q, resp))
		case opCursorNext:
			pages = append(pages, resp.Scores...)
			note(checkRowsMatch(q, resp))
		case opCursorClose:
			checked++
			note(sameScores(pages, o.topScores(q, 3*cursorPage)))
		}
	}
	c.closeCursor(ctx)
	return attempted, failed, firstErr
}

// joinRow is one tuple of the brute-force join A ⋈ B ⋈ C that passed
// A.b and B.b: its score under f1+…+f5 and the two attributes the
// parameterized conjuncts test.
type joinRow struct {
	score float64
	ap2   float64
	cp1   float64
}

// joinOracle is the full ranked join, computed from the harness's own
// generated rows with a hash join and a sort — no engine code involved.
type joinOracle struct {
	ranked []joinRow
}

func newJoinOracle(d *joinData) *joinOracle {
	byJC1 := map[int][]int{}
	for i, a := range d.a {
		if a.b {
			byJC1[a.jc1] = append(byJC1[a.jc1], i)
		}
	}
	byJC2 := map[int][]int{}
	for i, c := range d.c {
		byJC2[c.jc2] = append(byJC2[c.jc2], i)
	}
	o := &joinOracle{}
	for _, b := range d.b {
		if !b.b {
			continue
		}
		for _, ai := range byJC1[b.jc1] {
			a := d.a[ai]
			for _, ci := range byJC2[b.jc2] {
				c := d.c[ci]
				o.ranked = append(o.ranked, joinRow{
					score: a.p1 + a.p2 + b.p1 + b.p2 + c.p1,
					ap2:   a.p2,
					cp1:   c.p1,
				})
			}
		}
	}
	sort.Slice(o.ranked, func(i, j int) bool { return o.ranked[i].score > o.ranked[j].score })
	return o
}

// topScores returns the scores of the top k join results with
// A.p2 < ap2Bound and, when cp1Bound > 0, C.p1 < cp1Bound.
func (o *joinOracle) topScores(ap2Bound, cp1Bound float64, k int) []float64 {
	var out []float64
	for _, r := range o.ranked {
		if len(out) == k {
			break
		}
		if r.ap2 < ap2Bound && (cp1Bound <= 0 || r.cp1 < cp1Bound) {
			out = append(out, r.score)
		}
	}
	return out
}
