package main

import (
	"fmt"
	"math/rand"
)

// opKind is what one operation of a stream asks the program to do. Each
// HTTP request (and each embedded call) is one op.
type opKind uint8

const (
	opStateless   opKind = iota // POST /query {sql, params}
	opPrepared                  // POST /query {stmt_id, params}; embedded Stmt.Query
	opCursorOpen                // POST /query {cursor: true, fetch}
	opCursorNext                // POST /cursor/next
	opCursorClose               // POST /cursor/close
	opInsert                    // POST /exec single-row INSERT
	opCompile                   // embedded Prepare + first Query of a never-seen template
	numOpKinds
)

var opKindNames = [numOpKinds]string{"stateless", "prepared", "cursor_open", "cursor_next", "cursor_close", "insert", "compile"}

// isRead reports whether the kind is a one-shot top-k read, the class
// read_p50_ms and read_tail_ms are taken over.
func (k opKind) isRead() bool { return k == opStateless || k == opPrepared }

// op is one generated operation. Streams are slices of ops made from the
// seed before the timed window opens; the program only sees the requests
// rendered from them.
type op struct {
	kind opKind
	tmpl uint8   // index into the workload's templates
	k    int     // LIMIT binding (page size for cursor ops)
	p1   float64 // first WHERE binding
	p2   float64 // second WHERE binding (two-conjunct template) or literal of a compile op
	seq  int     // per-stream serial of inserts and compile ops (names the row / template)
}

// webshopTemplate is one parameterized top-k statement over the webshop
// product table. The ranking expression doubles as the oracle's key: the
// full ranking is fetched once per distinct order.
type webshopTemplate struct {
	name   string
	sql    string
	order  string
	params int // WHERE bindings before the LIMIT binding
}

const (
	orderThree = `0.5*rating(stars) + 0.3*popular(sales) + 0.2*bargain(price)`
	orderTwo   = `0.6*rating(stars) + 0.4*bargain(price)`
	orderOne   = `popular(sales)`
)

// webshopTemplates are the three read templates of serve_topk,
// serve_mixed and router_topk. They differ in ranking-predicate count
// (three, two, one rank indexes to merge) and in Boolean conjuncts, and
// all fit the 256-entry plan cache with room to spare.
var webshopTemplates = []webshopTemplate{
	{"three_pred", `SELECT name, price, stars, sales FROM product WHERE in_stock AND price < ? ORDER BY ` + orderThree + ` LIMIT ?`, orderThree, 1},
	{"two_conjunct", `SELECT name, price, stars, sales FROM product WHERE price < ? AND sales > ? ORDER BY ` + orderTwo + ` LIMIT ?`, orderTwo, 2},
	{"one_pred", `SELECT name, price, stars, sales FROM product WHERE in_stock AND price < ? ORDER BY ` + orderOne + ` LIMIT ?`, orderOne, 1},
}

const insertSQL = `INSERT INTO product VALUES (?,?,?,?,?)`

// cursorPage is the page size of cursor traffic: open fetches one page,
// two /cursor/next calls fetch two more.
const cursorPage = 10

// priceSteps is the number of distinct `price < ?` bindings router_topk
// draws from: far more than the router's 512-entry result cache holds.
const priceSteps = 100000

// streamSpec describes one workload's block: every block of a stream
// holds exactly this mix, in an order shuffled by the seed, so the mix
// has no sampling variance between seeds and only the order and the
// bindings change.
type streamSpec struct {
	stateless   int  // one-shot reads by SQL text per block
	prepared    int  // one-shot reads by statement id per block
	sessions    int  // cursor sessions per block, four ops each
	insertLast  bool // the block's last op is an INSERT
	priceStepsN int  // 0: continuous bindings; n: bindings from n distinct values
}

var (
	// serve_topk: 60 % stateless, 20 % prepared, 20 % cursor ops.
	specServeTopk = streamSpec{stateless: 12, prepared: 4, sessions: 1}
	// serve_mixed: every 20th op is an insert, the rest stateless reads.
	specServeMixed = streamSpec{stateless: 19, insertLast: true}
	// router_topk: 80 % stateless, 20 % cursor ops, bindings from a
	// working set far larger than the result cache.
	specRouterTopk = streamSpec{stateless: 16, sessions: 1, priceStepsN: priceSteps}
)

// readSlot returns template and k of the i-th read of a block. Each
// template gets k=10 three times for every k=50, so the median read
// falls well inside the k=10 class and the tail inside k=50 rather than
// on the boundary between them.
func readSlot(i int) (tmpl uint8, k int) {
	tmpl = uint8(i % len(webshopTemplates))
	k = 10
	if (i/len(webshopTemplates))%4 == 3 {
		k = 50
	}
	return tmpl, k
}

// streamRand seeds one client's generator from the run seed, the
// workload and the client index, so clients draw unrelated streams and a
// workload's stream does not depend on which other workloads ran.
func streamRand(seed int64, workload string, client int) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(client+1)*0xBF58476D1CE4E5B9
	for _, c := range []byte(workload) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// webshopStream generates n ops (rounded up to whole blocks) for one
// client of an HTTP workload.
func webshopStream(spec streamSpec, seed int64, workload string, client, n int) []op {
	r := streamRand(seed, workload, client)
	var out []op
	seq := 0
	bindPrice := func() float64 {
		if spec.priceStepsN > 0 {
			return 50 + 450*float64(r.Intn(spec.priceStepsN))/float64(spec.priceStepsN)
		}
		return 50 + 450*r.Float64()
	}
	for len(out) < n {
		// A unit is one read or one whole cursor session; sessions stay
		// contiguous because a client walks its cursor before moving on.
		type unit struct {
			kind opKind
			slot int
		}
		var units []unit
		for i := 0; i < spec.stateless; i++ {
			units = append(units, unit{opStateless, i})
		}
		for i := 0; i < spec.prepared; i++ {
			units = append(units, unit{opPrepared, i})
		}
		for i := 0; i < spec.sessions; i++ {
			units = append(units, unit{opCursorOpen, i})
		}
		r.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
		for _, u := range units {
			if u.kind == opCursorOpen {
				o := op{kind: opCursorOpen, tmpl: 0, k: cursorPage, p1: bindPrice()}
				out = append(out, o)
				o.kind = opCursorNext
				out = append(out, o, o)
				o.kind = opCursorClose
				out = append(out, o)
				continue
			}
			tmpl, k := readSlot(u.slot)
			o := op{kind: u.kind, tmpl: tmpl, k: k, p1: bindPrice()}
			if webshopTemplates[tmpl].params == 2 {
				o.p2 = float64(r.Intn(50000))
			}
			out = append(out, o)
		}
		if spec.insertLast {
			out = append(out, op{kind: opInsert, seq: seq, p1: 5 + 495*r.Float64(), p2: 1 + 4*r.Float64(), k: r.Intn(100000)})
			seq++
		}
	}
	return out
}

// params renders an op's positional bindings for the wire.
func (o op) params(workload string, client int) []interface{} {
	switch o.kind {
	case opInsert:
		// name, price, stars, sales, in_stock
		return []interface{}{fmt.Sprintf("BENCH-%s-%d-%d", workload, client, o.seq), o.p1, o.p2, o.k, true}
	default:
		if webshopTemplates[o.tmpl].params == 2 {
			return []interface{}{o.p1, int(o.p2), o.k}
		}
		return []interface{}{o.p1, o.k}
	}
}

// joinKs are the result sizes embed_join's reads draw from, three of
// each per block.
var joinKs = []int{1, 10, 100}

// joinBlock is embed_join's block: nine prepared reads and, as every
// tenth op, one compile op.
const joinBlock = 10

// joinStream generates embed_join's ops: the paper's query Q with
// `A.p2 < ?` bound to p1 and k from joinKs; compile ops carry a fresh
// literal for the extra `C.p1 < lit` conjunct in p2, which changes the
// normalized text and so misses the plan cache.
func joinStream(seed int64, n int) []op {
	r := streamRand(seed, "embed_join", 0)
	var out []op
	seq := 0
	for len(out) < n {
		reads := make([]op, 0, joinBlock-1)
		for i := 0; i < joinBlock-1; i++ {
			reads = append(reads, op{kind: opPrepared, k: joinKs[i%len(joinKs)], p1: 0.5 + 0.5*r.Float64()})
		}
		r.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
		out = append(out, reads...)
		// The literal stays in [0.9, 1): it keeps nine tenths of C, so a
		// compile op's execution costs about what a read costs.
		lit := 0.9 + float64(r.Intn(1000000)*1000+seq%1000)/1e10
		out = append(out, op{kind: opCompile, k: 10, p1: 0.5 + 0.5*r.Float64(), p2: lit, seq: seq})
		seq++
	}
	return out
}
