package main

// The traced run. It hosts the program's layers in this process and
// walks each op of a workload's stream down a ladder of calls — loopback
// round trip, HTTP handler, Prepare, Parse, Normalize, Stmt.Query,
// AppendJSON — timing each rung from outside, through public functions.
// Every number it reports is a duration or a self time of the recorded
// spans (trace.go).
//
// This is the only file of the benchmark that imports internal packages;
// benchmark/README.md lists every symbol used. The timed runs import
// none, so they keep working whatever a refactor does below the public
// API, the daemon's flags and the wire protocol.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"ranksql"
	"ranksql/internal/btree"
	"ranksql/internal/router"
	"ranksql/internal/schema"
	"ranksql/internal/server"
	"ranksql/internal/sql"
	"ranksql/internal/types"
)

// ladderOps caps how many ops of the stream the traced run walks; on
// embed_join the time cap ends it first.
const (
	ladderOps     = 2000
	ladderOpsJoin = 200
)

// Span names. A span's layer is its name up to the first dot, except
// where layerOf says otherwise.
const (
	spanRoundtrip   = "roundtrip"             // client send to client receive, over loopback
	spanHandler     = "server.handler"        // front handler, nested in the round trip (middleware)
	spanHandle      = "server.handle"         // the same request on a response recorder, no network
	spanPrepare     = "engine.prepare"        // DB.Prepare
	spanParse       = "sql.parse"             // sql.Parse
	spanNormalize   = "sql.normalize"         // sql.Normalize
	spanQuery       = "engine.query"          // Stmt.Query on a cached plan
	spanEncode      = "jsonenc.encode"        // Value.AppendJSON over the result
	spanCursorOpen  = "engine.cursor_open"    // Stmt.Cursor + first Fetch
	spanCursorNext  = "engine.cursor_fetch"   // Cursor.Fetch
	spanInsert      = "engine.insert"         // Stmt.Exec of a single-row INSERT
	spanProfiled    = "engine.query.profiled" // Stmt.Query with operator profiling on
	spanTree        = "exec.tree"             // root operator's wall time, nested in spanProfiled
	spanCompileOp   = "compile_op"            // Prepare + first Query of a never-seen template
	spanFirstQuery  = "optimizer.first_query" // first Query: compile + execute; self = compile
	spanSecond      = "engine.second_query"   // second Query of the same statement: execute only
	spanExplain     = "engine.explain"        // DB.Explain
	spanRouter      = "router.handle"         // router's handler, nested in the round trip
	spanShard       = "router.shard"          // one shard request, nested in spanRouter (suffix: shard index)
	spanMerge       = "router.merge"          // router.MergeTopK over the recorded shard answers
	spanReadInWrite = "engine.read_in_write"  // Stmt.Query started while an INSERT holds the write lock
)

// ladder collects the spans of one traced run.
type ladder struct {
	rec   *recorder
	extra map[string]float64 // metrics that are not span statistics (allocation counts, probes)
	ops   int
	// untraced are the read round trips of the same ops with tracing off
	// (no trace header, middleware passing through), in milliseconds.
	untraced []float64

	mu      sync.Mutex
	curOp   int         // op being walked, for the middleware
	curRoot int         // span the front handler hangs under
	byTrace map[int]int // op -> front handler span, for shard spans and the rungs below
}

func newLadder() *ladder {
	return &ladder{rec: newRecorder(), extra: map[string]float64{}, byTrace: map[int]int{}}
}

// traceID is the X-Ranksql-Trace value the ladder sends with op n; the
// router forwards it to its shards, which is how a shard span finds the
// router span that caused it.
func traceID(n int) string { return fmt.Sprintf("bench-%d", n) }

// front wraps the handler clients talk to: a request carrying the
// current op's trace ID becomes a span nested under its round trip.
func (l *ladder) front(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		op, root := l.curOp, l.curRoot
		l.mu.Unlock()
		if op == 0 || r.Header.Get(traceHeader) != traceID(op) {
			next.ServeHTTP(w, r) // seeding, warm-up and untraced passes
			return
		}
		id := l.rec.reserve(op, root, name)
		l.mu.Lock()
		l.byTrace[op] = id
		l.mu.Unlock()
		t0 := time.Now()
		next.ServeHTTP(w, r)
		l.rec.finish(id, t0, time.Now())
	})
}

// shard wraps one in-process shard's handler: a request carrying an op's
// trace ID becomes a span under that op's router span.
func (l *ladder) shard(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var op int
		if _, err := fmt.Sscanf(r.Header.Get(traceHeader), "bench-%d", &op); err != nil {
			next.ServeHTTP(w, r)
			return
		}
		l.mu.Lock()
		parent, ok := l.byTrace[op]
		l.mu.Unlock()
		t0 := time.Now()
		next.ServeHTTP(w, r)
		if ok {
			l.rec.add(op, parent, name, t0, time.Now(), false)
		}
	})
}

// roundtrip sends op n through the client inside a root span, with the
// front handler's span nested, and returns the handler span's id.
func (l *ladder) roundtrip(ctx context.Context, cl *client, n int, o op) (handler int, err error) {
	root := l.rec.reserve(n, 0, spanRoundtrip)
	l.rec.setKind(root, opKindNames[o.kind])
	l.mu.Lock()
	l.curOp, l.curRoot = n, root
	l.mu.Unlock()
	t0 := time.Now()
	_, err = cl.do(ctx, o, traceID(n))
	l.rec.finish(root, t0, time.Now())
	l.mu.Lock()
	l.curOp, l.curRoot = 0, 0
	handler = l.byTrace[n]
	l.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("traced op %d (%s): %w", n, opKindNames[o.kind], err)
	}
	if handler == 0 {
		return 0, fmt.Errorf("traced op %d: the front handler saw no request with its trace ID", n)
	}
	return handler, nil
}

// untracedPass plays the ops once with tracing off — same host, same
// single client, no trace header — and keeps the reads' round trips, the
// baseline trace.overhead_share compares the traced top rung with.
func (l *ladder) untracedPass(ctx context.Context, cl *client, ops []op) error {
	for _, o := range ops {
		if (o.kind == opCursorNext || o.kind == opCursorClose) && cl.cursor == "" {
			continue
		}
		t0 := time.Now()
		if _, err := cl.do(ctx, o, ""); err != nil {
			return fmt.Errorf("untraced %s: %w", opKindNames[o.kind], err)
		}
		if o.kind.isRead() {
			l.untraced = append(l.untraced, float64(time.Since(t0))/1e6)
		}
	}
	cl.closeCursor(ctx)
	return nil
}

// serveLoopback serves h on a fresh loopback port until stop is called.
func serveLoopback(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a handler stuck past the deadline ends with the process
		<-done
	}, nil
}

// allocsPer runs f n times and returns heap allocations per run. Idle
// server goroutines allocate nothing, so the figure is f's.
func allocsPer(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// encodeRows renders a result the way the wire does, value by value
// through the public AppendJSON, into a reused buffer.
func encodeRows(buf []byte, rows *ranksql.Rows) []byte {
	buf = append(buf[:0], '[')
	for i := 0; i < rows.Len(); i++ {
		buf = append(buf, '[')
		for j := 0; j < rows.RowWidth(i); j++ {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = rows.ValueAt(i, j).AppendJSON(buf)
		}
		buf = append(buf, ']', ',')
	}
	return append(buf, ']')
}

// recorderPost runs one request through a handler on a response
// recorder: the handler's work without the network.
func recorderPost(h http.Handler, path string, req *wireRequest) (*httptest.ResponseRecorder, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, hreq)
	if w.Code != http.StatusOK {
		return w, fmt.Errorf("%s on recorder: status %d: %s", path, w.Code, strings.TrimSpace(w.Body.String()))
	}
	return w, nil
}

// traceServe walks a single-node workload (serve_topk, serve_mixed).
func traceServe(ctx context.Context, w httpWorkload, seed int64, budget time.Duration) (*ladder, error) {
	l := newLadder()
	db := ranksql.Open()
	if err := server.Seed(db, "webshop", webshopRows); err != nil {
		return nil, err
	}
	inner := server.New(db).Handler()
	base, stop, err := serveLoopback(l.front(spanHandler, inner))
	if err != nil {
		return nil, err
	}
	defer stop()

	stream := webshopStream(w.spec, seed, w.name, 0, ladderOps)[:ladderOps]
	cl := newClient(0, w.name, base, stream)
	if err := cl.prepare(ctx); err != nil {
		return nil, err
	}
	stmts := make([]*ranksql.Stmt, len(webshopTemplates))
	for i, t := range webshopTemplates {
		if stmts[i], err = db.Prepare(t.sql); err != nil {
			return nil, err
		}
	}
	insert, err := db.Prepare(insertSQL)
	if err != nil {
		return nil, err
	}
	// Every template at both k, so no rung pays a compile.
	for i := range stmts {
		for _, k := range []int{10, 50} {
			o := op{tmpl: uint8(i), k: k, p1: 300, p2: 100}
			if _, err := stmts[i].Query(o.params(w.name, 0)...); err != nil {
				return nil, err
			}
		}
	}

	var buf []byte
	var cur *ranksql.Cursor
	start := time.Now()
	for n, o := range stream {
		// Two thirds of the budget for the ladder; the untraced and the
		// profiled pass over the same ops share the rest.
		if time.Since(start) > budget*2/3 {
			break
		}
		n++ // op ids start at 1; 0 means "no op" to the middleware
		l.ops++

		// Rung 1: the loopback round trip, the handler's span nested in it.
		handler, err := l.roundtrip(ctx, cl, n, o)
		if err != nil {
			return nil, err
		}
		// Rung 2: the handler on a recorder, reads only — a write or a
		// cursor move replayed here would change what the op does.
		if o.kind.isRead() {
			path, req := cl.request(o)
			if _, _ = l.rec.timed(n, 0, spanHandle, false, func() { _, err = recorderPost(inner, path, req) }); err != nil {
				return nil, err
			}
		}
		// Rungs 3…: the calls the handler makes, each replayed on its own
		// as a child of the handler's span.
		args := o.params(w.name, 0)
		encode := func(rows *ranksql.Rows) {
			l.rec.timed(n, handler, spanEncode, true, func() { buf = encodeRows(buf, rows) })
		}
		switch o.kind {
		case opStateless, opPrepared:
			stmt := stmts[o.tmpl]
			if o.kind == opStateless {
				text := webshopTemplates[o.tmpl].sql
				var ast sql.Stmt
				pid, _ := l.rec.timed(n, handler, spanPrepare, true, func() { stmt, err = db.Prepare(text) })
				if err != nil {
					return nil, err
				}
				if l.rec.timed(n, pid, spanParse, true, func() { ast, err = sql.Parse(text) }); err != nil {
					return nil, err
				}
				l.rec.timed(n, pid, spanNormalize, true, func() { _ = sql.Normalize(ast) })
			}
			var rows *ranksql.Rows
			if l.rec.timed(n, handler, spanQuery, true, func() { rows, err = stmt.Query(args...) }); err != nil {
				return nil, err
			}
			encode(rows)
		case opCursorOpen:
			var rows *ranksql.Rows
			l.rec.timed(n, handler, spanCursorOpen, true, func() {
				if cur, err = stmts[o.tmpl].Cursor(args...); err == nil {
					rows, err = cur.Fetch(cursorPage)
				}
			})
			if err != nil {
				return nil, err
			}
			encode(rows)
		case opCursorNext:
			var rows *ranksql.Rows
			if l.rec.timed(n, handler, spanCursorNext, true, func() { rows, err = cur.Fetch(cursorPage) }); err != nil {
				return nil, err
			}
			encode(rows)
		case opCursorClose:
			_ = cur.Close() // closing an open cursor cannot fail
		case opInsert:
			// The direct insert is a second row under its own name. A read
			// started just after it shows what the write lock costs readers.
			row := o.params(w.name+"-direct", 0)
			var rerr error
			started := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				<-started
				time.Sleep(500 * time.Microsecond)
				probe := op{tmpl: 0, k: 10, p1: 300}
				l.rec.timed(n, 0, spanReadInWrite, false, func() { _, rerr = stmts[0].Query(probe.params(w.name, 0)...) })
			}()
			l.rec.timed(n, handler, spanInsert, true, func() {
				close(started)
				_, err = insert.Exec(row...)
			})
			<-done
			if err != nil {
				return nil, err
			}
			if rerr != nil {
				return nil, rerr
			}
		}
	}
	walked := stream[:l.ops]

	// Pass 2: the same ops with tracing off, for the tracing overhead.
	cl2 := newClient(1, w.name+"-untraced", base, nil)
	if err := cl2.prepare(ctx); err != nil {
		return nil, err
	}
	if err := l.untracedPass(ctx, cl2, walked); err != nil {
		return nil, err
	}

	// Pass 3: the reads with every execution profiled, which splits
	// Stmt.Query into the operator tree and the engine around it.
	db.SetProfileSampling(1)
	for n, o := range walked {
		if o.kind.isRead() {
			if err := l.profiled(n+1, stmts[o.tmpl], o.params(w.name, 0)); err != nil {
				return nil, err
			}
		}
	}

	if w.spec.insertLast {
		// The table holds the seed plus three rows per walked insert op.
		l.btreeProbe(webshopRows + 3*l.ops/20)
	}
	text := webshopTemplates[0].sql
	l.extra["sql.allocs_per_parse"] = allocsPer(200, func() { _, _ = sql.Parse(text) })
	args := op{tmpl: 0, k: 10, p1: 300}.params(w.name, 0)
	db.SetProfileSampling(0)
	l.extra["engine.allocs_per_query"] = allocsPer(200, func() { _, _ = stmts[0].Query(args...) })
	return l, nil
}

// profiled runs a prepared read with operator profiling on and records
// the query span with the root operator's wall time nested at its end:
// the span's self time is the engine's own — plan-cache lookup, rebind,
// Rows assembly.
func (l *ladder) profiled(n int, stmt *ranksql.Stmt, args []interface{}) error {
	t0 := time.Now()
	rows, err := stmt.Query(args...)
	t1 := time.Now()
	if err != nil {
		return err
	}
	if !rows.Profiled || len(rows.Operators()) == 0 {
		return nil
	}
	tree := min(time.Duration(rows.Operators()[0].TimeMS*1e6), t1.Sub(t0))
	id := l.rec.add(n, 0, spanProfiled, t0, t1, false)
	l.rec.add(n, id, spanTree, t1.Add(-tree), t1, false)
	return nil
}

// btreeProbe times the index structure at the table's size: building a
// tree of n keys the way an index rebuild does, then single inserts into
// it.
func (l *ladder) btreeProbe(n int) {
	const singles = 1000
	r := rand.New(rand.NewSource(int64(n)))
	keys := make([]types.Value, n+singles)
	for i := range keys {
		keys[i] = types.NewFloat(r.Float64())
	}
	t := btree.New()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.Insert(keys[i], schema.TID(i))
	}
	l.extra["btree.bulk_build_ms"] = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	for i := n; i < len(keys); i++ {
		t.Insert(keys[i], schema.TID(i))
	}
	l.extra["btree.insert_ns"] = float64(time.Since(t0)) / singles
}

// traceJoin walks embed_join: there is no front end, the root span of an
// op is its engine call.
func traceJoin(seed int64, budget time.Duration) (*ladder, error) {
	l := newLadder()
	db, err := openJoinDB(genJoinData(joinDataSeed, joinRows, joinSelectivity))
	if err != nil {
		return nil, err
	}
	stmt, err := db.Prepare(joinSQL(""))
	if err != nil {
		return nil, err
	}
	for _, k := range joinKs {
		if _, err := stmt.Query(0.8, k); err != nil {
			return nil, err
		}
	}
	stream := joinStream(seed, ladderOpsJoin)[:ladderOpsJoin]
	// Compile ops come every tenth op; put one first so that a short
	// budget still measures the optimizer. Its literal differs from every
	// literal of the stream in the ninth decimal.
	first := stream[joinBlock-1]
	first.p2 += 3e-9
	stream = append([]op{first}, stream...)

	start := time.Now()
	for n, o := range stream {
		if time.Since(start) > budget*2/3 {
			break
		}
		n++
		l.ops++
		if o.kind != opCompile {
			id, _ := l.rec.timed(n, 0, spanQuery, false, func() { _, err = stmt.Query(o.p1, o.k) })
			if err != nil {
				return nil, err
			}
			l.rec.setKind(id, opKindNames[o.kind])
			continue
		}
		text := compileSQL(o.p2)
		var st *ranksql.Stmt
		var ast sql.Stmt
		root := l.rec.reserve(n, 0, spanCompileOp)
		l.rec.setKind(root, opKindNames[o.kind])
		t0 := time.Now()
		pid, _ := l.rec.timed(n, root, spanPrepare, false, func() { st, err = db.Prepare(text) })
		if err != nil {
			return nil, err
		}
		fid, _ := l.rec.timed(n, root, spanFirstQuery, false, func() { _, err = st.Query(o.p1, o.k) })
		l.rec.finish(root, t0, time.Now())
		if err != nil {
			return nil, err
		}
		if l.rec.timed(n, pid, spanParse, true, func() { ast, err = sql.Parse(text) }); err != nil {
			return nil, err
		}
		l.rec.timed(n, pid, spanNormalize, true, func() { _ = sql.Normalize(ast) })
		// The second execution runs the cached plan: what is left of the
		// first once it is taken out is the compile.
		if l.rec.timed(n, fid, spanSecond, true, func() { _, err = st.Query(o.p1, o.k) }); err != nil {
			return nil, err
		}
		// Explain takes literal SQL: bind the two placeholders by hand.
		lit := strings.Replace(strings.Replace(text, "?", fmt.Sprint(o.p1), 1), "?", fmt.Sprint(o.k), 1)
		if l.rec.timed(n, 0, spanExplain, false, func() { _, err = db.Explain(lit) }); err != nil {
			return nil, err
		}
	}

	// Profiled pass over the reads, for the operator tree's share.
	db.SetProfileSampling(1)
	for n, o := range stream[:l.ops] {
		if o.kind == opCompile {
			continue
		}
		if time.Since(start) > budget {
			break
		}
		if err := l.profiled(n+1, stmt, []interface{}{o.p1, o.k}); err != nil {
			return nil, err
		}
	}
	db.SetProfileSampling(0)
	text := joinSQL("")
	l.extra["sql.allocs_per_parse"] = allocsPer(200, func() { _, _ = sql.Parse(text) })
	l.extra["engine.allocs_per_query"] = allocsPer(2, func() { _, _ = stmt.Query(0.8, 10) })
	return l, nil
}

// recordedStream replays one shard's recorded answer to MergeTopK.
type recordedStream struct {
	rows   [][]interface{}
	scores []float64
}

func (s *recordedStream) Fetch(int) ([][]interface{}, []float64, bool, error) {
	return s.rows, s.scores, true, nil
}

// traceRouter walks router_topk: a router over two in-process shards,
// each behind the harness's timing middleware.
func traceRouter(ctx context.Context, w httpWorkload, seed int64, budget time.Duration) (*ladder, error) {
	l := newLadder()
	var shardHandlers []http.Handler
	var urls []string
	for i := 0; i < 2; i++ {
		db := ranksql.Open()
		if err := server.RegisterScorers(db, "webshop"); err != nil {
			return nil, err
		}
		h := server.New(db).Handler()
		base, stop, err := serveLoopback(l.shard(fmt.Sprintf("%s%d", spanShard, i), h))
		if err != nil {
			return nil, err
		}
		defer stop()
		shardHandlers = append(shardHandlers, h)
		urls = append(urls, base)
	}
	rt, err := router.New(urls)
	if err != nil {
		return nil, err
	}
	base, stop, err := serveLoopback(l.front(spanRouter, rt.Handler()))
	if err != nil {
		return nil, err
	}
	defer stop()
	if err := router.SeedVia(nil, base, "webshop", webshopRows); err != nil {
		return nil, err
	}

	stream := webshopStream(w.spec, seed, w.name, 0, ladderOps)[:ladderOps]
	cl := newClient(0, w.name, base, stream)
	if err := cl.prepare(ctx); err != nil {
		return nil, err
	}
	// Warm the router's templates and the shards' plan caches.
	for i := range webshopTemplates {
		for _, k := range []int{10, 50} {
			if _, err := cl.do(ctx, op{kind: opStateless, tmpl: uint8(i), k: k, p1: 299.5, p2: 100}, ""); err != nil {
				return nil, err
			}
		}
	}

	start := time.Now()
	for n, o := range stream {
		if time.Since(start) > budget*2/3 {
			break
		}
		n++
		l.ops++
		if _, err := l.roundtrip(ctx, cl, n, o); err != nil {
			return nil, err
		}
		if o.kind != opStateless {
			continue
		}
		// The merge on its own: each shard's answer to the same statement,
		// fetched through its handler, then MergeTopK over the recordings.
		_, req := cl.request(o)
		streams := make([]router.Stream, len(shardHandlers))
		for i, h := range shardHandlers {
			w, err := recorderPost(h, "/query", req)
			if err != nil {
				return nil, err
			}
			var resp struct {
				Rows   [][]interface{} `json:"rows"`
				Scores []float64       `json:"scores"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				return nil, err
			}
			streams[i] = &recordedStream{resp.Rows, resp.Scores}
		}
		if l.rec.timed(n, 0, spanMerge, false, func() { _, err = router.MergeTopK(streams, o.k, o.k) }); err != nil {
			return nil, err
		}
	}
	// The walked bindings repeat in the untraced pass, so the result cache
	// would answer them: draw that pass from the stream's next ops instead.
	next := webshopStream(w.spec, seed, w.name, 0, 2*ladderOps)[ladderOps:]
	cl2 := newClient(1, w.name+"-untraced", base, nil)
	if err := cl2.prepare(ctx); err != nil {
		return nil, err
	}
	if err := l.untracedPass(ctx, cl2, next[:l.ops]); err != nil {
		return nil, err
	}
	return l, nil
}

// layerOf maps a span name to the layer its self time is booked under in
// the per-layer shares: the module name, with the client-to-handler gap
// booked as the server's transport.
func layerOf(name string) string {
	switch name {
	case spanRoundtrip:
		return "transport"
	case spanCompileOp:
		return "engine"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// spanStats are per-span-name duration and self-time samples.
type spanStats struct {
	spans    []span
	selfByID map[int]float64
	dur      map[string][]float64 // ns
	self     map[string][]float64 // ns
}

func (l *ladder) stats() spanStats {
	l.rec.mu.Lock()
	spans := append([]span(nil), l.rec.spans...)
	l.rec.mu.Unlock()
	self := selfTimes(spans)
	st := spanStats{spans: spans, selfByID: self, dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		name := s.Name
		if strings.HasPrefix(name, spanShard) {
			name = spanShard
		}
		st.dur[name] = append(st.dur[name], s.dur())
		st.self[name] = append(st.self[name], self[s.ID])
	}
	return st
}

// metrics reduces the spans to the per-layer timing metrics: medians of
// durations or self times, in each metric's unit.
func (l *ladder) metrics(st spanStats) map[string]float64 {
	med := func(v []float64, div float64) float64 {
		if len(v) == 0 {
			return 0
		}
		return median(v) / div
	}
	const usec, msec = 1e3, 1e6
	out := map[string]float64{
		"server.transport_us":    med(st.self[spanRoundtrip], usec),
		"server.handle_us":       med(st.dur[spanHandle], usec),
		"server.self_us":         med(st.self[spanHandler], usec),
		"jsonenc.encode_us":      med(st.dur[spanEncode], usec),
		"sql.parse_us":           med(st.dur[spanParse], usec),
		"sql.normalize_us":       med(st.dur[spanNormalize], usec),
		"engine.prepare_us":      med(st.dur[spanPrepare], usec),
		"engine.query_us":        med(st.dur[spanQuery], usec),
		"engine.rebind_us":       med(st.self[spanProfiled], usec),
		"engine.cursor_open_us":  med(st.dur[spanCursorOpen], usec),
		"engine.cursor_fetch_us": med(st.dur[spanCursorNext], usec),
		"exec.tree_us":           med(st.dur[spanTree], usec),
		"optimizer.compile_ms":   med(st.self[spanFirstQuery], msec),
		"engine.explain_ms":      med(st.dur[spanExplain], msec),
		"engine.insert_ms":       med(st.dur[spanInsert], msec),
		"router.handle_us":       med(st.dur[spanRouter], usec),
		"router.self_us":         med(st.self[spanRouter], usec),
		"router.merge_us":        med(st.dur[spanMerge], usec),
	}
	if len(st.dur[spanReadInWrite]) > 0 {
		out["engine.read_wait_ms"] = max(med(st.dur[spanReadInWrite], msec)-med(st.dur[spanQuery], msec), 0)
	}
	// Per router request: how long it waited for shards (the union of its
	// shard spans, which is its duration less its self time) and how far
	// apart its two shards finished their work.
	var wait, skew []float64
	perShard := map[int]map[string]float64{}
	for _, s := range st.spans {
		if strings.HasPrefix(s.Name, spanShard) {
			if perShard[s.Parent] == nil {
				perShard[s.Parent] = map[string]float64{}
			}
			perShard[s.Parent][s.Name] += s.dur()
		}
	}
	for _, s := range st.spans {
		if s.Name != spanRouter {
			continue
		}
		wait = append(wait, s.dur()-st.selfByID[s.ID])
		if by := perShard[s.ID]; len(by) == 2 {
			var lo, hi float64
			for _, d := range by {
				if lo == 0 || d < lo {
					lo = d
				}
				hi = max(hi, d)
			}
			skew = append(skew, hi-lo)
		}
	}
	out["router.shard_span_us"] = med(wait, usec)
	out["router.fanout_skew_us"] = med(skew, usec)
	for k, v := range l.extra {
		out[k] = v
	}
	return out
}

// tracedReadP50 is the median top rung of the walked reads, in ms: the
// round trip where there is a front end, the engine call on embed_join.
func tracedReadP50(st spanStats) float64 {
	var v []float64
	for _, s := range st.spans {
		if s.Parent == 0 && (s.Name == spanRoundtrip || s.Name == spanQuery) && (s.Kind == "stateless" || s.Kind == "prepared") {
			v = append(v, s.dur()/1e6)
		}
	}
	return median(v)
}

// shares books every span's self time under its layer and expresses each
// layer's total as a share of the op roots' total: where a traced op's
// time went. Stmt.Query and the cursor calls are split between engine
// and exec in the proportion the profiled pass measured. The shares of
// spans under an op root add up to 1 but for the clamping of negative
// self times; trace_share.sum says how close they came.
func shares(st spanStats) map[string]float64 {
	spans, self := st.spans, st.selfByID
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	isOpRoot := func(s span) bool {
		return s.Parent == 0 && (s.Name == spanRoundtrip || s.Name == spanCompileOp || (s.Name == spanQuery && s.Kind != ""))
	}
	underOpRoot := func(s span) bool {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return isOpRoot(s)
	}
	var root, profiled, tree float64
	layers := map[string]float64{}
	for _, s := range spans {
		switch {
		case s.Name == spanProfiled:
			profiled += s.dur()
		case s.Name == spanTree:
			tree += s.dur()
		}
		if !underOpRoot(s) {
			continue
		}
		if isOpRoot(s) {
			root += s.dur()
		}
		layer := layerOf(s.Name)
		switch {
		case s.Name == spanQuery, s.Name == spanSecond, s.Name == spanCursorOpen, s.Name == spanCursorNext:
			layer = "engine+exec"
		case s.Name == spanFirstQuery:
			layer = "optimizer"
		case s.Name == spanRouter:
			// Shards work in parallel: the router waited for the union of
			// their spans, not their sum.
			layers["shard_wait"] += s.dur() - self[s.ID]
		case strings.HasPrefix(s.Name, spanShard):
			continue
		}
		layers[layer] += self[s.ID]
	}
	if both, ok := layers["engine+exec"]; ok {
		delete(layers, "engine+exec")
		treeShare := 0.0
		if profiled > 0 {
			treeShare = tree / profiled
		}
		layers["exec"] += both * treeShare
		layers["engine"] += both * (1 - treeShare)
	}
	out := map[string]float64{}
	if root == 0 {
		return out
	}
	var sum float64
	for layer, v := range layers {
		out["trace_share."+layer] = v / root
		sum += v / root
	}
	out["trace_share.sum"] = sum
	return out
}
