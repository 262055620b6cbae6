package router

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ranksql/internal/obs"
	"ranksql/internal/wire"
)

// Router-side ranked-result cache: a template hit with identical
// bindings and k is answered from the router with zero shard fan-out.
// It is an lru.Cache like the engine plan cache, and its invalidation
// model mirrors that one's — keys embed a schema version bumped
// by every DDL fan-out, and entries snapshot the router-tracked row
// counts of their referenced tables — but where the plan cache keeps a
// plan until a table doubles (DefaultStaleFactor), this cache drops an
// entry on *any* row growth: it holds result rows, not plans, and a
// single inserted row can change a top-k answer. The router fronts
// every write (DDL fan-out, partitioned INSERT, CSV /load), so its
// local version and row counts see all changes; rows written to shards
// behind the router's back are invisible to this accounting, which is
// why caching only engages for tables created through the router.
const (
	// defaultResultCacheCap is the default entry capacity
	// (WithResultCache overrides; <= 0 disables).
	defaultResultCacheCap = 512
	// maxCachedResultRows bounds a cacheable answer: deep cursor-style
	// result sets would evict many small hot entries for one cold giant.
	maxCachedResultRows = 1024
)

type resultKey struct {
	norm    string
	bind    string
	k       int
	version uint64
}

// resultEntry is one cached merged answer plus the staleness snapshot
// it was minted under. The row/score slices are shared with every
// response served from the entry and must never be mutated.
type resultEntry struct {
	columns   []string
	rows      [][]interface{}
	scores    []float64
	exhausted bool
	// tableRows is each referenced table's router-tracked row count at
	// the time the fan-out for this answer was issued (snapshotted
	// before the merge, so writes landing mid-merge invalidate).
	tableRows map[string]uint64
}

// ResultCacheStats is the /stats "result_cache" block.
type ResultCacheStats struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Stale     uint64  `json:"stale"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	HitRate   float64 `json:"hit_rate"`
}

// renderBindings folds a request's parameters into a canonical cache
// key fragment. Values are type-tagged so 1, 1.0 and "1" stay distinct
// keys. Parameters outside the JSON scalar set make the request
// uncacheable rather than guessing a rendering.
func renderBindings(params []interface{}) (string, bool) {
	if len(params) == 0 {
		return "", true
	}
	var b strings.Builder
	for _, p := range params {
		b.WriteByte(0)
		switch v := p.(type) {
		case nil:
			b.WriteByte('~')
		case bool:
			b.WriteByte('b')
			b.WriteString(strconv.FormatBool(v))
		case string:
			b.WriteByte('s')
			b.WriteString(v)
		case json.Number:
			b.WriteByte('n')
			b.WriteString(v.String())
		case float64:
			b.WriteByte('n')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		case int:
			b.WriteByte('n')
			b.WriteString(strconv.Itoa(v))
		default:
			return "", false
		}
	}
	return b.String(), true
}

// snapshotTables captures the current router-tracked row count of each
// referenced table under one lock acquisition. It returns nil when a
// table has no catalog entry — seeded behind the router's back, or a
// typo the shards will reject anyway: the query is then uncacheable,
// since the table's growth could not be observed.
func (r *Router) snapshotTables(tables []string) map[string]uint64 {
	if len(tables) == 0 {
		return nil
	}
	snap := make(map[string]uint64, len(tables))
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range tables {
		ti, ok := r.tables[name]
		if !ok {
			return nil
		}
		snap[name] = ti.rows
	}
	return snap
}

func (r *Router) resultKeyFor(t *template, bindKey string, k int) resultKey {
	r.mu.Lock()
	v := r.schemaVersion
	r.mu.Unlock()
	return resultKey{norm: t.norm, bind: bindKey, k: k, version: v}
}

// lookupResult returns the cached answer for (template, bindings, k) if
// one exists and no referenced table has changed its row count since the
// answer's fan-out was issued; a stale entry is dropped by the lookup.
func (r *Router) lookupResult(t *template, bindKey string, k int) (*resultEntry, bool) {
	return r.results.Get(r.resultKeyFor(t, bindKey, k), func(ent *resultEntry) bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		for table, snap := range ent.tableRows {
			if ti, ok := r.tables[table]; !ok || ti.rows != snap {
				return false
			}
		}
		return true
	})
}

// storeResult caches a merged one-shot answer under the row-count
// snapshot taken before its fan-out.
func (r *Router) storeResult(t *template, bindKey string, k int, snap map[string]uint64, resp *wire.QueryResponse) {
	r.results.Put(r.resultKeyFor(t, bindKey, k), &resultEntry{
		columns:   resp.Columns,
		rows:      resp.Rows,
		scores:    resp.Scores,
		exhausted: resp.Exhausted,
		tableRows: snap,
	})
}

// serveCachedResult writes a /query response straight from a cache
// entry: no shard saw this request, so the per-shard stats block is
// zero and merge.rows_fetched is 0 — which is exactly what the
// zero-fan-out tests assert through the replica request counters. The
// hit is recorded like a merged page, with no shard fetches or tuples.
func (r *Router) serveCachedResult(w http.ResponseWriter, trace *obs.Trace, t *template, k int, ent *resultEntry, elapsed time.Duration) {
	resp := r.newPage(ent.rows, ent.scores, 0, nil)
	resp.Columns = ent.columns
	resp.ResultCacheHit = true
	resp.K = k
	resp.Exhausted = ent.exhausted
	resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	resp.TraceID = trace.ID
	r.metrics.resultCacheHits.Inc()
	r.metrics.recordPage("query", elapsed,
		buildInsightRecord(t.norm, trace.ID, elapsed, wire.QueryStats{}, len(ent.rows), nil, nil), 0, 0, 0,
		[]any{"trace", trace.ID, "query", t.norm, "elapsed_ms", resp.ElapsedMS,
			"rows", len(ent.rows), "result_cache_hit", true})
	wire.WriteJSON(w, http.StatusOK, resp)
}

// resultCacheStats renders the cache's counters as the /stats block.
func (r *Router) resultCacheStats() *ResultCacheStats {
	s := r.results.Stats()
	return &ResultCacheStats{
		Hits: s.Hits, Misses: s.Misses, Stale: s.Stale, Evictions: s.Evictions,
		Entries: s.Entries, Capacity: s.Capacity, HitRate: s.HitRate(),
	}
}
