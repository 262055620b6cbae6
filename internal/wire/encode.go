package wire

import (
	"net/http"
	"strconv"
	"sync"

	"ranksql"
	"ranksql/internal/jsonenc"
)

// encodeBufPool recycles response encode buffers across requests. Buffers
// grow to the largest response they have carried and are reused as-is; a
// handful of outsized responses therefore pin proportionally large
// buffers, which is the intended trade for an allocation-free steady
// state.
var encodeBufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// WriteQueryResponse answers 200 with a page encoded without going
// through encoding/json: the row payload is appended straight from the
// engine's result values into a pooled buffer and written in one call.
// The output is byte-identical to WriteJSON(w, http.StatusOK, resp) with
// resp.Rows/resp.Ranks materialized as boxed values, including the
// encoder's trailing newline. resp supplies every field except Rows,
// Scores and Ranks, which are derived from rows (ranks count up from
// resp.Offset+1).
func WriteQueryResponse(w http.ResponseWriter, resp *QueryResponse, rows *ranksql.Rows) {
	bp := encodeBufPool.Get().(*[]byte)
	buf := AppendQueryResponse((*bp)[:0], resp, rows)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
	*bp = buf[:0]
	encodeBufPool.Put(bp)
}

// AppendQueryResponse appends the JSON document for resp+rows to dst,
// mirroring QueryResponse's field declaration order and omitempty tags.
// The router-only members (ResultCacheHit, Merge) and Error are not
// encoded: the router's rows arrive boxed from its shards, so it answers
// through WriteJSON.
func AppendQueryResponse(dst []byte, resp *QueryResponse, rows *ranksql.Rows) []byte {
	n := rows.Len()

	dst = append(dst, `{"columns":`...)
	if resp.Columns == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range resp.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonenc.AppendString(dst, c)
		}
		dst = append(dst, ']')
	}

	dst = append(dst, `,"rows":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, w := 0, rows.RowWidth(i); j < w; j++ {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = rows.ValueAt(i, j).AppendJSON(dst)
		}
		dst = append(dst, ']')
	}

	dst = append(dst, `],"scores":[`...)
	for i, s := range rows.Scores {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendFloat(dst, s)
	}

	dst = append(dst, `],"ranks":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(resp.Offset+i+1), 10)
	}

	dst = append(dst, `],"cache_hit":`...)
	dst = appendBool(dst, resp.CacheHit)
	dst = append(dst, `,"k":`...)
	dst = strconv.AppendInt(dst, int64(resp.K), 10)
	dst = append(dst, `,"depth":`...)
	dst = strconv.AppendInt(dst, int64(resp.Depth), 10)
	if resp.Offset != 0 {
		dst = append(dst, `,"offset":`...)
		dst = strconv.AppendInt(dst, int64(resp.Offset), 10)
	}
	if resp.CursorID != "" {
		dst = append(dst, `,"cursor_id":`...)
		dst = jsonenc.AppendString(dst, resp.CursorID)
	}
	dst = append(dst, `,"exhausted":`...)
	dst = appendBool(dst, resp.Exhausted)

	dst = append(dst, `,"stats":{"tuples_scanned":`...)
	dst = strconv.AppendInt(dst, resp.Stats.TuplesScanned, 10)
	dst = append(dst, `,"pred_evals":`...)
	dst = strconv.AppendInt(dst, resp.Stats.PredEvals, 10)
	dst = append(dst, `,"comparisons":`...)
	dst = strconv.AppendInt(dst, resp.Stats.Comparisons, 10)
	dst = append(dst, `,"join_probes":`...)
	dst = strconv.AppendInt(dst, resp.Stats.JoinProbes, 10)
	dst = append(dst, `,"peak_buffered":`...)
	dst = strconv.AppendInt(dst, resp.Stats.PeakBuffered, 10)
	dst = append(dst, `,"tuples_materialized":`...)
	dst = strconv.AppendInt(dst, resp.Stats.Materialized, 10)
	dst = append(dst, `,"pred_cost_units":`...)
	dst = jsonenc.AppendFloat(dst, resp.Stats.PredCostUnits)
	dst = append(dst, '}')

	if resp.DepthKReached != 0 {
		dst = append(dst, `,"depth_k":`...)
		dst = strconv.AppendInt(dst, resp.DepthKReached, 10)
	}
	if resp.MaxDriftRatio != 0 {
		dst = append(dst, `,"max_drift_ratio":`...)
		dst = jsonenc.AppendFloat(dst, resp.MaxDriftRatio)
	}
	dst = append(dst, `,"elapsed_ms":`...)
	dst = jsonenc.AppendFloat(dst, resp.ElapsedMS)
	if resp.TraceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = jsonenc.AppendString(dst, resp.TraceID)
	}
	// json.Encoder.Encode terminates the document with a newline; clients
	// built against WriteJSON may depend on it.
	return append(dst, '}', '\n')
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}
