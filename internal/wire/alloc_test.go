package wire_test

import (
	"context"
	"testing"

	"ranksql"
	"ranksql/internal/raceflag"
	"ranksql/internal/server"
	"ranksql/internal/wire"
)

// encodeAllocBudget bounds the response-encoding step: with a
// pre-grown buffer, appending a full query response must not allocate
// at all (the ceiling tolerates the rare pool refill under GC).
const encodeAllocBudget = 0.5

func TestEncodeAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc budgets are meaningless under -race: sync.Pool drops puts")
	}
	db := ranksql.Open()
	if err := server.SeedWebshop(db, 1000); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(), testQuerySQL, 400.0, 10)
	if err != nil {
		t.Fatal(err)
	}
	resp := wire.QueryResponse{
		Columns:   rows.Columns,
		CacheHit:  rows.CacheHit,
		K:         rows.K,
		Depth:     rows.Len(),
		Exhausted: rows.Exhausted,
		ElapsedMS: 1.25,
		TraceID:   "t-budget",
	}
	buf := make([]byte, 0, 1<<16)
	if allocs := testing.AllocsPerRun(200, func() {
		buf = wire.AppendQueryResponse(buf[:0], &resp, rows)
	}); allocs > encodeAllocBudget {
		t.Errorf("wire.AppendQueryResponse: %.1f allocs/op, budget %v", allocs, encodeAllocBudget)
	}
}
