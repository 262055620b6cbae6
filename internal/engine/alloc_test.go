package engine

import (
	"testing"

	"ranksql/internal/raceflag"
	"ranksql/internal/types"
)

// Allocation budgets for the engine's template-hit serve path. The
// ceilings leave headroom over the measured steady state (rebind 0,
// template-hit ~44 allocs/op on the webshop benchmark) for pool refills
// after a GC cycle, while still failing loudly if the pooled instance
// path regresses toward the clone-and-rebuild numbers it replaced
// (rebind 43 allocs/op, full hit 984 allocs/op — the budget enforces
// the issue's >=80% reduction with room to spare).
//
// A cursor runs on the same pooled instance, but suspended: its tuples are
// heap-allocated (three allocations each, ~290 scanned for the first page)
// so that a deep cursor does not pin every tuple it produced. Open +
// Fetch(10) + Close measures 907 allocs/op; the ceiling adds the same
// one-rebuild headroom (~45) and stays under the 977 the path cost when
// every open cloned the plan and rebuilt the tree.
const (
	rebindAllocBudget      = 2.0
	templateHitAllocBudget = 90.0
	cursorOpenAllocBudget  = 950.0
)

func TestRebindAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc budgets are meaningless under -race: sync.Pool drops puts")
	}
	db := benchDB(t, 100)
	db.ProfileEvery = 0
	st, err := db.Prepare(benchTemplate)
	if err != nil {
		t.Fatal(err)
	}
	params := []types.Value{types.NewFloat(400), types.NewInt(10)}
	if _, err := st.Query(params); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	cp, _ := db.Plans.Get(planKey{norm: st.norm, k: 10, version: db.version}, nil)
	db.mu.RUnlock()
	if cp == nil {
		t.Fatal("plan not cached")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		inst, err := cp.acquireInstance()
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.bind(params); err != nil {
			t.Fatal(err)
		}
		inst.release()
	}); allocs > rebindAllocBudget {
		t.Errorf("pooled rebind: %.1f allocs/op, budget %v", allocs, rebindAllocBudget)
	}
}

func TestTemplateHitAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc budgets are meaningless under -race: sync.Pool drops puts")
	}
	db := benchDB(t, 1000)
	db.ProfileEvery = 0
	st, err := db.Prepare(benchTemplate)
	if err != nil {
		t.Fatal(err)
	}
	params := []types.Value{types.NewFloat(400), types.NewInt(10)}
	if _, err := st.Query(params); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		rows, err := st.Query(params)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) == 0 || !rows.CacheHit {
			t.Fatalf("rows=%d cacheHit=%v, want cached non-empty result",
				len(rows.Data), rows.CacheHit)
		}
	}); allocs > templateHitAllocBudget {
		t.Errorf("template hit: %.1f allocs/op, budget %v", allocs, templateHitAllocBudget)
	}
}

func TestCursorOpenAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc budgets are meaningless under -race: sync.Pool drops puts")
	}
	db := benchDB(t, 1000)
	db.ProfileEvery = 0
	st, err := db.Prepare(benchTemplate)
	if err != nil {
		t.Fatal(err)
	}
	params := []types.Value{types.NewFloat(400), types.NewInt(10)}
	if _, err := st.Query(params); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c, err := st.Cursor(params)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := c.Fetch(10)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) != 10 || !rows.CacheHit {
			t.Fatalf("rows=%d cacheHit=%v, want a cached full page", len(rows.Data), rows.CacheHit)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}); allocs > cursorOpenAllocBudget {
		t.Errorf("cursor open + Fetch(10) + Close: %.1f allocs/op, budget %v", allocs, cursorOpenAllocBudget)
	}
}
