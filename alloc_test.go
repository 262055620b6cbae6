package ranksql

import (
	"testing"

	"ranksql/internal/raceflag"
)

// Allocation budgets for the template-hit serve path, measured through the
// public API: benchDB registers its scorers with RegisterScorer and the
// tests query through Stmt.Query(args...), the path every shipped scorer
// and the daemon take. The ceilings leave headroom over the measured
// steady state (rebind 0, template-hit ~44 allocs/op on the webshop
// benchmark) for pool refills after a GC cycle, while still failing loudly
// if the pooled instance path regresses toward the clone-and-rebuild
// numbers it replaced (rebind 43 allocs/op, full hit 984 allocs/op — the
// budget enforces the issue's >=80% reduction with room to spare), or if
// RegisterScorer's adapter goes back to copying its arguments on every
// predicate evaluation (~270 allocs/op more here).
//
// A cursor runs on the same pooled instance, but suspended: its tuples are
// heap-allocated (three allocations each, ~290 scanned for the first page)
// so that a deep cursor does not pin every tuple it produced. Open +
// Fetch(10) + Close measures 907 allocs/op; the ceiling adds the same
// one-rebuild headroom (~45) and stays under the 977 the path cost when
// every open cloned the plan and rebuilt the tree.
//
// A set operation's template hit runs a pooled instance of its cached
// plan too: ~70 allocs/op for setOpTemplate, where optimizing both
// operands and building the tree on every call cost ~4 500.
const (
	rebindAllocBudget           = 2.0
	templateHitAllocBudget      = 90.0
	cursorOpenAllocBudget       = 950.0
	setOpTemplateHitAllocBudget = 1000.0
)

func TestRebindAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc budgets are meaningless under -race: sync.Pool drops puts")
	}
	cp, params := cachedBenchPlan(t, benchDB(t, 100))
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
	db.SetProfileSampling(0)
	st, err := db.Prepare(benchTemplate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(benchArgs...); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		rows, err := st.Query(benchArgs...)
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() == 0 || !rows.CacheHit {
			t.Fatalf("rows=%d cacheHit=%v, want cached non-empty result",
				rows.Len(), rows.CacheHit)
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
	db.SetProfileSampling(0)
	st, err := db.Prepare(benchTemplate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(benchArgs...); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c, err := st.Cursor(benchArgs...)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := c.Fetch(10)
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() != 10 || !rows.CacheHit {
			t.Fatalf("rows=%d cacheHit=%v, want a cached full page", rows.Len(), rows.CacheHit)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}); allocs > cursorOpenAllocBudget {
		t.Errorf("cursor open + Fetch(10) + Close: %.1f allocs/op, budget %v", allocs, cursorOpenAllocBudget)
	}
}

func TestSetOpTemplateHitAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc budgets are meaningless under -race: sync.Pool drops puts")
	}
	db := routeDB(t)
	db.SetProfileSampling(0)
	st, err := db.Prepare(setOpTemplate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(setOpArgs...); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		rows, err := st.Query(setOpArgs...)
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() == 0 || !rows.CacheHit {
			t.Fatalf("rows=%d cacheHit=%v, want cached non-empty result", rows.Len(), rows.CacheHit)
		}
	}); allocs > setOpTemplateHitAllocBudget {
		t.Errorf("set-op template hit: %.1f allocs/op, budget %v", allocs, setOpTemplateHitAllocBudget)
	}
}
