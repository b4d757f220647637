package fourier

import (
	"testing"

	"decamouflage/internal/obs"
)

// TestPlanCacheStats pins the hit/miss/eviction counters the plan cache
// reports under a deterministic serial access sequence. Counters live on
// the process-global obs registry, so the test asserts deltas.
func TestPlanCacheStats(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	if !obs.Enabled() {
		t.Skip("observability compiled out (noobs)")
	}
	resetPlanCache()
	defer resetPlanCache()

	hits := obs.C("fourier.plan.hits")
	misses := obs.C("fourier.plan.misses")
	size := obs.G("fourier.plan.size")
	h0, m0 := hits.Value(), misses.Value()

	if _, err := PlanFor(64, false); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := PlanFor(64, false); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := PlanFor(64, true); err != nil { // direction is part of the key: miss
		t.Fatal(err)
	}
	if got := hits.Value() - h0; got != 1 {
		t.Fatalf("hits delta = %d, want 1", got)
	}
	if got := misses.Value() - m0; got != 2 {
		t.Fatalf("misses delta = %d, want 2", got)
	}
	if got := size.Value(); got != int64(planCacheLen()) {
		t.Fatalf("size gauge = %d, cache len = %d", got, planCacheLen())
	}

	// A Bluestein length pulls its forward sub-plan through the same
	// cache: one top-level miss plus one sub-plan miss.
	m1 := misses.Value()
	if _, err := PlanFor(127, false); err != nil {
		t.Fatal(err)
	}
	if got := misses.Value() - m1; got != 2 {
		t.Fatalf("Bluestein misses delta = %d, want 2 (plan + sub-plan)", got)
	}

	// Flooding past the cap must surface as evictions.
	e0 := obs.C("fourier.plan.evictions").Value()
	for n := 1; n <= planCacheCap+8; n++ {
		if _, err := PlanFor(2*n, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := obs.C("fourier.plan.evictions").Value() - e0; got == 0 {
		t.Fatal("flooding past the cap recorded no evictions")
	}
	if got := planCacheLen(); got > planCacheCap {
		t.Fatalf("cache grew to %d entries, cap is %d", got, planCacheCap)
	}
}
