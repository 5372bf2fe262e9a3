package collective

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"temp/internal/hw"
	"temp/internal/mesh"
)

var freshLinks atomic.Int64

// TestLowerConcurrentFirstLookupBuildsOnce has 8 goroutines look up
// one key of a fresh frozen topology at once. The key must compile
// once and count one miss and one template, so the lowering counters
// do not depend on how the lookups race; every caller gets the same
// phases.
func TestLowerConcurrentFirstLookupBuildsOnce(t *testing.T) {
	link := hw.TableID2D()
	// A link reach no other run interns: a topology whose lowering
	// cache starts empty.
	link.MaxReachMM += 1e4 + float64(freshLinks.Add(1))
	tp := mesh.Shared(2, 4, link)
	order := ringOrder(tp, mesh.Rect{R0: 0, C0: 0, R1: 1, C1: 3})
	var builds atomic.Int64
	build := func(bytes float64) []mesh.Phase {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond) // hold the compile open while the others look up
		return []mesh.Phase{ringStep(tp, order, bytes, "step", "s")}
	}
	before := CacheStats()
	const workers = 8
	got := make([][]mesh.Phase, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = lower(tp, kindAllReduce, "", order, 3, build)
		}(g)
	}
	close(start)
	wg.Wait()
	after := CacheStats()
	if n := builds.Load(); n != 1 {
		t.Errorf("builds = %d, want 1", n)
	}
	if d := after.Misses - before.Misses; d != 1 {
		t.Errorf("misses +%d, want +1", d)
	}
	if d := after.Templates - before.Templates; d != 1 {
		t.Errorf("templates +%d, want +1", d)
	}
	if d := after.Hits - before.Hits; d != workers-1 {
		t.Errorf("hits +%d, want +%d", d, workers-1)
	}
	want := []mesh.Phase{ringStep(tp, order, 3, "step", "s")}
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("goroutine %d got %+v, want %+v", g, got[g], want)
		}
	}
}
