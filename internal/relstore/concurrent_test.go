package relstore

import (
	"sync"
	"testing"

	"faure/internal/cond"
	"faure/internal/ctable"
)

// TestConcurrentReads exercises the package's phased concurrency
// contract: many goroutines probing and scanning a frozen relation
// must not race (counters are atomic, indexes are
// read-only). Run with -race.
func TestConcurrentReads(t *testing.T) {
	r := NewRelation("fwd", 2)
	for i := 0; i < 64; i++ {
		var v cond.Term
		if i%4 == 0 {
			v = cond.CVar("x")
		} else {
			v = cond.Int(int64(i % 8))
		}
		if err := r.Insert(ctable.NewTuple([]cond.Term{v, cond.Int(int64(i))}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, idx := range r.Candidates(0, cond.Int(int64(i%8))) {
					_ = r.Tuple(idx)
				}
				if i%10 == 0 {
					for _, idx := range r.All() {
						_ = r.Tuple(idx)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if r.ProbeCount() == 0 || r.ScanCount() == 0 {
		t.Fatalf("expected non-zero probe and scan counts, got %d / %d", r.ProbeCount(), r.ScanCount())
	}
}
