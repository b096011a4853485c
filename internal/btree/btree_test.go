package btree

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"cfs/internal/util"
)

type intItem int

func (a intItem) Less(b Item) bool { return a < b.(intItem) }

func collect(t *BTree) []int {
	var out []int
	t.Ascend(func(it Item) bool {
		out = append(out, int(it.(intItem)))
		return true
	})
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("empty tree Len = %d", tr.Len())
	}
	if tr.Get(intItem(1)) != nil {
		t.Fatalf("Get on empty tree returned item")
	}
	if tr.Delete(intItem(1)) != nil {
		t.Fatalf("Delete on empty tree returned item")
	}
	if tr.Min() != nil || tr.Max() != nil {
		t.Fatalf("Min/Max on empty tree not nil")
	}
	if got := collect(tr); len(got) != 0 {
		t.Fatalf("Ascend on empty tree visited %v", got)
	}
}

func TestInsertGetDeleteSmall(t *testing.T) {
	tr := NewWithDegree(2)
	for _, v := range []int{5, 1, 9, 3, 7} {
		if old := tr.ReplaceOrInsert(intItem(v)); old != nil {
			t.Fatalf("unexpected replace for %d", v)
		}
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tr.Len())
	}
	for _, v := range []int{5, 1, 9, 3, 7} {
		if got := tr.Get(intItem(v)); got == nil || int(got.(intItem)) != v {
			t.Fatalf("Get(%d) = %v", v, got)
		}
	}
	if tr.Get(intItem(4)) != nil {
		t.Fatalf("Get(4) found phantom item")
	}
	if got := collect(tr); !equalInts(got, []int{1, 3, 5, 7, 9}) {
		t.Fatalf("Ascend = %v", got)
	}
	if got := tr.Delete(intItem(5)); got == nil {
		t.Fatalf("Delete(5) returned nil")
	}
	if tr.Len() != 4 || tr.Has(intItem(5)) {
		t.Fatalf("item 5 still present after delete")
	}
}

func TestReplaceReturnsOld(t *testing.T) {
	tr := New()
	tr.ReplaceOrInsert(intItem(1))
	old := tr.ReplaceOrInsert(intItem(1))
	if old == nil || int(old.(intItem)) != 1 {
		t.Fatalf("replace did not return old item: %v", old)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len after replace = %d", tr.Len())
	}
}

func TestNilInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("inserting nil did not panic")
		}
	}()
	New().ReplaceOrInsert(nil)
}

func TestBadDegreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewWithDegree(1) did not panic")
		}
	}()
	NewWithDegree(1)
}

func TestLargeRandomAgainstReference(t *testing.T) {
	for _, degree := range []int{2, 3, 8, 32} {
		degree := degree
		t.Run(fmt.Sprintf("degree=%d", degree), func(t *testing.T) {
			tr := NewWithDegree(degree)
			ref := map[int]bool{}
			r := util.NewRand(uint64(degree) * 1717)
			const n = 5000
			for i := 0; i < n; i++ {
				v := r.Intn(2000)
				switch r.Intn(3) {
				case 0, 1:
					tr.ReplaceOrInsert(intItem(v))
					ref[v] = true
				case 2:
					got := tr.Delete(intItem(v))
					if ref[v] != (got != nil) {
						t.Fatalf("delete(%d): tree=%v ref=%v", v, got != nil, ref[v])
					}
					delete(ref, v)
				}
			}
			if tr.Len() != len(ref) {
				t.Fatalf("Len = %d, ref = %d", tr.Len(), len(ref))
			}
			want := make([]int, 0, len(ref))
			for v := range ref {
				want = append(want, v)
			}
			sort.Ints(want)
			if got := collect(tr); !equalInts(got, want) {
				t.Fatalf("ascend mismatch: got %d items, want %d", len(got), len(want))
			}
		})
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.ReplaceOrInsert(intItem(i))
	}
	var got []int
	tr.AscendRange(intItem(10), intItem(20), func(it Item) bool {
		got = append(got, int(it.(intItem)))
		return true
	})
	want := []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	if !equalInts(got, want) {
		t.Fatalf("AscendRange = %v, want %v", got, want)
	}
}

func TestAscendGreaterOrEqual(t *testing.T) {
	tr := New()
	for i := 0; i < 20; i += 2 {
		tr.ReplaceOrInsert(intItem(i))
	}
	var got []int
	tr.AscendGreaterOrEqual(intItem(7), func(it Item) bool {
		got = append(got, int(it.(intItem)))
		return true
	})
	if !equalInts(got, []int{8, 10, 12, 14, 16, 18}) {
		t.Fatalf("AscendGreaterOrEqual = %v", got)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.ReplaceOrInsert(intItem(i))
	}
	count := 0
	tr.Ascend(func(it Item) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d items", count)
	}
}

func TestMinMaxTree(t *testing.T) {
	tr := New()
	for _, v := range []int{42, 7, 99, 13} {
		tr.ReplaceOrInsert(intItem(v))
	}
	if int(tr.Min().(intItem)) != 7 {
		t.Fatalf("Min = %v", tr.Min())
	}
	if int(tr.Max().(intItem)) != 99 {
		t.Fatalf("Max = %v", tr.Max())
	}
}

func TestCloneIsolation(t *testing.T) {
	tr := NewWithDegree(3)
	for i := 0; i < 1000; i++ {
		tr.ReplaceOrInsert(intItem(i))
	}
	snap := tr.Clone()
	// Mutate the original heavily.
	for i := 0; i < 1000; i += 2 {
		tr.Delete(intItem(i))
	}
	for i := 1000; i < 1500; i++ {
		tr.ReplaceOrInsert(intItem(i))
	}
	// Snapshot must still see exactly 0..999.
	if snap.Len() != 1000 {
		t.Fatalf("snapshot Len = %d", snap.Len())
	}
	got := collect(snap)
	for i, v := range got {
		if v != i {
			t.Fatalf("snapshot item %d = %d", i, v)
		}
	}
	// Original must see the mutations.
	if tr.Len() != 500+500 {
		t.Fatalf("original Len = %d", tr.Len())
	}
	if tr.Has(intItem(0)) {
		t.Fatalf("original still has deleted item")
	}
}

func TestCloneMutateCloneSide(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.ReplaceOrInsert(intItem(i))
	}
	snap := tr.Clone()
	for i := 0; i < 100; i += 2 {
		snap.Delete(intItem(i))
	}
	if tr.Len() != 100 {
		t.Fatalf("original changed when clone mutated: Len=%d", tr.Len())
	}
	if snap.Len() != 50 {
		t.Fatalf("clone Len = %d", snap.Len())
	}
}

// kvItem is ordered by k alone, so an Update can change v in place.
type kvItem struct{ k, v int }

func (a kvItem) Less(b Item) bool { return a.k < b.(kvItem).k }

func atKey(k int) func(Item) int {
	return func(it Item) int { return k - it.(kvItem).k }
}

func TestFindAndUpdate(t *testing.T) {
	tr := NewWithDegree(2)
	for k := 0; k < 200; k++ {
		tr.ReplaceOrInsert(kvItem{k, k})
	}
	for _, k := range []int{0, 1, 99, 150, 199} {
		if got := tr.Find(atKey(k)); got != (kvItem{k, k}) {
			t.Fatalf("Find(%d) = %v", k, got)
		}
		if got := tr.Update(atKey(k), func(old Item) Item { return kvItem{k, old.(kvItem).v + 1000} }); got != (kvItem{k, k + 1000}) {
			t.Fatalf("Update(%d) = %v", k, got)
		}
		if got := tr.Get(kvItem{k: k}); got != (kvItem{k, k + 1000}) {
			t.Fatalf("Get(%d) after Update = %v", k, got)
		}
	}
	called := false
	if got := tr.Update(atKey(200), func(old Item) Item { called = true; return old }); got != nil || called {
		t.Fatalf("Update of a missing key = %v, fn called %v", got, called)
	}
	if tr.Find(atKey(-1)) != nil || New().Find(atKey(0)) != nil || New().Update(atKey(0), nil) != nil {
		t.Fatal("Find or Update found a missing key")
	}
	if tr.Len() != 200 {
		t.Fatalf("Len = %d after updates, want 200", tr.Len())
	}
}

// TestUpdateAfterCloneKeepsCloneItem: an Update copies the nodes it
// descends through that a clone shares, so the clone still holds the old
// item - at the root and deep in the tree alike.
func TestUpdateAfterCloneKeepsCloneItem(t *testing.T) {
	tr := NewWithDegree(2)
	for k := 0; k < 500; k++ {
		tr.ReplaceOrInsert(kvItem{k, k})
	}
	snap := tr.Clone()
	for k := 0; k < 500; k += 7 {
		tr.Update(atKey(k), func(old Item) Item { return kvItem{k, -1} })
	}
	for k := 0; k < 500; k++ {
		if got := snap.Find(atKey(k)); got != (kvItem{k, k}) {
			t.Fatalf("clone's item %d = %v after an Update of the original", k, got)
		}
		want := kvItem{k, k}
		if k%7 == 0 {
			want.v = -1
		}
		if got := tr.Find(atKey(k)); got != want {
			t.Fatalf("original's item %d = %v, want %v", k, got, want)
		}
	}
	// And the other way round: an Update of the clone leaves the original.
	snap.Update(atKey(3), func(Item) Item { return kvItem{3, 33} })
	if got := tr.Find(atKey(3)); got != (kvItem{3, 3}) {
		t.Fatalf("original's item 3 = %v after an Update of the clone", got)
	}
}

func TestDeleteDescendingDrain(t *testing.T) {
	tr := NewWithDegree(2)
	const n = 300
	for i := 0; i < n; i++ {
		tr.ReplaceOrInsert(intItem(i))
	}
	for i := n - 1; i >= 0; i-- {
		if tr.Delete(intItem(i)) == nil {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("tree not empty after drain: %d", tr.Len())
	}
}

func TestQuickInsertDeleteMatchesSet(t *testing.T) {
	prop := func(ops []int16) bool {
		tr := NewWithDegree(3)
		ref := map[int16]bool{}
		for _, op := range ops {
			v := op / 2
			if op%2 == 0 {
				tr.ReplaceOrInsert(intItem(v))
				ref[v] = true
			} else {
				tr.Delete(intItem(v))
				delete(ref, v)
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		ok := true
		tr.Ascend(func(it Item) bool {
			if !ref[int16(it.(intItem))] {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAscendSorted(t *testing.T) {
	prop := func(vals []int32) bool {
		tr := New()
		for _, v := range vals {
			tr.ReplaceOrInsert(intItem(v))
		}
		prev := -1 << 40
		ok := true
		tr.Ascend(func(it Item) bool {
			v := int(it.(intItem))
			if v <= prev {
				ok = false
				return false
			}
			prev = v
			return true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	r := util.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ReplaceOrInsert(intItem(r.Intn(1 << 20)))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	for i := 0; i < 1<<16; i++ {
		tr.ReplaceOrInsert(intItem(i))
	}
	r := util.NewRand(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(intItem(r.Intn(1 << 16)))
	}
}

// found keeps BenchmarkFind's lookups from being optimized away.
var found Item

// BenchmarkFind is BenchmarkGet through a comparator over a plain int:
// the key is never boxed, so a lookup allocates nothing.
func BenchmarkFind(b *testing.B) {
	tr := New()
	for i := 0; i < 1<<16; i++ {
		tr.ReplaceOrInsert(intItem(i))
	}
	r := util.NewRand(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := intItem(r.Intn(1 << 16))
		found = tr.Find(func(it Item) int { return int(k - it.(intItem)) })
	}
}
