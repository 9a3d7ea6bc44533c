package band

import (
	"slices"
	"testing"
)

// TestTableMatchesMap drives a table and a Go map through the same ids —
// both bands, negative ids, replacements — and checks every lookup, the
// id listing and that records keep their addresses while the table grows.
func TestTableMatchesMap(t *testing.T) {
	tab := New[int](64)
	ref := map[int]*int{}
	ids := []int{3, 0, 1 << 20, 63, 64, -5, 2 << 20, 17, -1, 3, 1 << 20}
	for i, id := range ids {
		p := tab.Get(id)
		if q, ok := ref[id]; ok && p != q {
			t.Fatalf("Get(%d) moved its record", id)
		}
		ref[id] = p
		*p += i
	}
	repl := new(int)
	tab.Put(17, repl)
	ref[17] = repl
	for _, id := range []int{-7, -5, -1, 0, 1, 3, 17, 40, 63, 64, 65, 1 << 20, 2 << 20, 3 << 20} {
		if got, want := tab.Peek(id), ref[id]; got != want {
			t.Errorf("Peek(%d) = %p, want %p", id, got, want)
		}
	}
	want := []int{-5, -1, 0, 3, 17, 63, 64, 1 << 20, 2 << 20}
	if got := tab.IDs(); !slices.Equal(got, want) {
		t.Errorf("IDs() = %v, want %v", got, want)
	}
	tab.Reset()
	if got := tab.IDs(); len(got) != 0 || tab.Peek(3) != nil || tab.Peek(1<<20) != nil {
		t.Errorf("Reset left %v", got)
	}
	if p := tab.Get(5); p == nil || *p != 0 || !slices.Equal(tab.IDs(), []int{5}) {
		t.Errorf("Get after Reset: %v, ids %v", p, tab.IDs())
	}
}
