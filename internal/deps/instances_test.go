package deps

import (
	"testing"
)

// Every statement instance has its own ordinal, numbered statement by
// statement in enumeration order, and nothing else has one: not a point
// of another statement's domain, not a point in a domain's bounding box
// but outside the domain, whether the index is dense or sparse.
func TestInstanceOrdinals(t *testing.T) {
	an := analyzeAddMul(t, 3, 4, 2, true)
	in, err := an.Instances()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := an.Instances(); again != in {
		t.Fatal("a second Instances call enumerated again")
	}
	ord := 0
	for _, st := range an.Prog.Stmts {
		for _, x := range in.Of[st.ID] {
			if got, ok := in.Ordinal(st.ID, x); !ok || got != ord {
				t.Fatalf("%s%v: ordinal %d, %v; want %d", st.Name, x, got, ok, ord)
			}
			ord++
		}
	}
	if ord != in.N {
		t.Fatalf("%d instances, N = %d", ord, in.N)
	}
	// addmul's s2 is three-dimensional, s1 two-dimensional: an s2 point
	// past s1's last row is no s1 instance.
	if _, ok := in.Ordinal(0, []int64{3, 0}); ok {
		t.Error("a point outside s1's domain has an ordinal")
	}

	// A diagonal domain's bounding box is mostly holes, so it is indexed
	// sparsely; the holes still have no ordinal.
	diag := [][]int64{{0, 0}, {1000, 1000}, {2000, 2000}}
	ix, err := newInstIndex(diag, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ix.sparse == nil {
		t.Fatal("a 2001×2001 box of 3 points is indexed densely")
	}
	sparse := &Instances{Of: [][][]int64{diag}, N: len(diag), index: []instIndex{ix}}
	for i, x := range diag {
		if got, ok := sparse.Ordinal(0, x); !ok || got != i {
			t.Errorf("%v: ordinal %d, %v; want %d", x, got, ok, i)
		}
	}
	for _, x := range [][]int64{{0, 1000}, {1000, 0}, {-1, 0}, {2001, 2001}} {
		if _, ok := sparse.Ordinal(0, x); ok {
			t.Errorf("%v is no instance but has an ordinal", x)
		}
	}
}
