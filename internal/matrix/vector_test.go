package matrix

import "testing"

func TestSparseVecHelpers(t *testing.T) {
	v := &SparseVec[float64]{N: 10, Idx: []Index{2, 7}, Val: []float64{2, 4}}
	if v.NNZ() != 2 {
		t.Fatalf("nnz = %d", v.NNZ())
	}
	w := &SparseVec[float64]{N: 10, Idx: []Index{3}, Val: []float64{9}}
	rm := v.AsRowMatrix()
	if rm.NRows != 1 || rm.NCols != 10 || rm.NNZ() != 2 {
		t.Fatal("row view")
	}
	if err := rm.Validate(); err != nil {
		t.Fatal(err)
	}
	back := RowToVec(rm, 0)
	if !VecEqual(v, back, func(x, y float64) bool { return x == y }) {
		t.Fatal("row round trip")
	}
	p := v.VecPattern()
	if p.NNZ() != 2 || p.NRows != 1 {
		t.Fatal("pattern view")
	}
	c := v.Clone()
	c.Val[0] = 99
	if v.Val[0] == 99 {
		t.Fatal("clone must be deep")
	}
	u := EWiseAddVec(v, w, add)
	if u.NNZ() != 3 {
		t.Fatalf("union nnz = %d", u.NNZ())
	}
	if !VecEqual(u, u.Clone(), func(x, y float64) bool { return x == y }) {
		t.Fatal("vec equal")
	}
	if VecEqual(u, v, func(x, y float64) bool { return x == y }) {
		t.Fatal("different vectors must not be equal")
	}
}
