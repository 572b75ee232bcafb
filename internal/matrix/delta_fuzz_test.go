package matrix

import (
	"testing"
)

// FuzzDeltaApply drives a DeltaCSR with an arbitrary interleaving of
// inserts, deletes, compactions and threshold changes — including
// duplicate edges, deletes of absent edges and out-of-range indices — and
// asserts the overlay never corrupts the CSR invariants: sorted
// duplicate-free rows, monotone row pointers, and exact nnz/pending
// accounting, a dense log index whose nil slots are exactly the empty
// logs, and patched snapshots (Current, and the recycled private one once
// taken, by pattern when it holds no values) equal to a full merge
// (DeltaCSR.Validate is the oracle). A
// shadow map replays the accepted updates to cross-check the merged
// content, and the prior presence ApplyBatch reports for each update.
func FuzzDeltaApply(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x80, 9, 9, 4})
	f.Add([]byte{2, 0xff, 0x03, 1, 1, 1, 1, 1, 1, 1, 1, 3})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 13 // small dims so random indices collide and go out of range
		base := NewCSRFromCOO(&COO[float64]{NRows: n, NCols: n,
			Row: []Index{0, 3, 7}, Col: []Index{2, 3, 11}, Val: []float64{1, 2, 3}},
			func(a, b float64) float64 { return a + b })
		d, err := NewDeltaCSR(base)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[[2]Index]float64{{0, 2}: 1, {3, 3}: 2, {7, 11}: 3}
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		for pos < len(data) {
			switch op := next() % 5; op {
			case 0, 1: // batch of 1-3 updates (op 0 inserts, op 1 mixed)
				k := int(next()%3) + 1
				batch := make([]Update[float64], 0, k)
				for range k {
					// Raw bytes minus a small bias so indices can go negative
					// and past n, exercising the rejection path.
					row := Index(next()) - 2
					col := Index(next()) - 2
					batch = append(batch, Update[float64]{
						Row: row, Col: col,
						Val:    float64(next()),
						Delete: op == 1 && next()%2 == 0,
					})
				}
				was := make([]bool, len(batch))
				if _, err := d.ApplyBatch(batch, was); err == nil {
					for x, u := range batch {
						if _, had := ref[[2]Index{u.Row, u.Col}]; was[x] != had {
							t.Fatalf("update %d %+v: reported prior presence %v, shadow %v", x, u, was[x], had)
						}
						if u.Delete {
							delete(ref, [2]Index{u.Row, u.Col})
						} else {
							ref[[2]Index{u.Row, u.Col}] = u.Val
						}
					}
				}
			case 2:
				d.Compact()
			case 3:
				d.SetMergeThreshold(float64(next()) / 16)
			case 4: // a public snapshot, or the refresh's recycled one with or without values
				switch next() % 3 {
				case 0:
					_ = d.Current()
				case 1:
					_ = RecycledSnapshot(d, true)
				case 2:
					_ = RecycledSnapshot(d, false)
				}
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("invariants corrupted: %v", err)
			}
		}
		cur := d.Current()
		if cur.NNZ() != len(ref) {
			t.Fatalf("nnz %d, shadow map has %d", cur.NNZ(), len(ref))
		}
		for i := Index(0); i < n; i++ {
			cols, vals := cur.Row(i)
			for k, j := range cols {
				if want, ok := ref[[2]Index{i, j}]; !ok || vals[k] != want {
					t.Fatalf("entry (%d,%d)=%v, shadow %v (present=%v)", i, j, vals[k], want, ok)
				}
			}
		}
	})
}
