package crackeridx

import (
	"fmt"
	"math/rand"
	"testing"

	"adaptiveindex/internal/column"
)

// opReader hands out the bytes that drive an operation sequence,
// returning zeroes once they run out.
type opReader struct {
	data []byte
	off  int
}

func (r *opReader) more() bool { return r.off < len(r.data) }

func (r *opReader) next() int {
	if r.off >= len(r.data) {
		return 0
	}
	b := r.data[r.off]
	r.off++
	return int(b)
}

// posIn picks a position in [lo, hi], landing on either end often so
// boundaries pile up at 0, at n and on each other (zero-length pieces).
func (r *opReader) posIn(lo, hi int) int {
	switch sel := r.next(); {
	case hi <= lo || sel%4 == 0:
		return lo
	case sel%4 == 1:
		return hi
	default:
		return lo + (sel<<8|r.next())%(hi-lo+1)
	}
}

// span returns the largest position among the boundaries that stay put
// and the smallest among the ones that move (n when none move), given
// which boundaries a shift moves.
func span(bs []Boundary, n int, moves func(Boundary) bool) (fixedMax, movedMin int) {
	movedMin = n
	for _, b := range bs {
		if moves(b) {
			if b.Pos < movedMin {
				movedMin = b.Pos
			}
		} else if b.Pos > fixedMax {
			fixedMax = b.Pos
		}
	}
	return fixedMax, movedMin
}

// runOps applies the operation sequence encoded in data to a fresh
// index over a column whose length changes along the way, and checks
// after every operation that NumPieces matches the materialised piece
// list and that the index validates. Every operation keeps positions
// monotone and inside [0, n], as the cracker column's own updates do.
func runOps(t *testing.T, data []byte) {
	t.Helper()
	r := &opReader{data: data}
	ix := New()
	n := r.next() % 64
	check := func(step int, op string) {
		t.Helper()
		if err := ix.Validate(n); err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		// The count is exact for any column length, not only the one
		// the index is valid for.
		for _, m := range []int{n, n + 1, n - 1, 0} {
			if got, want := ix.NumPieces(m), len(ix.Pieces(m)); got != want {
				t.Fatalf("step %d (%s): NumPieces(%d) = %d, len(Pieces) = %d; boundaries %v",
					step, op, m, got, want, ix.Boundaries())
			}
		}
	}
	check(0, "start")
	for step := 1; r.more(); step++ {
		bs := ix.Boundaries()
		var op string
		switch r.next() % 9 {
		case 0, 1: // insert a bound, new or over an existing one
			b := Bound{Value: column.Value(r.next() % 24), Inclusive: r.next()%2 == 0}
			lo, hi := 0, n
			for _, x := range bs {
				if c := x.Bound.Compare(b); c < 0 {
					lo = x.Pos
				} else if c > 0 {
					hi = x.Pos
					break
				}
			}
			pos := r.posIn(lo, hi)
			op = fmt.Sprintf("Insert(%s, %d)", b, pos)
			ix.Insert(b, pos)
		case 2: // overwrite an existing bound in place
			if len(bs) == 0 {
				continue
			}
			i := r.next() % len(bs)
			lo, hi := 0, n
			if i > 0 {
				lo = bs[i-1].Pos
			}
			if i+1 < len(bs) {
				hi = bs[i+1].Pos
			}
			pos := r.posIn(lo, hi)
			op = fmt.Sprintf("Insert(%s, %d) over %d", bs[i].Bound, pos, bs[i].Pos)
			ix.Insert(bs[i].Bound, pos)
		case 3: // delete a bound, present or not
			b := Bound{Value: column.Value(r.next() % 24), Inclusive: r.next()%2 == 0}
			_, present := ix.Lookup(b)
			op = fmt.Sprintf("Delete(%s)", b)
			if got := ix.Delete(b); got != present {
				t.Fatalf("step %d: %s = %v, want %v", step, op, got, present)
			}
		case 4: // shift every boundary at or after a position
			from := r.posIn(0, n)
			fixedMax, movedMin := span(bs, n, func(b Boundary) bool { return b.Pos >= from })
			delta := r.next() % 8
			if r.next()%2 == 0 {
				delta = -(delta % (movedMin - fixedMax + 1))
			}
			op = fmt.Sprintf("ShiftPositions(%d, %d)", from, delta)
			ix.ShiftPositions(from, delta)
			n += delta
		case 5: // shift every boundary at or after a bound
			b := Bound{Value: column.Value(r.next() % 24), Inclusive: r.next()%2 == 0}
			fixedMax, movedMin := span(bs, n, func(x Boundary) bool { return x.Bound.Compare(b) >= 0 })
			delta := r.next() % 8
			if r.next()%2 == 0 {
				delta = -(delta % (movedMin - fixedMax + 1))
			}
			op = fmt.Sprintf("ShiftPositionsFromBound(%s, %d)", b, delta)
			ix.ShiftPositionsFromBound(b, delta)
			n += delta
		case 6: // physically remove a range of tuples
			start := r.posIn(0, n)
			end := r.posIn(start, n)
			op = fmt.Sprintf("CollapseRange(%d, %d)", start, end)
			ix.CollapseRange(start, end)
			n -= end - start
		case 7: // change the column length, down to the last boundary
			last := 0
			if len(bs) > 0 {
				last = bs[len(bs)-1].Pos
			}
			n = r.posIn(last, last+16)
			op = fmt.Sprintf("n = %d", n)
		default:
			if r.next()%4 != 0 {
				continue
			}
			op = "Clear"
			ix.Clear()
		}
		check(step, op)
	}
}

// TestNumPiecesProperty drives seeded random operation sequences
// through runOps.
func TestNumPiecesProperty(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+rng.Intn(4000))
		rng.Read(data)
		runOps(t, data)
	}
}

// TestNumPiecesEdgeCases pins the counts the piece list gives at the
// column's edges: an empty column, boundaries at 0 and at n, and
// zero-length pieces.
func TestNumPiecesEdgeCases(t *testing.T) {
	ix := New()
	for _, n := range []int{0, 1, 10} {
		if got := ix.NumPieces(n); got != 1 {
			t.Fatalf("empty index, n=%d: NumPieces = %d, want 1", n, got)
		}
	}
	ix.Insert(Bound{Value: 1}, 0)
	ix.Insert(Bound{Value: 5}, 4)
	ix.Insert(Bound{Value: 5, Inclusive: true}, 4)
	ix.Insert(Bound{Value: 9}, 10)
	cases := []struct{ n, want int }{{10, 2}, {11, 3}, {0, 2}}
	for _, c := range cases {
		if got, ref := ix.NumPieces(c.n), len(ix.Pieces(c.n)); got != c.want || ref != c.want {
			t.Fatalf("n=%d: NumPieces = %d, len(Pieces) = %d, want %d", c.n, got, ref, c.want)
		}
	}
	ix2 := New()
	ix2.Insert(Bound{Value: 3}, 0)
	if got := ix2.NumPieces(0); got != 1 {
		t.Fatalf("single boundary at 0 on an empty column: NumPieces = %d, want 1", got)
	}
}

// FuzzNumPieces lets the fuzzer choose the operation sequence runOps
// replays. Inputs are cut to a few hundred operations: longer ones add
// little the property test does not cover, and make minimising a new
// input slow enough to stall a short fuzz run.
func FuzzNumPieces(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{10, 0, 3, 0, 1, 0, 7, 1, 5, 1, 3, 2, 0, 4, 1, 2, 6, 0, 9})
	f.Add([]byte{0, 0, 1, 1, 0, 1, 2, 1, 1, 7, 1, 4, 0, 0, 0, 8, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		data := make([]byte, 64)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		runOps(t, data)
	})
}

// BenchmarkNumPieces compares the tallied count with building the
// piece list to take its length, on converged indexes of 1k and 100k
// boundaries.
func BenchmarkNumPieces(b *testing.B) {
	for _, k := range []int{1000, 100000} {
		ix := New()
		for i := 0; i < k; i++ {
			ix.Insert(Bound{Value: column.Value(i)}, 10*(i+1))
		}
		n := 10 * (k + 1)
		b.Run(fmt.Sprintf("boundaries=%d/NumPieces", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ix.NumPieces(n) != k+1 {
					b.Fatal("wrong count")
				}
			}
		})
		b.Run(fmt.Sprintf("boundaries=%d/lenPieces", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(ix.Pieces(n)) != k+1 {
					b.Fatal("wrong count")
				}
			}
		})
	}
}
