package persist

import (
	"bytes"
	"math/rand"
	"testing"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/crackeridx"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/workload"
)

// listPieces counts the pieces of a column of length n split at bs by
// materialising the piece list, independently of the index's tally.
func listPieces(bs []engine.BoundarySnap, n int) int {
	ix := crackeridx.New()
	for _, b := range bs {
		ix.Insert(crackeridx.Bound{Value: b.Value, Inclusive: b.Inclusive}, b.Pos)
	}
	return len(ix.Pieces(n))
}

// TestRestoredColumnKeepsPieceCount: a cracked column whose index has
// zero-length pieces (bounds on values the column lacks) reports the
// same piece count after a save/load cycle, and both counts equal the
// materialised piece lists.
func TestRestoredColumnKeepsPieceCount(t *testing.T) {
	const n = 8000
	cc := core.NewCrackerColumn(workload.DataUniform(4, n, n/8), core.DefaultOptions())
	gen := workload.NewUniform(5, 0, n/4, 0.01)
	for i := 0; i < 400; i++ {
		cc.Count(gen.Next())
	}
	var buf bytes.Buffer
	if err := Save(&buf, cc); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := len(cc.Pieces())
	if cc.Index().Len() < want {
		t.Fatalf("no zero-length pieces: %d boundaries, %d pieces", cc.Index().Len(), want)
	}
	if got := cc.NumPieces(); got != want {
		t.Fatalf("before the snapshot: NumPieces = %d, len(Pieces) = %d", got, want)
	}
	if got, ref := restored.NumPieces(), len(restored.Pieces()); got != want || ref != want {
		t.Fatalf("restored: NumPieces = %d, len(Pieces) = %d, want %d", got, ref, want)
	}
}

// TestRestoredEnginePieceCounts: an engine holding one cracked column
// (with merged writes) and one sideways map set (on a table without
// writes; a written table's maps are rebuilt, not restored) reports
// the same cracker and map piece counts after a snapshot round trip,
// equal to the list counts of the snapshot's boundaries.
func TestRestoredEnginePieceCounts(t *testing.T) {
	const n = 10000
	e := engine.New(testCatalog(t, 6, n), core.DefaultOptions())
	gen := workload.NewUniform(7, 0, n, 0.005)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		if i%10 == 0 {
			v := column.Value(rng.Intn(n))
			if _, err := e.InsertRow("events", []column.Value{v, v, v}); err != nil {
				t.Fatal(err)
			}
		}
		r := gen.Next()
		if _, err := e.Run(engine.Query{Table: "events", Column: "c0", R: r, Path: engine.PathCracking}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(engine.Query{Table: "orders", Column: "c1", R: r, Project: []string{"c0", "c2"}, Path: engine.PathSideways}); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Structures()
	if before.Crackers != 1 || before.MapSets != 1 {
		t.Fatalf("want one cracker and one map set, got %+v", before)
	}
	st := e.Snapshot()
	crackerRef, mapRef := 0, 0
	for _, cs := range st.Crackers {
		crackerRef += listPieces(cs.Boundaries, len(cs.Values))
	}
	for _, ms := range st.MapSets {
		for _, m := range ms.Maps {
			mapRef += listPieces(m.Boundaries, len(m.Heads))
		}
	}
	if before.CrackerPieces != crackerRef || before.MapPieces != mapRef {
		t.Fatalf("before the snapshot: %+v, list counts cracker %d map %d", before, crackerRef, mapRef)
	}

	var buf bytes.Buffer
	if err := SaveEngine(&buf, e); err != nil {
		t.Fatal(err)
	}
	restored := engine.New(testCatalog(t, 6, n), core.DefaultOptions())
	if err := RestoreEngine(&buf, restored); err != nil {
		t.Fatal(err)
	}
	after := restored.Structures()
	if after.CrackerPieces != before.CrackerPieces || after.MapPieces != before.MapPieces {
		t.Fatalf("restored pieces %+v, want %+v", after, before)
	}
}
