package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/crackeridx"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/workload"
)

// convergedEngine returns an engine whose data.c0 structure for path
// has been cracked by a narrow-range stream into at least 1,000 pieces,
// with one of that stream's queries to repeat (already cracked, so a
// rerun reorganises nothing).
func convergedEngine(tb testing.TB, path AccessPath) (*Engine, Query) {
	tb.Helper()
	e := traceTestEngine(tb, 20_000)
	qs := workload.Queries(workload.NewUniform(23, 0, 10_000, 0.001), 1200)
	var q Query
	for _, r := range qs {
		q = Query{Table: "data", Column: "c0", R: r, Project: []string{"c1"}, Path: path}
		if _, err := e.Run(q); err != nil {
			tb.Fatal(err)
		}
	}
	if pieces := e.piecesFor(key("data", "c0"), path); pieces < 1000 {
		tb.Fatalf("%s converged to only %d pieces", path, pieces)
	}
	return e, q
}

// TestEventLogAddsNoAllocations is the gate that keeps an O(pieces)
// hook off the query path: on a converged column, a query with the
// event log attached allocates no more than the same query without it.
func TestEventLogAddsNoAllocations(t *testing.T) {
	for _, path := range []AccessPath{PathCracking, PathSideways} {
		e, q := convergedEngine(t, path)
		run := func() {
			if _, err := e.Run(q); err != nil {
				t.Fatal(err)
			}
		}
		e.SetEventLog(nil)
		bare := testing.AllocsPerRun(200, run)
		e.SetEventLog(trace.NewLog(64))
		logged := testing.AllocsPerRun(200, run)
		if logged > bare {
			t.Errorf("%s: %.0f allocs/query with the event log, %.0f without", path, logged, bare)
		}
	}
}

// refPieces counts tc's pieces on path the way the event log used to:
// by materialising every piece list and taking its length.
func refPieces(e *Engine, tc TableColumn, path AccessPath) int {
	switch path {
	case PathCracking:
		if uc, ok := e.crackers[tc]; ok {
			return len(uc.Cracker().Pieces())
		}
	case PathSideways:
		if ms, ok := e.mapsets[tc]; ok {
			n := 0
			for _, md := range ms.Dump().Maps {
				ix := crackeridx.New()
				for _, b := range md.Boundaries {
					ix.Insert(b.Bound, b.Pos)
				}
				n += len(ix.Pieces(len(md.Heads)))
			}
			return n
		}
	}
	return 0
}

// TestReorgEventsMatchListCounts replays a seeded stream of routed,
// cracking and sideways queries interleaved with inserts and deletes,
// and checks that the crack and pieces_threshold events each query
// emits are exactly those a list-counting reference derives.
func TestReorgEventsMatchListCounts(t *testing.T) {
	e := traceTestEngine(t, 6000)
	log := trace.NewLog(1 << 16)
	e.SetEventLog(log)
	tc := key("data", "c0")
	rng := rand.New(rand.NewSource(29))
	gen := workload.NewUniform(31, 0, 10_000, 0.004)
	paths := []AccessPath{PathAuto, PathCracking, PathSideways}
	var seq uint64
	var emitted int
	for i := 0; i < 600; i++ {
		switch rng.Intn(10) {
		case 0:
			v := column.Value(rng.Intn(10_000))
			if _, err := e.InsertRow("data", []column.Value{v, v}); err != nil {
				t.Fatal(err)
			}
		case 1:
			// A row deleted twice is refused; only the accepted deletes
			// matter here.
			_ = e.DeleteRow("data", column.RowID(rng.Intn(6000)))
		}
		before := map[AccessPath]int{
			PathCracking: refPieces(e, tc, PathCracking),
			PathSideways: refPieces(e, tc, PathSideways),
		}
		res, err := e.Run(Query{Table: "data", Column: "c0", R: gen.Next(), Project: []string{"c1"}, Path: paths[rng.Intn(len(paths))]})
		if err != nil {
			t.Fatal(err)
		}
		pb, pa := before[res.Path], refPieces(e, tc, res.Path)
		var want []trace.Event
		if pa > pb {
			want = append(want, trace.Event{Kind: "crack", Table: "data", Column: "c0", Path: res.Path.String(),
				Fields: map[string]float64{"pieces_before": float64(pb), "pieces_after": float64(pa)}})
			for th := 16; th <= pa; th *= 2 {
				if pb < th {
					want = append(want, trace.Event{Kind: "pieces_threshold", Table: "data", Column: "c0", Path: res.Path.String(),
						Fields: map[string]float64{"threshold": float64(th), "pieces": float64(pa)}})
				}
			}
		}
		evs, dropped := log.Since(seq, 0)
		if dropped != 0 {
			t.Fatalf("query %d: event log dropped %d events", i, dropped)
		}
		var got []trace.Event
		for _, ev := range evs {
			seq = ev.Seq
			if ev.Kind == "crack" || ev.Kind == "pieces_threshold" {
				ev.Seq, ev.UnixMicros = 0, 0
				got = append(got, ev)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d on %s: events\n%+v\nwant\n%+v", i, res.Path, got, want)
		}
		emitted += len(got)
	}
	if emitted == 0 {
		t.Fatal("the stream emitted no crack events")
	}
}

// BenchmarkConvergedQueryEventLog prices the event log on an
// already-cracked query against a column of more than 1,000 pieces.
func BenchmarkConvergedQueryEventLog(b *testing.B) {
	for _, path := range []AccessPath{PathCracking, PathSideways} {
		for _, logged := range []bool{false, true} {
			name := path.String() + "/log=off"
			if logged {
				name = path.String() + "/log=on"
			}
			b.Run(name, func(b *testing.B) {
				e, q := convergedEngine(b, path)
				if logged {
					e.SetEventLog(trace.NewLog(64))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Run(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
