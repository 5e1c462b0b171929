package engine

import (
	"testing"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/updates"
	"adaptiveindex/internal/workload"
)

// traceTestEngine builds a two-column engine over deterministic data.
func traceTestEngine(t testing.TB, n int) *Engine {
	t.Helper()
	tab := NewTable("data")
	for ci, off := range []int64{0, 1} {
		if err := tab.AddColumn([]string{"c0", "c1"}[ci], workload.DataUniform(7+off, n, 10_000)); err != nil {
			t.Fatal(err)
		}
	}
	cat := NewCatalog()
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}
	return New(cat, core.DefaultOptions())
}

func TestRunTracedSpansCarryCostDeltas(t *testing.T) {
	e := traceTestEngine(t, 4000)
	rec := trace.NewRecorder()
	before := e.Cost()
	res, err := e.Run(Query{Table: "data", Column: "c0", R: column.NewRange(100, 600),
		Project: []string{"c1"}, Path: PathCracking, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	delta := e.Cost().Sub(before)
	root := rec.Finish()

	var crack, mat *trace.Span
	for _, s := range root.Spans {
		switch s.Phase {
		case trace.PhaseCrack:
			crack = s
		case trace.PhaseMaterialise:
			mat = s
		}
	}
	if crack == nil || mat == nil {
		t.Fatalf("missing phases in %+v", root.Spans)
	}
	// The spans partition the engine work: their totals must sum to the
	// engine's cost movement for the query.
	sum := root.SumWork()
	if sum.Total != delta.Total() {
		t.Fatalf("span work %d != engine delta %d", sum.Total, delta.Total())
	}
	if mat.Work.Recurring == 0 || res.Count == 0 {
		t.Fatalf("materialise span recorded no recurring work (count=%d)", res.Count)
	}
	if root.ChildDurUs() > root.DurUs {
		t.Fatalf("child durations %dus exceed root %dus", root.ChildDurUs(), root.DurUs)
	}
	// Tracing must leave no residue on the engine.
	if e.rec != nil {
		t.Fatal("recorder still attached after Run")
	}
}

func TestRunTracedMergeFlushNested(t *testing.T) {
	e := traceTestEngine(t, 2000)
	// Build the cracker, then buffer writes so the next read flushes.
	if _, err := e.Run(Query{Table: "data", Column: "c0", R: column.NewRange(0, 9999), Path: PathCracking}); err != nil {
		t.Fatal(err)
	}
	e.SetMergePolicy(updates.MergeGradually)
	for v := column.Value(200); v < 220; v++ {
		if _, err := e.InsertRow("data", []column.Value{v, v}); err != nil {
			t.Fatal(err)
		}
	}
	rec := trace.NewRecorder()
	if _, err := e.Run(Query{Table: "data", Column: "c0", R: column.NewRange(0, 9999),
		Path: PathCracking, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	root := rec.Finish()
	var flush *trace.Span
	for _, s := range root.Spans {
		if s.Phase == trace.PhaseCrack {
			for _, c := range s.Spans {
				if c.Phase == trace.PhaseMergeFlush {
					flush = c
				}
			}
		}
	}
	if flush == nil {
		t.Fatalf("no merge_flush span nested under crack: %+v", root.Spans)
	}
	if flush.Work.MergeWork == 0 {
		t.Fatalf("merge_flush span carries no merge work: %+v", flush.Work)
	}
}

func TestEventLogRecordsReorganisation(t *testing.T) {
	e := traceTestEngine(t, 4000)
	log := trace.NewLog(256)
	e.SetEventLog(log)

	// Drive enough distinct predicates through the planner to build
	// structures, crack them past thresholds, and close an explore round.
	qs := workload.Queries(workload.NewUniform(11, 0, 10_000, 0.02), 60)
	for _, r := range qs {
		if _, err := e.Run(Query{Table: "data", Column: "c0", R: r, Project: []string{"c1"}, Path: PathAuto}); err != nil {
			t.Fatal(err)
		}
	}
	events, dropped := log.Since(0, 0)
	if dropped != 0 || len(events) == 0 {
		t.Fatalf("events=%d dropped=%d", len(events), dropped)
	}
	seen := map[string]int{}
	var lastSeq uint64
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("events out of sequence order: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		seen[ev.Kind]++
	}
	for _, kind := range []string{"plan_explore", "plan_exploit", "build", "crack", "pieces_threshold"} {
		if seen[kind] == 0 {
			t.Errorf("no %q event recorded (saw %v)", kind, seen)
		}
	}
	// The exploit decision must carry comparable per-path scores.
	for _, ev := range events {
		if ev.Kind == "plan_exploit" {
			if ev.Path == "" || len(ev.Fields) < 2 {
				t.Fatalf("plan_exploit event lacks scores: %+v", ev)
			}
		}
	}
}

func TestEventLogRecordsMergeFlush(t *testing.T) {
	e := traceTestEngine(t, 2000)
	log := trace.NewLog(64)
	e.SetEventLog(log)
	if _, err := e.Run(Query{Table: "data", Column: "c0", R: column.NewRange(0, 9999), Path: PathCracking}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.InsertRow("data", []column.Value{500, 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(Query{Table: "data", Column: "c0", R: column.NewRange(0, 9999), Path: PathCracking}); err != nil {
		t.Fatal(err)
	}
	events, _ := log.Since(0, 0)
	found := false
	for _, ev := range events {
		if ev.Kind == "merge_flush" && ev.Fields["merged_inserts"] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no merge_flush event after a buffered insert was read back: %+v", events)
	}
}

// TestTracingIsFreeWhenOn verifies the acceptance-critical invariant
// from the other side: an identical query stream with tracing and
// events attached moves the deterministic cost counters exactly as the
// bare stream does.
func TestTracingNeverMovesCostCounters(t *testing.T) {
	run := func(observed bool) uint64 {
		e := traceTestEngine(t, 3000)
		if observed {
			e.SetEventLog(trace.NewLog(128))
		}
		qs := workload.Queries(workload.NewUniform(13, 0, 10_000, 0.01), 40)
		for _, r := range qs {
			q := Query{Table: "data", Column: "c0", R: r, Project: []string{"c1"}, Path: PathAuto}
			if observed {
				q.Trace = trace.NewRecorder()
			}
			if _, err := e.Run(q); err != nil {
				t.Fatal(err)
			}
		}
		return e.Cost().Total()
	}
	bare, observed := run(false), run(true)
	if bare != observed {
		t.Fatalf("tracing moved the cost counters: %d (off) vs %d (on)", bare, observed)
	}
}
