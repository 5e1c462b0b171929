package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/server"
)

// testBin holds crackserve and crackrouter, built once for the tests.
var testBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "servebench-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, name := range []string{"crackserve", "crackrouter"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(dir, name), "adaptiveindex/cmd/"+name).CombinedOutput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", name, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	testBin = dir
	code := m.Run()
	killAll()
	os.RemoveAll(dir)
	os.Exit(code)
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// scaled shrinks the workload's tables and cold phase by div, for the
// self-tests.
func (w workloadDef) scaled(div int) workloadDef {
	tables := make([]tableDef, len(w.tables))
	for i, t := range w.tables {
		t.rows /= div
		tables[i] = t
	}
	w.tables = tables
	w.coldPerTarget = max(1, w.coldPerTarget/div)
	return w
}

// smokeScale shrinks every table a thousandfold.
const smokeScale = 1000

func smokeConfig(t *testing.T, w workloadDef) config {
	return config{w: w.scaled(smokeScale), seed: 7, seconds: 0.5, bin: testBin,
		work: t.TempDir(), spans: t.TempDir()}
}

// checkMetrics requires exactly the named metrics, each with its unit.
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	want := make(map[string]string)
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(smokeConfig(t, w), map[string]any{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res.Metrics, want)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive value", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	spec := loadSpec(t)
	want := make(map[string]string)
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t, w)
			res, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
			}
			checkMetrics(t, res.Metrics, want)
			spans, err := os.ReadFile(filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed)))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{`"http/query"`, `"router/query"`, `"node/query"`, `"engine.read"`} {
				if !bytes.Contains(spans, []byte(name)) {
					t.Errorf("no %s span written", name)
				}
			}
		})
	}
}

// corruptNth rewrites the nth /query answer's count, as a faulty layer
// between the service and the client would.
func corruptNth(n int64, h http.Handler) http.Handler {
	var seen atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/query" || seen.Add(1) != n {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var qr api.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		qr.Count++
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(qr)
	})
}

func TestOracleFlagsCorruptedAnswer(t *testing.T) {
	w, err := findWorkload("ingest")
	if err != nil {
		t.Fatal(err)
	}
	w = w.scaled(smokeScale)
	m, err := newModel(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := server.ParseTableSpecs(w.tableSpec())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := server.BuildCatalog(specs, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	bx, err := server.BuildExec(cat, server.EngineOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := newService(bx.Exec, w)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(corruptNth(5, svc.Handler()))
	defer ts.Close()
	r := clientRunner{api.NewClient(ts.URL, api.ClientOptions{}), w.tables}
	st, or := newStream(w, m, 3, 0), newOracle(m)
	tl := &tally{}
	reads := 0
	for reads < 20 {
		q := st.next()
		if q.kind.isRead() {
			reads++
		}
		execute(r, or, q, tl)
	}
	if tl.wrong != 1 || tl.failed != 0 {
		t.Fatalf("wrong=%d failed=%d, want exactly the corrupted answer flagged (first error: %v)", tl.wrong, tl.failed, tl.firstErr)
	}
	if !strings.Contains(tl.firstErr.Error(), "count") {
		t.Errorf("error %q does not name the count", tl.firstErr)
	}
}

func TestOracleChecksSelectRowsAndProjections(t *testing.T) {
	w, err := findWorkload("routed")
	if err != nil {
		t.Fatal(err)
	}
	w = w.scaled(smokeScale)
	m, err := newModel(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	or := newOracle(m)
	q := op{kind: opSelect, table: 0, col: 0, lo: 100, hi: 400, proj: []int{1}}
	// The true answer, straight from the base data.
	var rows column.IDList
	var vals []column.Value
	for id, v := range m.tables[0].cols[0].vals {
		if v >= 100 && v < 400 {
			rows = append(rows, column.RowID(id))
			vals = append(vals, column.Value(m.tables[0].cols[1].vals[id]))
		}
	}
	cols := func(v []column.Value) map[string][]column.Value { return map[string][]column.Value{"c1": v} }
	if err := or.check(q, len(rows), rows, cols(vals)); err != nil {
		t.Fatalf("true answer refused: %v", err)
	}
	swapped := append(column.IDList(nil), rows...)
	swapped[0] = column.RowID(len(m.tables[0].cols[0].vals) - 1)
	if swapped[0] == rows[0] {
		swapped[0]--
	}
	if err := or.check(q, len(rows), swapped, cols(vals)); err == nil {
		t.Error("a foreign row id passed the checksum")
	}
	bad := append([]column.Value(nil), vals...)
	bad[len(bad)-1]++
	if err := or.check(q, len(rows), rows, cols(bad)); err == nil {
		t.Error("a wrong projected value passed")
	}
	// An acknowledged insert in range must appear.
	id := column.RowID(len(m.tables[0].cols[0].vals))
	if err := or.applyInsert(0, []column.RowID{id}, [][]column.Value{{150, 9}}); err != nil {
		t.Fatal(err)
	}
	if err := or.check(q, len(rows), rows, cols(vals)); err == nil {
		t.Error("an answer missing an acknowledged insert passed")
	}
	if err := or.check(q, len(rows)+1, append(rows, id), cols(append(vals, 9))); err != nil {
		t.Errorf("answer with the insert refused: %v", err)
	}
}
