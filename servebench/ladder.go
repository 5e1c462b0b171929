package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/router"
	"adaptiveindex/internal/server"
	"adaptiveindex/internal/shard"
	"adaptiveindex/internal/trace"
)

// The traced run replays one workload's seeded op stream, in one
// session, through one rung of the stack after another, each built
// fresh from the same seed: the bare engine, the shard cluster, the
// service, the service's HTTP handler over JSON and over the binary
// protocol, and the router over two striped HTTP nodes. Timing comes
// only from outside the layers: a span per call at every boundary the
// benchmark can wrap (the call into the rung, the HTTP handlers), so a
// layer's self time is its span minus the spans it covers, or one
// rung's time minus the rung below it.

// span is one boundary crossing: name, start, end and the span that
// caused it, times in nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// Span levels: the op the session issues, the front handler it reaches,
// and the backend handlers a router fans out to.
const (
	levelOp = iota
	levelFront
	levelBackend
	levels
)

// recorder keeps spans in memory. One session means one open span per
// level at a time, except the backends a router calls in parallel,
// which share their parent.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  [levels]atomic.Int64
}

// spanIDs numbers spans across every recorder of a run, so the written
// spans of all rungs share one id space.
var spanIDs atomic.Int64

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span at level, under the span open one level up.
func (r *recorder) begin(level int) span {
	if !r.on {
		return span{}
	}
	sp := span{ID: int(spanIDs.Add(1)), Start: int64(time.Since(r.t0))}
	if level > 0 {
		sp.Parent = int(r.open[level-1].Load())
	}
	r.open[level].Store(int64(sp.ID))
	return sp
}

func (r *recorder) end(sp span, name string, bytes int64) {
	if !r.on {
		return
	}
	sp.Name, sp.End, sp.Bytes = name, int64(time.Since(r.t0)), bytes
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh list.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.spans
	r.spans = nil
	return spans
}

// traced wraps a handler's /query and /update requests in a span.
func (r *recorder) traced(level int, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/query" && req.URL.Path != "/update" {
			h.ServeHTTP(w, req)
			return
		}
		sp := r.begin(level)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, req)
		r.end(sp, name+req.URL.Path, cw.n)
	})
}

// countingWriter counts response bytes and keeps the binary protocol's
// per-frame flushes working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// selfTimes returns, for every span, its duration minus the part of
// it its children cover.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// execRunner drives an engine or a shard cluster directly.
type execRunner struct {
	x interface {
		Run(engine.Query) (*engine.Result, error)
		InsertRow(string, []column.Value) (column.RowID, error)
		DeleteRow(string, column.RowID) error
		WriteStats() engine.WriteStats
	}
	tables []tableDef
}

func engineQuery(tables []tableDef, q op) engine.Query {
	eq := engine.Query{Table: tables[q.table].name, Column: server.ColumnName(q.col), Path: engine.PathAuto,
		R: column.Range{HasLow: true, Low: q.lo, HasHigh: true, High: q.hi, IncLow: true}, CountOnly: q.kind == opCount}
	for _, p := range q.proj {
		eq.Project = append(eq.Project, server.ColumnName(p))
	}
	return eq
}

func (r execRunner) read(q op) (answer, error) {
	res, err := r.x.Run(engineQuery(r.tables, q))
	if err != nil {
		return answer{}, err
	}
	return answer{count: res.Count, rows: res.Rows, cols: res.Columns}, nil
}

func (r execRunner) write(q op) ([]column.RowID, int, int, error) {
	name := r.tables[q.table].name
	var ids []column.RowID
	for _, row := range q.rows {
		id, err := r.x.InsertRow(name, row)
		if err != nil {
			return nil, 0, 0, err
		}
		ids = append(ids, id)
	}
	for _, id := range q.ids {
		if err := r.x.DeleteRow(name, id); err != nil {
			return nil, 0, 0, err
		}
	}
	ws := r.x.WriteStats()
	return ids, len(q.ids), ws.PendingInserts + ws.PendingDeletes, nil
}

// serviceRunner drives server.Service in process.
type serviceRunner struct {
	svc    *server.Service
	tables []tableDef
}

func (r serviceRunner) read(q op) (answer, error) {
	eq := engineQuery(r.tables, q)
	sq := server.Query{Table: eq.Table, Column: eq.Column, R: eq.R, Project: eq.Project}
	if q.kind == opCount {
		n, err := r.svc.CountQuery(sq)
		return answer{count: n}, err
	}
	rep, err := r.svc.SelectQuery(sq)
	if rep.Done != nil {
		defer rep.Done()
	}
	return answer{count: rep.Count, rows: rep.Rows, cols: rep.Columns}, err
}

func (r serviceRunner) write(q op) ([]column.RowID, int, int, error) {
	w := server.WriteOp{Table: r.tables[q.table].name, Insert: q.rows, Delete: q.ids}
	rep, err := r.svc.Apply([]server.WriteOp{w})
	return rep.Inserted, rep.Deleted, rep.PendingInserts + rep.PendingDeletes, err
}

// newService hosts exec behind a service configured as crackserve
// configures it by default.
func newService(exec server.Exec, w workloadDef) (*server.Service, error) {
	return server.NewService(server.Config{
		Exec: exec, DefaultTable: w.tables[0].name, DefaultPath: "auto",
		BatchWindow: 500 * time.Microsecond, MaxBatch: 64, MaxInFlight: 1024, Readers: 1,
		EventLog: trace.NewLog(trace.DefaultLogSize),
	})
}

// replayOp is one op of the single-session replay and the session
// whose scope it belongs to.
type replayOp struct {
	session int
	q       op
}

// replayStream interleaves the sessions' cold phases, then their
// measured phases, into one deterministic op list.
func replayStream(w workloadDef, m *model, seed int64, warm, measured int) (warmOps, measuredOps, probe []replayOp) {
	streams := make([]*stream, sessions)
	colds := make([][]op, sessions)
	for s := range streams {
		streams[s] = newStream(w, m, seed, s)
		colds[s] = streams[s].cold()
	}
	for i := 0; i < len(colds[0]) || i < len(colds[1]); i++ {
		for s := range colds {
			if i < len(colds[s]) {
				warmOps = append(warmOps, replayOp{s, colds[s][i]})
			}
		}
	}
	for i := 0; i < warm+measured; i++ {
		s := i % sessions
		ro := replayOp{s, streams[s].next()}
		if i < warm {
			warmOps = append(warmOps, ro)
		} else {
			measuredOps = append(measuredOps, ro)
		}
	}
	for i := 0; i < probeWrites; i++ {
		s := i % sessions
		probe = append(probe, replayOp{s, streams[s].write()})
	}
	return warmOps, measuredOps, probe
}

// probeWrites is the size of the write probe that prices the write
// path after the measured pass of a workload whose stream has no
// writes.
const probeWrites = 20

// rungResult is one rung's measured pass.
type rungResult struct {
	name                  string
	reads, writes         int
	readUs, writeUs       float64 // mean per op
	allocsPerOp, bytesPer float64
	spans                 []span
	tally                 *tally
}

// replay runs the warm pass, calls afterWarm, then runs the measured
// pass with a span per op and the allocation counters read around it.
// When the measured pass held no writes, the probe's writes follow it,
// timed but outside the allocation counts.
func replay(name string, r runner, m *model, ops ladderOps, rec *recorder, afterWarm func()) rungResult {
	warm, measured := ops.warm, ops.measured
	ors := []*oracle{newOracle(m), newOracle(m)}
	t := &tally{}
	for _, ro := range warm {
		execute(r, ors[ro.session], ro.q, t)
	}
	if afterWarm != nil {
		afterWarm()
	}
	res := rungResult{name: name}
	rec.take()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var readNs, writeNs int64
	for _, ro := range measured {
		sp := rec.begin(levelOp)
		dur, err := execute(r, ors[ro.session], ro.q, t)
		kind := "write"
		if ro.q.kind.isRead() {
			kind = "read"
		}
		rec.end(sp, name+"."+kind, 0)
		if err != nil {
			continue
		}
		if ro.q.kind.isRead() {
			res.reads++
			readNs += int64(dur)
		} else {
			res.writes++
			writeNs += int64(dur)
		}
	}
	runtime.ReadMemStats(&after)
	if res.writes == 0 {
		for _, ro := range ops.probe {
			dur, err := execute(r, ors[ro.session], ro.q, t)
			if err == nil {
				res.writes++
				writeNs += int64(dur)
			}
		}
	}
	n := float64(len(measured))
	res.allocsPerOp = float64(after.Mallocs-before.Mallocs) / n
	res.bytesPer = float64(after.TotalAlloc-before.TotalAlloc) / n
	res.readUs = float64(readNs) / 1e3 / float64(max(res.reads, 1))
	res.writeUs = float64(writeNs) / 1e3 / float64(max(res.writes, 1))
	res.spans = rec.take()
	res.tally = t
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "servebench: %s rung: %d failed, %d wrong; first: %v\n", name, t.failed, t.wrong, t.firstErr)
	}
	return res
}

// meanSpan averages, over the spans named name, the span's self time
// (self) or its whole duration, in microseconds.
func meanSpan(spans []span, name string, self map[int]int64) float64 {
	var sum int64
	n := 0
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if self != nil {
			sum += self[s.ID]
		} else {
			sum += s.End - s.Start
		}
		n++
	}
	return float64(sum) / 1e3 / float64(max(n, 1))
}

func sumBytes(spans []span, prefix string) int64 {
	var n int64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			n += s.Bytes
		}
	}
	return n
}

// ladderOps is the replay every rung runs.
type ladderOps struct{ warm, measured, probe []replayOp }

// opsPerSecond is how many ops per second of -seconds each rung
// measures; the warm pass replays the cold phase plus half as many.
const opsPerSecond = 40

func runTraced(cfg config) (result, error) {
	w := cfg.w
	m, err := newModel(w, cfg.seed)
	if err != nil {
		return result{}, err
	}
	nm := max(20, int(opsPerSecond*cfg.seconds))
	var ops ladderOps
	ops.warm, ops.measured, ops.probe = replayStream(w, m, cfg.seed, nm/2, nm)
	specs, err := server.ParseTableSpecs(w.tableSpec())
	if err != nil {
		return result{}, err
	}
	catalog := func() (*engine.Catalog, error) { return server.BuildCatalog(specs, cfg.seed, 0) }
	shards := runtime.GOMAXPROCS(0)
	opts := server.EngineOptions{Shards: shards, Seed: cfg.seed}
	mets := map[string]metric{}
	put := func(name string, v float64, unit string) { mets[name] = metric{v, unit} }
	total := &tally{}
	var allSpans []span
	rungs := map[string]rungResult{}
	record := func(r rungResult) {
		total.add(r.tally)
		allSpans = append(allSpans, r.spans...)
		rungs[r.name] = r
		put("ladder."+r.name+".us_per_op", (r.readUs*float64(r.reads)+r.writeUs*float64(r.writes))/float64(max(r.reads+r.writes, 1)), "us")
		put("ladder."+r.name+".allocs_per_op", r.allocsPerOp, "count")
		put("ladder."+r.name+".bytes_per_op", r.bytesPer, "B")
	}

	// Rung 1: the bare engine.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	cat, err := catalog()
	if err != nil {
		return result{}, err
	}
	be, err := server.BuildEngine(cat, opts)
	if err != nil {
		return result{}, err
	}
	var warmCost cost.Counters
	r := replay("engine", execRunner{be.Engine, w.tables}, m, ops, newRecorder(true),
		func() { warmCost = be.Engine.Cost() })
	record(r)
	work := be.Engine.Cost().Sub(warmCost)
	put("engine.run_us", r.readUs, "us")
	put("engine.allocs_per_q", r.allocsPerOp, "count")
	put("engine.work_per_q", float64(work.Total())/float64(max(r.reads, 1)), "count")
	reorg := 1 - float64(work.TuplesCopied+4*work.RandomTouches)/float64(max(work.Total(), 1))
	put("engine.reorg_frac", reorg, "ratio")
	put("engine.pieces", float64(be.Engine.Structures().Pieces), "count")
	runtime.GC()
	runtime.ReadMemStats(&ms)
	put("engine.heap_mb", float64(int64(ms.HeapAlloc)-int64(heap0))/(1<<20), "MB")
	runtime.KeepAlive(be.Engine)
	put("updates.merge_work_per_write", float64(work.MergeWork)/float64(max(r.writes, 1)), "count")

	// Rung 2: the shard cluster at the daemons' shard count.
	cat, err = catalog()
	if err != nil {
		return result{}, err
	}
	bx, err := server.BuildExec(cat, opts)
	if err != nil {
		return result{}, err
	}
	var shardWork0 []uint64
	r = replay("shard", execRunner{bx.Exec, w.tables}, m, ops, newRecorder(true),
		func() { shardWork0 = shardWork(bx.Exec) })
	record(r)
	put("shard.run_us", r.readUs, "us")
	put("shard.gather_us", r.readUs-rungs["engine"].readUs, "us")
	put("shard.allocs_per_q", r.allocsPerOp, "count")
	put("shard.imbalance", imbalance(shardWork0, shardWork(bx.Exec)), "ratio")

	// Rung 3: the service, then its snapshot and restore.
	svc, err := buildService(catalog, opts, w)
	if err != nil {
		return result{}, err
	}
	r = replay("server", serviceRunner{svc, w.tables}, m, ops, newRecorder(true), nil)
	record(r)
	put("server.self_us", r.readUs-rungs["shard"].readUs, "us")
	put("server.allocs_per_q", r.allocsPerOp, "count")
	put("server.apply_us", r.writeUs, "us")
	put("updates.pending_peak", float64(r.tally.pendingPeak), "count")
	if err := persistMetrics(svc, catalog, opts, cfg.work, put); err != nil {
		return result{}, err
	}

	// Rung 4: the HTTP handler over both protocols.
	for _, proto := range []string{"json", "binary"} {
		rec := newRecorder(true)
		svc, err := buildService(catalog, opts, w)
		if err != nil {
			return result{}, err
		}
		ts := httptest.NewServer(rec.traced(levelFront, "http", svc.Handler()))
		c := api.NewClient(ts.URL, api.ClientOptions{Proto: proto, Sessions: 1})
		name := "http_" + proto
		r = replay(name, clientRunner{c, w.tables}, m, ops, rec, nil)
		ts.Close()
		svc.Close()
		record(r)
		if proto != w.proto {
			continue
		}
		self := selfTimes(r.spans)
		put("http.encode_us", meanSpan(r.spans, "http/query", nil)-rungs["server"].readUs, "us")
		put("api.decode_us", meanSpan(r.spans, name+".read", self), "us")
		put("wire.bytes_per_q", float64(sumBytes(r.spans, "http/query"))/float64(max(r.reads, 1)), "B")
		put("api.conn_reuse", c.ReuseRate(), "ratio")
	}

	// Rung 5: the router over two striped HTTP nodes, with spans on,
	// then again with spans off to price the tracing.
	var on rungResult
	for _, spans := range []bool{true, false} {
		rec := newRecorder(spans)
		rr, stop, err := buildRouted(catalog, opts, w, rec)
		if err != nil {
			return result{}, err
		}
		name := "router"
		if !spans {
			name = "router_untraced"
		}
		r = replay(name, rr, m, ops, rec, nil)
		retries := routerRetries(rr.c)
		stop()
		if !spans {
			total.add(r.tally)
			put("trace.overhead_frac", on.readUs/r.readUs-1, "ratio")
			continue
		}
		on = r
		record(r)
		self := selfTimes(r.spans)
		put("router.self_us", meanSpan(r.spans, "router/query", self), "us")
		put("router.backend_bytes_per_q", float64(sumBytes(r.spans, "node/query"))/float64(max(r.reads, 1)), "B")
		put("router.retries", retries, "count")
	}

	// The daemons themselves: CPU per op and the scheduler's view.
	if err := daemonPass(cfg, m, put, total); err != nil {
		return result{}, err
	}
	if err := writeSpans(cfg, allSpans); err != nil {
		return result{}, err
	}
	return result{Correct: total.wrong == 0, Attempted: total.attempted, Failed: total.failed + total.wrong, Metrics: mets}, nil
}

func buildService(catalog func() (*engine.Catalog, error), opts server.EngineOptions, w workloadDef) (*server.Service, error) {
	cat, err := catalog()
	if err != nil {
		return nil, err
	}
	bx, err := server.BuildExec(cat, opts)
	if err != nil {
		return nil, err
	}
	return newService(bx.Exec, w)
}

// persistMetrics closes the replayed service, snapshots it to a file
// and restores the snapshot into a fresh executor, timing both.
func persistMetrics(svc *server.Service, catalog func() (*engine.Catalog, error), opts server.EngineOptions, dir string, put func(string, float64, string)) error {
	svc.Close()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "ladder.snap")
	defer os.Remove(path)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = svc.SnapshotTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	snap := time.Since(t0)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	cat, err := catalog()
	if err != nil {
		return err
	}
	opts.SnapshotPath = path
	t0 = time.Now()
	bx, err := server.BuildExec(cat, opts)
	restore := time.Since(t0)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	live := 0
	for _, t := range bx.Exec.Tables() {
		live += t.LiveRows
	}
	put("persist.snapshot_ms", ms(snap), "ms")
	put("persist.restore_ms", ms(restore), "ms")
	put("persist.bytes_per_live_row", float64(fi.Size())/float64(max(live, 1)), "B")
	return nil
}

// shardWork is each shard's cumulative logical work.
func shardWork(x server.Exec) []uint64 {
	var out []uint64
	for _, st := range x.ShardStats() {
		out = append(out, st.WorkTotal)
	}
	if out == nil {
		out = []uint64{x.Cost().Total()}
	}
	return out
}

// imbalance is the busiest shard's work over the mean, between two
// readings.
func imbalance(before, after []uint64) float64 {
	var sum, top float64
	for i := range after {
		d := float64(after[i] - before[i])
		sum += d
		top = max(top, d)
	}
	if sum == 0 {
		return 1
	}
	return top / (sum / float64(len(after)))
}

// buildRouted starts two striped service nodes and a router over them,
// all on httptest listeners, and returns a client of the router.
func buildRouted(catalog func() (*engine.Catalog, error), opts server.EngineOptions, w workloadDef, rec *recorder) (clientRunner, func(), error) {
	var servers []*httptest.Server
	var svcs []*server.Service
	stop := func() {
		for _, ts := range servers {
			ts.Close()
		}
		for _, svc := range svcs {
			svc.Close()
		}
	}
	var urls []string
	for s := 0; s < 2; s++ {
		cat, err := catalog()
		if err == nil {
			cat, err = shard.Stripe(cat, s, 2)
		}
		if err != nil {
			stop()
			return clientRunner{}, nil, err
		}
		svc, err := buildService(func() (*engine.Catalog, error) { return cat, nil }, opts, w)
		if err != nil {
			stop()
			return clientRunner{}, nil, err
		}
		svcs = append(svcs, svc)
		ts := httptest.NewServer(rec.traced(levelBackend, "node", svc.Handler()))
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	rt, err := router.New(router.Config{Nodes: urls})
	if err != nil {
		stop()
		return clientRunner{}, nil, err
	}
	front := httptest.NewServer(rec.traced(levelFront, "router", rt.Handler()))
	nodesStop := stop
	stop = func() {
		front.Close()
		rt.Close()
		nodesStop()
	}
	c := api.NewClient(front.URL, api.ClientOptions{Proto: w.proto, Sessions: 1})
	return clientRunner{c, w.tables}, stop, nil
}

// routerRetries reads crackrouter_retries_total from the router's
// Prometheus exposition.
func routerRetries(c *api.Client) float64 {
	text, err := c.Metrics(context.Background())
	if err != nil {
		return -1
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "crackrouter_retries_total "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return -1
}

// splitRunner sends reads and writes to different fronts.
type splitRunner struct{ reads, writes runner }

func (r splitRunner) read(q op) (answer, error) { return r.reads.read(q) }

func (r splitRunner) write(q op) ([]column.RowID, int, int, error) { return r.writes.write(q) }

// daemonPass runs the workload against real daemons — its own
// deployment, with a one-node router in front of single-node mixes so
// the router is priced on every workload — and reads CPU time from
// /proc and the scheduler's counters from /stats around a short
// measured phase. Session 0 of a single-node mix talks to the node;
// session 1 reads through the router and writes to the node, since the
// router owns the row ids of the appends it forwards.
func daemonPass(cfg config, m *model, put func(string, float64, string), total *tally) error {
	w := cfg.w
	dep, err := newDeployment(w, cfg.bin, filepath.Join(cfg.work, "daemons"), cfg.seed, true)
	if err != nil {
		return err
	}
	defer dep.kill()
	if _, err := dep.boot(); err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	rs := make([]runner, sessions)
	ors := make([]*oracle, sessions)
	streams := make([]*stream, sessions)
	cold := make([][]op, sessions)
	for s := range rs {
		viaRouter := clientRunner{api.NewClient(dep.router.addr, api.ClientOptions{Proto: w.proto, Sessions: 1}), w.tables}
		direct := clientRunner{api.NewClient(dep.nodes[0].addr, api.ClientOptions{Proto: w.proto, Sessions: 1}), w.tables}
		switch {
		case w.routed:
			rs[s] = viaRouter
		case s == 0:
			rs[s] = direct
		default:
			rs[s] = splitRunner{reads: viaRouter, writes: direct}
		}
		ors[s] = newOracle(m)
		streams[s] = newStream(w, m, cfg.seed, s)
		cold[s] = streams[s].cold()
	}
	t, _ := drive(rs, ors, listSource(cold))
	total.add(t)

	ctx := context.Background()
	nodeStats := func() ([]api.Stats, error) {
		var out []api.Stats
		for _, nd := range dep.nodes {
			st, err := api.NewClient(nd.addr, api.ClientOptions{}).Stats(ctx)
			if err != nil {
				return nil, err
			}
			out = append(out, st)
		}
		return out, nil
	}
	cpus := func() ([]float64, error) {
		var out []float64
		for _, d := range dep.all() {
			c, err := d.cpuSeconds()
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
		return out, nil
	}
	st0, err := nodeStats()
	if err != nil {
		return err
	}
	cpu0, err := cpus()
	if err != nil {
		return err
	}
	driver0 := cpuTime()
	var issued [sessions]int
	deadline := time.Now().Add(time.Duration(min(3, cfg.seconds/3) * float64(time.Second)))
	t, wall := drive(rs, ors, func(s int) (op, bool) {
		if time.Now().After(deadline) {
			return op{}, false
		}
		issued[s]++
		return streams[s].next(), true
	})
	total.add(t)
	driverCPU := cpuTime() - driver0
	cpu1, err := cpus()
	if err != nil {
		return err
	}
	st1, err := nodeStats()
	if err != nil {
		return err
	}
	ops := float64(issued[0] + issued[1])
	routerOps := float64(issued[1])
	if w.routed {
		routerOps = ops
	}
	var nodeCPU, queries, batches, shared, events, gcUs float64
	for i := range dep.nodes {
		nodeCPU += cpu1[i] - cpu0[i]
		queries += float64(st1[i].Queries - st0[i].Queries)
		batches += float64(st1[i].Batches - st0[i].Batches)
		shared += float64(st1[i].SharedScans - st0[i].SharedScans)
		events += float64(st1[i].EventLog.LastSeq - st0[i].EventLog.LastSeq)
		gcUs += float64(st1[i].Process.GCPauseTotalUs - st0[i].Process.GCPauseTotalUs)
	}
	rc := len(dep.nodes)
	put("crackserve.cpu_us_per_op", nodeCPU*1e6/max(ops, 1), "us")
	put("crackrouter.cpu_us_per_op", (cpu1[rc]-cpu0[rc])*1e6/max(routerOps, 1), "us")
	put("crackserve.gc_pause_ms", gcUs/1e3, "ms")
	put("server.batch_size", queries/max(batches, 1), "count")
	put("server.shared_frac", shared/max(queries, 1), "ratio")
	put("server.events_per_q", events/max(queries, 1), "count")
	put("driver.cpu_frac", driverCPU.Seconds()/wall.Seconds(), "ratio")
	return nil
}

// writeSpans writes every span of the run, one JSON object a line.
func writeSpans(cfg config, spans []span) error {
	if err := os.MkdirAll(cfg.spans, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
