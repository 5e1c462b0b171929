package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"adaptiveindex/internal/column"
)

// sessions is the closed loop's width: two analysts, each waiting for
// its answer before asking the next question.
const sessions = 2

// tableDef is one generated table; the daemons build it from the same
// -tables spec and -seed, the oracle from the same generator.
type tableDef struct {
	name string
	rows int
	cols int
}

// workloadDef is one traffic mix. Every session owns a scope — whole
// tables (byTable) or a half of c0's value domain of the one table —
// and reads and writes only inside it, so each answer depends only on
// the base data and the session's own acknowledged writes and can be
// checked exactly while both sessions run.
type workloadDef struct {
	name   string
	tables []tableDef
	// routed puts crackrouter in front of two striped crackserve nodes.
	routed bool
	// proto is the read protocol: "json" or "binary".
	proto   string
	byTable bool
	// sel is a read's range width as a fraction of the value domain.
	sel float64
	// coldPerTarget is how many cold reads each fresh (table, column)
	// target answers before the measured phase.
	coldPerTarget int
	// drift is the walk's step as a fraction of the scope's domain;
	// stay is the mean number of reads on a target before switching.
	drift float64
	stay  int
	// countFrac of reads are counts, the rest select-project one other
	// column; writeFrac of all ops are writes, half inserts of
	// insertRows rows and half deletes of deleteRows base rows.
	countFrac  float64
	writeFrac  float64
	insertRows int
	deleteRows int
	// restarts is how many graceful restarts each round of a run makes.
	restarts int
	// rssOps is how many ops of the measured stream a fresh deployment
	// runs after its cold phase before the driver reads its peak RSS.
	rssOps int
}

var workloads = []workloadDef{
	// Cold columns far above L3, drifting 0.1% counts and small selects
	// over JSON: cracking and the auto planner do the work.
	{
		name:   "explore",
		tables: []tableDef{{"t0", 500_000, 2}, {"t1", 500_000, 2}, {"t2", 500_000, 2}, {"t3", 500_000, 2}},
		proto:  "json", byTable: true, sel: 0.001, coldPerTarget: 40,
		drift: 0.01, stay: 8, countFrac: 0.8,
		insertRows: 1, deleteRows: 1, // the traced run's write probe
		restarts: 1, // a restart takes seconds: snapshots of 8 cracked columns
		rssOps:   600,
	},
	// 20% multi-row inserts and deletes under the gradual merge policy,
	// reads over the binary protocol, then snapshot restarts: updates,
	// Service.Apply and persist do the work. One column: with two, every
	// write invalidates the sideways maps and the planner's choice
	// between rebuilding them and cracking flips from run to run.
	{
		name:   "ingest",
		tables: []tableDef{{"i", 1_000_000, 1}},
		proto:  "binary", sel: 0.001, coldPerTarget: 300,
		drift: 0.02, stay: 1,
		countFrac: 0.5, writeFrac: 0.2, insertRows: 8, deleteRows: 4,
		restarts: 2, rssOps: 400,
	},
	// crackrouter over two striped nodes, 0.1% select-projects over
	// JSON with a small write share: the router's fan-out and merge.
	{
		name:   "routed",
		tables: []tableDef{{"r", 2_000_000, 2}},
		routed: true, proto: "json", sel: 0.001, coldPerTarget: 100,
		drift: 0.02, stay: 1,
		countFrac: 0.2, writeFrac: 0.05, insertRows: 4, deleteRows: 2,
		restarts: 2, rssOps: 60,
	},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// tableSpec is the crackserve -tables value.
func (w workloadDef) tableSpec() string {
	parts := make([]string, len(w.tables))
	for i, t := range w.tables {
		parts[i] = fmt.Sprintf("%s:%d:%d", t.name, t.rows, t.cols)
	}
	return strings.Join(parts, ",")
}

type opKind uint8

const (
	opCount opKind = iota
	opSelect
	opInsert
	opDelete
)

func (k opKind) isRead() bool { return k == opCount || k == opSelect }

// op is one request of a session's stream. Reads ask for column col of
// table in [lo, hi); selects project the columns in proj.
type op struct {
	kind   opKind
	table  int
	col    int
	lo, hi int64
	proj   []int
	rows   [][]column.Value
	ids    []column.RowID
}

// target is one (table, column) a session reads, with its walk state.
type target struct {
	table, col int
	lo, hi     float64 // the session's value scope on col
	focus      float64
}

// stream is one session's deterministic op generator: the same
// workload, seed and session give the same ops in the same order.
type stream struct {
	w       workloadDef
	m       *model
	session int
	rng     *rand.Rand
	targets []*target
	cur     int
	deleted []map[column.RowID]bool // base rows this stream deleted, per table
	// writeAcc and countAcc spread writes and counts evenly over the
	// stream (see quota), and writes alternate between inserts and
	// deletes: a short run then holds the workload's exact mix instead
	// of a random draw around it, and writes, which cost far more than
	// reads, move less from seed to seed.
	writeAcc, countAcc float64
	nextInsert         bool
}

func newStream(w workloadDef, m *model, seed int64, session int) *stream {
	s := &stream{
		w: w, m: m, session: session,
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(session)*7919 + int64(len(w.name))*104_729)),
		deleted: make([]map[column.RowID]bool, len(w.tables)),
	}
	for i := range s.deleted {
		s.deleted[i] = make(map[column.RowID]bool)
	}
	for ti, t := range w.tables {
		if w.byTable {
			if ti%sessions != session {
				continue
			}
			for c := 0; c < t.cols; c++ {
				s.targets = append(s.targets, &target{table: ti, col: c, hi: float64(t.rows)})
			}
			continue
		}
		lo, hi := s.region(ti)
		s.targets = append(s.targets, &target{table: ti, col: 0, lo: float64(lo), hi: float64(hi)})
	}
	for _, tg := range s.targets {
		tg.focus = tg.lo + s.rng.Float64()*(tg.hi-tg.lo)
	}
	s.writeAcc, s.countAcc, s.nextInsert = s.rng.Float64(), s.rng.Float64(), s.rng.Intn(2) == 0
	return s
}

// quota adds frac to *acc and reports whether it reached a whole
// unit, which it then takes off: over n calls it is true about frac*n
// times, evenly spaced.
func quota(acc *float64, frac float64) bool {
	*acc += frac
	if *acc < 1 {
		return false
	}
	*acc--
	return true
}

// region is the session's half of table ti's c0 domain.
func (s *stream) region(ti int) (lo, hi int64) {
	d := int64(s.w.tables[ti].rows)
	return d * int64(s.session) / sessions, d * int64(s.session+1) / sessions
}

func (s *stream) width(tg *target) int64 {
	return max(1, int64(math.Round(s.w.sel*float64(s.w.tables[tg.table].rows))))
}

// cold returns the cold phase: coldPerTarget reads on every target,
// target by target.
func (s *stream) cold() []op {
	var ops []op
	for i, tg := range s.targets {
		s.cur = i
		for k := 0; k < s.w.coldPerTarget; k++ {
			ops = append(ops, s.walk(tg))
		}
	}
	return ops
}

// next returns the next op of the measured phase.
func (s *stream) next() op {
	if quota(&s.writeAcc, s.w.writeFrac) {
		return s.write()
	}
	return s.read()
}

// read returns the next read, skipping writes.
func (s *stream) read() op {
	if s.w.stay > 0 && s.rng.Intn(s.w.stay) == 0 {
		s.cur = s.rng.Intn(len(s.targets))
	}
	return s.walk(s.targets[s.cur])
}

// walk moves the target's focus by a small random step, reflecting at
// the scope's edges, and reads the range starting there.
func (s *stream) walk(tg *target) op {
	width := s.width(tg)
	span := tg.hi - tg.lo - float64(width)
	if span <= 0 {
		return s.readOp(tg, int64(tg.lo), int64(tg.lo)+width)
	}
	f := tg.focus - tg.lo + s.rng.NormFloat64()*s.w.drift*(tg.hi-tg.lo)
	f = math.Mod(math.Abs(f), 2*span)
	if f > span {
		f = 2*span - f
	}
	tg.focus = tg.lo + f
	lo := int64(tg.focus)
	return s.readOp(tg, lo, lo+width)
}

func (s *stream) readOp(tg *target, lo, hi int64) op {
	o := op{kind: opCount, table: tg.table, col: tg.col, lo: lo, hi: hi}
	if !quota(&s.countAcc, s.w.countFrac) {
		o.kind = opSelect
		if cols := s.w.tables[tg.table].cols; cols > 1 {
			o.proj = []int{(tg.col + 1) % cols}
		}
	}
	return o
}

// write returns an insert of new rows or a delete of base rows, both
// inside the session's scope.
func (s *stream) write() op {
	tg := s.targets[s.rng.Intn(len(s.targets))]
	t := s.w.tables[tg.table]
	insert := s.nextInsert
	s.nextInsert = !insert
	if insert {
		o := op{kind: opInsert, table: tg.table}
		for r := 0; r < s.w.insertRows; r++ {
			row := make([]column.Value, t.cols)
			for c := range row {
				row[c] = column.Value(s.rng.Intn(t.rows))
			}
			if !s.w.byTable {
				lo, hi := s.region(tg.table)
				row[0] = lo + s.rng.Int63n(hi-lo)
			}
			o.rows = append(o.rows, row)
		}
		return o
	}
	o := op{kind: opDelete, table: tg.table}
	for tries := 0; len(o.ids) < s.w.deleteRows; tries++ {
		if tries == 1000 {
			// The scope is nearly all deleted (only at tiny scales).
			return s.readOp(tg, int64(tg.lo), int64(tg.hi))
		}
		id := column.RowID(s.rng.Intn(t.rows))
		if s.deleted[tg.table][id] {
			continue
		}
		if !s.w.byTable {
			lo, hi := s.region(tg.table)
			if v := s.m.tables[tg.table].cols[0].vals[id]; int64(v) < lo || int64(v) >= hi {
				continue
			}
		}
		s.deleted[tg.table][id] = true
		o.ids = append(o.ids, id)
	}
	sort.Slice(o.ids, func(i, j int) bool { return o.ids[i] < o.ids[j] })
	return o
}
