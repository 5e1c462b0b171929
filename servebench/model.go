package main

import (
	"fmt"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/server"
)

// rowHash spreads a row identifier over 64 bits (splitmix64), so a sum
// of hashes is a row-set checksum that a missing, extra or repeated row
// moves.
func rowHash(id column.RowID) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// colIndex answers a range's count and row checksum over the base data
// in O(1): off[v] counts the rows with a value below v and pre[v] sums
// their row hashes. vals keeps each row's value for projection checks.
type colIndex struct {
	vals []int32
	off  []uint32
	pre  []uint64
}

// baseTable is one generated table; its values lie in [0, rows).
type baseTable struct {
	name string
	rows int
	cols []colIndex
}

// model is the oracle's base data, generated by the daemons' own
// catalog builder from the same spec and seed.
type model struct {
	tables []baseTable
}

func newModel(w workloadDef, seed int64) (*model, error) {
	specs, err := server.ParseTableSpecs(w.tableSpec())
	if err != nil {
		return nil, err
	}
	m := &model{}
	cat, err := server.BuildCatalog(specs, seed, 0)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		t, err := cat.Table(spec.Name)
		if err != nil {
			return nil, err
		}
		bt := baseTable{name: spec.Name, rows: spec.Rows}
		for c := 0; c < spec.Cols; c++ {
			vals, err := t.Column(server.ColumnName(c))
			if err != nil {
				return nil, err
			}
			bt.cols = append(bt.cols, indexColumn(vals, bt.rows))
		}
		m.tables = append(m.tables, bt)
	}
	return m, nil
}

func indexColumn(vals []column.Value, domain int) colIndex {
	ci := colIndex{
		vals: make([]int32, len(vals)),
		off:  make([]uint32, domain+1),
		pre:  make([]uint64, domain+1),
	}
	for id, v := range vals {
		ci.vals[id] = int32(v)
		ci.off[v+1]++
		ci.pre[v+1] += rowHash(column.RowID(id))
	}
	for v := 1; v <= domain; v++ {
		ci.off[v] += ci.off[v-1]
		ci.pre[v] += ci.pre[v-1]
	}
	return ci
}

// oracle is one session's view: the shared base data plus the writes
// this session had acknowledged. Sessions never touch each other's
// scope, so nothing else can change the answers it checks.
type oracle struct {
	m        *model
	inserted []map[column.RowID][]column.Value
	deleted  []map[column.RowID]bool
}

func newOracle(m *model) *oracle {
	o := &oracle{m: m}
	for range m.tables {
		o.inserted = append(o.inserted, make(map[column.RowID][]column.Value))
		o.deleted = append(o.deleted, make(map[column.RowID]bool))
	}
	return o
}

// applyInsert records an acknowledged insert and the ids it was given.
func (o *oracle) applyInsert(table int, ids []column.RowID, rows [][]column.Value) error {
	if len(ids) != len(rows) {
		return fmt.Errorf("insert of %d rows acknowledged %d ids", len(rows), len(ids))
	}
	for i, id := range ids {
		if _, dup := o.inserted[table][id]; dup || int(id) < o.m.tables[table].rows {
			return fmt.Errorf("insert returned id %d, which is already taken", id)
		}
		o.inserted[table][id] = rows[i]
	}
	return nil
}

func (o *oracle) applyDelete(table int, ids []column.RowID) {
	for _, id := range ids {
		o.deleted[table][id] = true
	}
}

// expect returns the count and row checksum of col in [lo, hi).
func (o *oracle) expect(table, col int, lo, hi int64) (int, uint64) {
	bt := &o.m.tables[table]
	clo, chi := clamp(lo, bt.rows), clamp(hi, bt.rows)
	n, h := 0, uint64(0)
	if chi > clo {
		ci := &bt.cols[col]
		n = int(ci.off[chi] - ci.off[clo])
		h = ci.pre[chi] - ci.pre[clo]
	}
	for id := range o.deleted[table] {
		if v := int64(bt.cols[col].vals[id]); v >= lo && v < hi {
			n--
			h -= rowHash(id)
		}
	}
	for id, row := range o.inserted[table] {
		if v := row[col]; v >= lo && v < hi {
			n++
			h += rowHash(id)
		}
	}
	return n, h
}

func clamp(v int64, domain int) int64 {
	return min(max(v, 0), int64(domain))
}

// value is the live value of (table, col) at row id.
func (o *oracle) value(table, col int, id column.RowID) (column.Value, bool) {
	bt := &o.m.tables[table]
	if int(id) < bt.rows {
		if len(o.deleted[table]) > 0 && o.deleted[table][id] {
			return 0, false
		}
		return column.Value(bt.cols[col].vals[id]), true
	}
	row, ok := o.inserted[table][id]
	if !ok {
		return 0, false
	}
	return row[col], true
}

// check compares one read's answer with the model: the count, and for
// selects the row checksum and every projected value.
func (o *oracle) check(q op, count int, rows column.IDList, cols map[string][]column.Value) error {
	n, h := o.expect(q.table, q.col, q.lo, q.hi)
	if count != n {
		return fmt.Errorf("%s.c%d [%d,%d): count %d, want %d", o.m.tables[q.table].name, q.col, q.lo, q.hi, count, n)
	}
	if q.kind != opSelect {
		return nil
	}
	if len(rows) != n {
		return fmt.Errorf("%s.c%d [%d,%d): %d rows for count %d", o.m.tables[q.table].name, q.col, q.lo, q.hi, len(rows), n)
	}
	var got uint64
	for _, id := range rows {
		got += rowHash(id)
	}
	if got != h {
		return fmt.Errorf("%s.c%d [%d,%d): row checksum %x, want %x", o.m.tables[q.table].name, q.col, q.lo, q.hi, got, h)
	}
	for _, p := range q.proj {
		name := server.ColumnName(p)
		vals := cols[name]
		if len(vals) != len(rows) {
			return fmt.Errorf("%s: %d projected values for %d rows", name, len(vals), len(rows))
		}
		for i, id := range rows {
			if want, ok := o.value(q.table, p, id); !ok || vals[i] != want {
				return fmt.Errorf("%s of row %d: got %d, want %d", name, id, vals[i], want)
			}
		}
	}
	return nil
}
