package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/server"
)

// answer is one read's decoded result.
type answer struct {
	count int
	rows  column.IDList
	cols  map[string][]column.Value
}

// runner executes ops against one layer of the stack: the daemons over
// the wire, or an in-process rung of the traced ladder.
type runner interface {
	read(q op) (answer, error)
	// write returns the ids given to inserted rows, the number of rows
	// deleted and the pending-update depth after the write.
	write(q op) (ids []column.RowID, deleted, pending int, err error)
}

// clientRunner speaks the v1 wire API through api.Client.
type clientRunner struct {
	c      *api.Client
	tables []tableDef
}

func (r clientRunner) read(q op) (answer, error) {
	req := api.QueryRequest{Op: "count", Table: r.tables[q.table].name, Column: server.ColumnName(q.col), Low: &q.lo, High: &q.hi}
	if q.kind == opSelect {
		req.Op = "select"
		for _, p := range q.proj {
			req.Project = append(req.Project, server.ColumnName(p))
		}
	}
	res, err := r.c.Query(context.Background(), req)
	if err != nil {
		return answer{}, err
	}
	if res.Partial {
		return answer{}, fmt.Errorf("partial answer, missing nodes %v", res.MissingNodes)
	}
	return answer{count: res.Count, rows: res.Rows, cols: res.Columns}, nil
}

func (r clientRunner) write(q op) ([]column.RowID, int, int, error) {
	var req api.UpdateRequest
	var err error
	if q.kind == opInsert {
		req, err = api.InsertOp(r.tables[q.table].name, q.rows)
	} else {
		req, err = api.DeleteOp(r.tables[q.table].name, q.ids)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	ur, err := r.c.Update(context.Background(), req)
	return ur.Inserted, ur.Deleted, ur.PendingInserts + ur.PendingDeletes, err
}

// errWrong marks an answer the oracle refused.
var errWrong = errors.New("wrong answer")

// tally is one session's record of a phase.
type tally struct {
	attempted, failed, wrong int
	readMs, writeMs          []float64
	pendingPeak              int
	firstErr                 error
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.readMs = append(t.readMs, o.readMs...)
	t.writeMs = append(t.writeMs, o.writeMs...)
	t.pendingPeak = max(t.pendingPeak, o.pendingPeak)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// execute runs one op, timing only the request, then checks the answer
// against the session's oracle and records the outcome.
func execute(r runner, or *oracle, q op, t *tally) (time.Duration, error) {
	t.attempted++
	var err error
	var dur time.Duration
	if q.kind.isRead() {
		t0 := time.Now()
		var a answer
		a, err = r.read(q)
		dur = time.Since(t0)
		if err == nil {
			if cerr := or.check(q, a.count, a.rows, a.cols); cerr != nil {
				err = fmt.Errorf("%w: %v", errWrong, cerr)
			} else {
				t.readMs = append(t.readMs, ms(dur))
			}
		}
	} else {
		t0 := time.Now()
		ids, deleted, pending, werr := r.write(q)
		dur = time.Since(t0)
		err = werr
		if err == nil {
			t.pendingPeak = max(t.pendingPeak, pending)
			if q.kind == opInsert {
				if aerr := or.applyInsert(q.table, ids, q.rows); aerr != nil {
					err = fmt.Errorf("%w: %v", errWrong, aerr)
				}
			} else if deleted != len(q.ids) {
				err = fmt.Errorf("%w: deleted %d of %d rows", errWrong, deleted, len(q.ids))
			} else {
				or.applyDelete(q.table, q.ids)
			}
			if err == nil {
				t.writeMs = append(t.writeMs, ms(dur))
			}
		}
	}
	if err != nil {
		if errors.Is(err, errWrong) {
			t.wrong++
		} else {
			t.failed++
		}
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
	return dur, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// drive runs one closed-loop phase: every session executes the ops its
// source yields, each waiting for its answer before the next, until
// the source is exhausted. It returns the merged tally and the phase's
// wall time.
func drive(rs []runner, ors []*oracle, src func(s int) (op, bool)) (*tally, time.Duration) {
	tallies := make([]*tally, len(rs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := range rs {
		tallies[s] = &tally{}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				q, ok := src(s)
				if !ok {
					return
				}
				execute(rs[s], ors[s], q, tallies[s])
			}
		}(s)
	}
	wg.Wait()
	wall := time.Since(t0)
	total := &tally{}
	for _, t := range tallies {
		total.add(t)
	}
	return total, wall
}

// listSource yields each session's fixed op list once.
func listSource(lists [][]op) func(int) (op, bool) {
	pos := make([]int, len(lists))
	return func(s int) (op, bool) {
		if pos[s] == len(lists[s]) {
			return op{}, false
		}
		pos[s]++
		return lists[s][pos[s]-1], true
	}
}

// quantile is the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
