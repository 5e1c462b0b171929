// Package crackeridx implements the cracker index: a balanced binary
// search tree that records the piece boundaries a cracked column has
// accumulated so far.
//
// Database cracking physically reorganises a copy of the column (the
// cracker column) while answering range selections. Every reorganisation
// step introduces a boundary: a position p and a pivot value v such that
// all values stored before p are smaller than (or at most, for inclusive
// boundaries) v, and all values at or after p are at least (or greater
// than) v. The cracker index stores these boundaries so that future
// queries can narrow their work to the one or two pieces that still
// contain unsorted data for their predicate. The original prototype in
// MonetDB uses an AVL tree; this package does the same.
package crackeridx

import (
	"fmt"
	"sort"

	"adaptiveindex/internal/column"
)

// Bound identifies a boundary pivot. Inclusive distinguishes the
// boundary "values <= Value are to the left" (true) from
// "values < Value are to the left" (false). For the same Value the
// exclusive boundary orders before the inclusive one, because the
// position of the "< v" split can never exceed the position of the
// "<= v" split.
type Bound struct {
	Value     column.Value
	Inclusive bool
}

// Compare orders bounds as described above: by value, then exclusive
// before inclusive. It returns -1, 0 or +1.
func (b Bound) Compare(other Bound) int {
	switch {
	case b.Value < other.Value:
		return -1
	case b.Value > other.Value:
		return 1
	case b.Inclusive == other.Inclusive:
		return 0
	case !b.Inclusive:
		return -1
	default:
		return 1
	}
}

// String renders the bound as "<v" or "<=v".
func (b Bound) String() string {
	if b.Inclusive {
		return fmt.Sprintf("<=%d", b.Value)
	}
	return fmt.Sprintf("<%d", b.Value)
}

// Boundary is a bound together with the array position it splits the
// cracker column at.
type Boundary struct {
	Bound
	Pos int
}

// Piece describes a maximal contiguous region of the cracker column
// whose internal order is still unknown. Lower/Upper carry the bounds
// established by the neighbouring boundaries; HasLower/HasUpper are
// false for the first and last piece respectively.
type Piece struct {
	Start, End         int
	Lower, Upper       Bound
	HasLower, HasUpper bool
}

type node struct {
	bound       Bound
	pos         int
	left, right *node
	height      int
}

// Index is the cracker index. The zero value is an empty index ready
// for use. Index is not safe for concurrent use.
type Index struct {
	root *node
	size int
	// ascents counts the boundaries whose position, in bound order, is
	// greater than the previous boundary's (the first one's is compared
	// with 0, where the column starts). Each ascent closes one non-empty
	// piece, so NumPieces needs only this tally and the last position.
	// Insert, Delete and ShiftPositionsFromBound adjust it from the
	// in-order neighbours; ShiftPositions and CollapseRange recount it
	// in the walk they already make.
	ascents int
}

// New returns an empty cracker index.
func New() *Index { return &Index{} }

// Len returns the number of boundaries recorded.
func (ix *Index) Len() int { return ix.size }

// Lookup returns the position recorded for the exact bound b.
func (ix *Index) Lookup(b Bound) (int, bool) {
	n := ix.root
	for n != nil {
		switch c := b.Compare(n.bound); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.pos, true
		}
	}
	return 0, false
}

// Insert records that bound b splits the column at position pos. If the
// bound already exists its position is overwritten.
func (ix *Index) Insert(b Bound, pos int) {
	pred, match, succ := ix.neighbours(b)
	if match != nil {
		ix.ascents -= gain(pred, match.pos, succ)
	}
	ix.ascents += gain(pred, pos, succ)
	ix.root = ix.insert(ix.root, b, pos)
}

func (ix *Index) insert(n *node, b Bound, pos int) *node {
	if n == nil {
		ix.size++
		return &node{bound: b, pos: pos, height: 1}
	}
	switch c := b.Compare(n.bound); {
	case c < 0:
		n.left = ix.insert(n.left, b, pos)
	case c > 0:
		n.right = ix.insert(n.right, b, pos)
	default:
		n.pos = pos
		return n
	}
	return rebalance(n)
}

// Delete removes the boundary for bound b if present and reports
// whether it was removed. It is used by update policies that merge
// pieces back together.
func (ix *Index) Delete(b Bound) bool {
	pred, match, succ := ix.neighbours(b)
	if match == nil {
		return false
	}
	ix.ascents -= gain(pred, match.pos, succ)
	ix.root, _ = ix.delete(ix.root, b)
	ix.size--
	return true
}

// neighbours finds the node holding bound b (match, nil if absent) and
// the nodes immediately before and after b in bound order (nil at
// either end).
func (ix *Index) neighbours(b Bound) (pred, match, succ *node) {
	n := ix.root
	for n != nil {
		switch c := b.Compare(n.bound); {
		case c < 0:
			succ = n
			n = n.left
		case c > 0:
			pred = n
			n = n.right
		default:
			if n.left != nil {
				pred = rightmost(n.left)
			}
			if n.right != nil {
				succ = leftmost(n.right)
			}
			return pred, n, succ
		}
	}
	return pred, nil, succ
}

// gain is the number of ascents a boundary at pos contributes when it
// sits between the in-order neighbours pred and succ: its own ascent
// over pred (or over 0 without one), plus its successor's ascent over
// it in place of the successor's ascent over pred.
func gain(pred *node, pos int, succ *node) int {
	prev := 0
	if pred != nil {
		prev = pred.pos
	}
	g := ascent(prev, pos)
	if succ != nil {
		g += ascent(pos, succ.pos) - ascent(prev, succ.pos)
	}
	return g
}

func ascent(prev, pos int) int {
	if pos > prev {
		return 1
	}
	return 0
}

func leftmost(n *node) *node {
	for n.left != nil {
		n = n.left
	}
	return n
}

func rightmost(n *node) *node {
	for n.right != nil {
		n = n.right
	}
	return n
}

func (ix *Index) delete(n *node, b Bound) (*node, bool) {
	if n == nil {
		return nil, false
	}
	var deleted bool
	switch c := b.Compare(n.bound); {
	case c < 0:
		n.left, deleted = ix.delete(n.left, b)
	case c > 0:
		n.right, deleted = ix.delete(n.right, b)
	default:
		deleted = true
		if n.left == nil {
			return n.right, true
		}
		if n.right == nil {
			return n.left, true
		}
		// Replace with in-order successor.
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.bound, n.pos = succ.bound, succ.pos
		n.right, _ = ix.delete(n.right, succ.bound)
	}
	if !deleted {
		return n, false
	}
	return rebalance(n), true
}

// PieceFor returns the contiguous region of the column (given its total
// length n) that must be inspected to establish bound b. If the bound is
// already recorded, exact is true and exactPos holds its position; the
// caller does not need to reorganise anything. Otherwise [start, end)
// delimits the piece that has to be cracked, and lower/upper describe
// the boundaries that enclose it (if any).
func (ix *Index) PieceFor(b Bound, n int) (piece Piece, exactPos int, exact bool) {
	piece = Piece{Start: 0, End: n}
	cur := ix.root
	for cur != nil {
		switch c := b.Compare(cur.bound); {
		case c == 0:
			return piece, cur.pos, true
		case c < 0:
			piece.End = cur.pos
			piece.Upper = cur.bound
			piece.HasUpper = true
			cur = cur.left
		default:
			piece.Start = cur.pos
			piece.Lower = cur.bound
			piece.HasLower = true
			cur = cur.right
		}
	}
	return piece, 0, false
}

// Boundaries returns all boundaries in increasing bound order.
func (ix *Index) Boundaries() []Boundary {
	out := make([]Boundary, 0, ix.size)
	var walk func(*node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, Boundary{Bound: n.bound, Pos: n.pos})
		walk(n.right)
	}
	walk(ix.root)
	return out
}

// Pieces returns the pieces the column of length n is currently divided
// into, in storage order. Zero-length pieces (two boundaries at the
// same position) are skipped.
func (ix *Index) Pieces(n int) []Piece {
	bs := ix.Boundaries()
	pieces := make([]Piece, 0, len(bs)+1)
	start := 0
	var lower Bound
	hasLower := false
	for _, b := range bs {
		if b.Pos > start {
			pieces = append(pieces, Piece{
				Start: start, End: b.Pos,
				Lower: lower, HasLower: hasLower,
				Upper: b.Bound, HasUpper: true,
			})
		}
		start = b.Pos
		lower = b.Bound
		hasLower = true
	}
	if start < n || len(pieces) == 0 {
		pieces = append(pieces, Piece{
			Start: start, End: n,
			Lower: lower, HasLower: hasLower,
		})
	}
	return pieces
}

// NumPieces returns len(ix.Pieces(n)) without building the list. The
// loop in Pieces emits one piece per ascent and a last piece when the
// final boundary lies before n (or nothing was emitted), so the count
// is the ascents tally plus one look at the rightmost position:
// O(log k), allocation-free.
func (ix *Index) NumPieces(n int) int {
	last := 0
	if ix.root != nil {
		last = rightmost(ix.root).pos
	}
	if last < n || ix.ascents == 0 {
		return ix.ascents + 1
	}
	return ix.ascents
}

// ShiftPositions adds delta to the position of every boundary whose
// position is greater than or equal to fromPos. Update policies use it
// when tuples are inserted into or removed from the middle of the
// cracker column.
func (ix *Index) ShiftPositions(fromPos, delta int) {
	prev, ascents := 0, 0
	var walk func(*node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		if n.pos >= fromPos {
			n.pos += delta
		}
		ascents += ascent(prev, n.pos)
		prev = n.pos
		walk(n.right)
	}
	walk(ix.root)
	ix.ascents = ascents
}

// ShiftPositionsFromBound adds delta to the position of every boundary
// whose bound orders at or after b. Ripple insertion uses it: when a
// tuple is placed at the end of its piece, only the boundaries the new
// value lies to the left of may move, even if other boundaries share
// the same array position (zero-length pieces).
//
// The boundaries that move form a suffix in bound order, so only the
// first of them can change the ascents tally, and the walk skips the
// left subtree of every node that orders before b.
func (ix *Index) ShiftPositionsFromBound(b Bound, delta int) {
	pred, first, succ := ix.neighbours(b)
	if first == nil {
		first = succ
	}
	if first == nil {
		return
	}
	prev := 0
	if pred != nil {
		prev = pred.pos
	}
	ix.ascents += ascent(prev, first.pos+delta) - ascent(prev, first.pos)
	for n := ix.root; n != nil; {
		if n.bound.Compare(b) < 0 {
			n = n.right
			continue
		}
		n.pos += delta
		shiftAll(n.right, delta)
		n = n.left
	}
}

// shiftAll adds delta to the position of every node in the subtree.
func shiftAll(n *node, delta int) {
	for ; n != nil; n = n.right {
		n.pos += delta
		shiftAll(n.left, delta)
	}
}

// CollapseRange records the physical removal of the tuples stored in
// positions [start, end): boundaries inside the removed region collapse
// onto start and boundaries beyond it shift left by the removed width.
// Hybrid adaptive indexes use it when they migrate a cracked piece out
// of an initial partition into the final partition.
func (ix *Index) CollapseRange(start, end int) {
	if end <= start {
		return
	}
	width := end - start
	prev, ascents := 0, 0
	var walk func(*node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		switch {
		case n.pos > end:
			n.pos -= width
		case n.pos > start:
			n.pos = start
		}
		ascents += ascent(prev, n.pos)
		prev = n.pos
		walk(n.right)
	}
	walk(ix.root)
	ix.ascents = ascents
}

// Clear removes all boundaries.
func (ix *Index) Clear() {
	ix.root = nil
	ix.size = 0
	ix.ascents = 0
}

// Validate checks the structural invariants of the index against a
// column of length n: binary-search-tree ordering of the bounds, AVL
// balance, and monotonically non-decreasing positions in bound order
// within [0, n], and a piece tally that matches a recount. It returns
// an error describing the first violation. Tests and the crackview tool
// use it.
func (ix *Index) Validate(n int) error {
	if err := validateNode(ix.root, nil, nil); err != nil {
		return err
	}
	bs := ix.Boundaries()
	prevPos, ascents := 0, 0
	for i, b := range bs {
		ascents += ascent(prevPos, b.Pos)
		if b.Pos < 0 || b.Pos > n {
			return fmt.Errorf("boundary %s has position %d outside [0,%d]", b.Bound, b.Pos, n)
		}
		if b.Pos < prevPos {
			return fmt.Errorf("boundary %s at position %d precedes previous boundary position %d", b.Bound, b.Pos, prevPos)
		}
		prevPos = b.Pos
		if i > 0 && bs[i-1].Bound.Compare(b.Bound) >= 0 {
			return fmt.Errorf("boundaries out of order: %s then %s", bs[i-1].Bound, b.Bound)
		}
	}
	if ascents != ix.ascents {
		return fmt.Errorf("stale piece tally: %d ascents recorded, %d counted", ix.ascents, ascents)
	}
	return nil
}

func validateNode(n *node, min, max *Bound) error {
	if n == nil {
		return nil
	}
	if min != nil && n.bound.Compare(*min) <= 0 {
		return fmt.Errorf("BST violation: %s not greater than %s", n.bound, *min)
	}
	if max != nil && n.bound.Compare(*max) >= 0 {
		return fmt.Errorf("BST violation: %s not less than %s", n.bound, *max)
	}
	lh, rh := height(n.left), height(n.right)
	if diff := lh - rh; diff < -1 || diff > 1 {
		return fmt.Errorf("AVL violation at %s: left height %d right height %d", n.bound, lh, rh)
	}
	if n.height != 1+maxInt(lh, rh) {
		return fmt.Errorf("stale height at %s", n.bound)
	}
	if err := validateNode(n.left, min, &n.bound); err != nil {
		return err
	}
	return validateNode(n.right, &n.bound, max)
}

// SortedPositions returns the boundary positions in bound order. It is
// a convenience for tests and tools.
func (ix *Index) SortedPositions() []int {
	bs := ix.Boundaries()
	out := make([]int, len(bs))
	for i, b := range bs {
		out[i] = b.Pos
	}
	if !sort.IntsAreSorted(out) {
		// Positions are expected to be sorted whenever the index is
		// consistent; keep the raw order so Validate can report it.
		return out
	}
	return out
}

func height(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func updateHeight(n *node) {
	n.height = 1 + maxInt(height(n.left), height(n.right))
}

func rotateRight(y *node) *node {
	x := y.left
	y.left = x.right
	x.right = y
	updateHeight(y)
	updateHeight(x)
	return x
}

func rotateLeft(x *node) *node {
	y := x.right
	x.right = y.left
	y.left = x
	updateHeight(x)
	updateHeight(y)
	return y
}

func rebalance(n *node) *node {
	updateHeight(n)
	balance := height(n.left) - height(n.right)
	switch {
	case balance > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case balance < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}
