// Package core implements the paper's contribution: the abstract grouping
// structures χ0..χ3 with local order-perturbation ("bubbling", §3.2.2), the
// buffered P-Tree routing engine *PTREE (§3.2.3), the inner optimization
// engine BUBBLE_CONSTRUCT (Fig. 9), and the outer local-neighborhood search
// MERLIN (Fig. 14).
//
// All positions are 0-based; the paper's 1-based pseudo-code is translated
// directly, with Fig. 9's line-10 typo corrected per DESIGN.md §5.
package core

import "fmt"

// Chi is a grouping structure (Fig. 6): a sub-group of the sink order with
// an optional one-slot "bubble" (hole) just inside its left and/or right
// border. When the sub-group is used inside a larger one, the sink occupying
// a hole is moved to the other side of the border ("Bubble Out", Fig. 5),
// realizing an adjacent swap — the atom of the order neighborhood.
type Chi int

const (
	// Chi0 has no bubbles: the sub-group is a contiguous run of the order.
	Chi0 Chi = iota
	// Chi1 has a bubble just inside the right border.
	Chi1
	// Chi2 has a bubble just inside the left border.
	Chi2
	// Chi3 has bubbles on both sides.
	Chi3
	// NumChi is the number of grouping structures.
	NumChi
)

// String names the structure as in the paper.
func (e Chi) String() string { return fmt.Sprintf("χ%d", int(e)) }

// HasRightBubble reports whether e reserves the hole at span position R-1.
func (e Chi) HasRightBubble() bool { return e == Chi1 || e == Chi3 }

// HasLeftBubble reports whether e reserves the hole one past the left edge.
func (e Chi) HasLeftBubble() bool { return e == Chi2 || e == Chi3 }

// Stretch is the STRETCH routine of Fig. 10: how many extra order positions
// the structure's span occupies beyond its nominal length L.
func Stretch(e Chi) int {
	switch e {
	case Chi0:
		return 0
	case Chi1, Chi2:
		return 1
	case Chi3:
		return 2
	}
	// An invalid Chi is a caller bug, not an input condition; contained by
	// the engine boundary (recoverToErr in ConstructCtx/MerlinCtx).
	panic(fmt.Sprintf("core: invalid grouping structure %d", int(e))) //lint:allow nopanic -- caller-bug invariant, contained by recoverToErr at the engine boundary
}

// SinkSet is the SINK_SET routine of Fig. 13, 0-based: the order positions a
// sub-group with rightmost position r, span length span = L + Stretch(e) and
// structure e actually contains. The span is [r-span+1, r]; a right bubble
// removes position r-1, a left bubble removes position (r-span+1)+1. The
// result is sorted ascending and has span − Stretch(e) elements.
//
// SinkSet panics if the span does not fit (r-span+1 < 0) or is too short to
// host the requested bubbles; callers iterate only over legal (r, span, e).
func SinkSet(r, span int, e Chi) []int {
	return appendSinkSet(make([]int, 0, span-Stretch(e)), r, span, e)
}

// appendSinkSet appends SinkSet(r, span, e) to dst and returns the extended
// slice, so the engine's sub-problem scan reuses its buffers.
func appendSinkSet(dst []int, r, span int, e Chi) []int {
	left := r - span + 1
	if left < 0 {
		// Invariant panic, contained by the engine boundary (robust.go).
		panic(fmt.Sprintf("core: SinkSet span [%d,%d] out of range", left, r)) //lint:allow nopanic -- caller-bug invariant, contained by recoverToErr at the engine boundary
	}
	if span < minSpan(e) {
		// Invariant panic, contained by the engine boundary (robust.go).
		panic(fmt.Sprintf("core: SinkSet span %d too short for %v", span, e)) //lint:allow nopanic -- caller-bug invariant, contained by recoverToErr at the engine boundary
	}
	for p := left; p <= r; p++ {
		if e.HasRightBubble() && p == r-1 {
			continue
		}
		if e.HasLeftBubble() && p == left+1 {
			continue
		}
		dst = append(dst, p)
	}
	return dst
}

// minSpan returns the smallest legal span for a structure. Single-bubble
// structures degenerate gracefully at span 2 (the hole coincides with a
// border element, leaving a single sink — the paper notes χ1 and χ2 coincide
// at L=2 and all structures coincide at L=1); χ3 needs span 4 for its two
// holes to be distinct.
func minSpan(e Chi) int {
	switch e {
	case Chi0:
		return 1
	case Chi1, Chi2:
		return 2
	case Chi3:
		return 4
	}
	return 1
}

// SpanFits reports whether a sub-group with structure e and nominal length l
// can be placed with rightmost position r inside an order of n positions.
func SpanFits(n, r, l int, e Chi) bool {
	span := l + Stretch(e)
	return r < n && r-span+1 >= 0 && span >= minSpan(e)
}
