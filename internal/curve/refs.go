package curve

import "fmt"

// refChunkBits sizes the chunks of a Refs table: 4096 records each.
const (
	refChunkBits = 12
	refChunk     = 1 << refChunkBits
)

// Refs is an owner's table of reconstruction records, the back-pointers
// BUBBLE_CONSTRUCT rebuilds the tree from (Fig. 9 line 22). A solution
// names its record by the int32 handle at its index in its curve's Refs, so
// curves hold no pointers and the collector never scans them.
//
// The table has two regions:
//
//   - Kept records have handles 0, 1, 2, … in the order they were kept.
//     They live in chunks of refChunk records, so growing the table never
//     copies or moves one.
//   - Provisional records are the ones a kernel ref callback writes (Add)
//     while one curve is being built. Their handles are negative and never
//     resolve. The region is reused: every Seal empties it.
//
// Seal keeps the records of a curve's surviving solutions and discards the
// rest, so an owner that seals each curve right after its Cap keeps only
// the records of Cap survivors. The rule that makes this sound is that a
// record references only kept handles: an owner builds one curve at a time
// and seals it before another curve's records read its solutions.
//
// The zero value is an empty table ready for use. A Refs is not safe for
// concurrent use.
type Refs[T any] struct {
	chunks [][]T // kept records; every chunk has capacity refChunk
	n      int32 // number of kept records
	prov   []T   // provisional records of the curve being built
}

// Len returns the number of kept records; their handles are 0 … Len()-1.
func (r *Refs[T]) Len() int { return int(r.n) }

// Keep stores rec in the kept region and returns its handle. Owners keep
// records that no Cap can drop, such as a leaf's, directly.
func (r *Refs[T]) Keep(rec T) int32 {
	c := int(r.n >> refChunkBits)
	if c == len(r.chunks) {
		r.chunks = append(r.chunks, make([]T, 0, refChunk))
	}
	r.chunks[c] = append(r.chunks[c], rec)
	h := r.n
	r.n++
	return h
}

// Add stores rec in the provisional region and returns its provisional
// handle, valid until the next Seal or Reset.
func (r *Refs[T]) Add(rec T) int32 {
	r.prov = append(r.prov, rec)
	return ^int32(len(r.prov) - 1)
}

// At returns the kept record of handle h. It panics on a provisional or
// out-of-range handle: either means a record referenced a curve that was
// never sealed, or a solution outlived its table.
func (r *Refs[T]) At(h int32) T {
	if h < 0 || h >= r.n {
		r.badHandle(h)
	}
	return r.chunks[h>>refChunkBits][h&(refChunk-1)]
}

func (r *Refs[T]) badHandle(h int32) {
	if h < 0 {
		panic(fmt.Sprintf("curve: ref handle %d is provisional: its curve was never sealed", h)) //lint:allow nopanic -- handle-discipline invariant (records reference only sealed handles); owners check a root handle's range before resolving it, and core resolves under recoverToErr
	}
	panic(fmt.Sprintf("curve: ref handle %d out of range (%d kept)", h, r.n)) //lint:allow nopanic -- handle-discipline invariant (records reference only sealed handles); owners check a root handle's range before resolving it, and core resolves under recoverToErr
}

// Seal moves the records of c's provisional solutions, in curve order, to
// the kept region and rewrites their handles in c.Refs, then empties the
// provisional region. Solutions that already hold kept handles are left
// alone. Call it right after the curve's Cap, before any other curve is
// built.
func (r *Refs[T]) Seal(c *Curve) {
	for i, h := range c.Refs {
		if h < 0 {
			c.Refs[i] = r.Keep(r.prov[^h])
		}
	}
	r.prov = r.prov[:0]
}

// Reset empties both regions, keeping the chunks for reuse. Every handle
// issued before is invalid afterwards.
func (r *Refs[T]) Reset() {
	for i := range r.chunks {
		r.chunks[i] = r.chunks[i][:0]
	}
	r.n = 0
	r.prov = r.prov[:0]
}
