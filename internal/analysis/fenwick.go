package analysis

// Fenwick is a binary indexed tree of int32 counts over positions [0, n):
// point updates and prefix sums in O(log n). It is the stack-distance
// counter shared by the offline Mattson passes and the live per-shard
// sampler of internal/mrclive: positions are last-access slots, an entry
// is 1 while its slot holds a page's most recent access, and the reuse
// distance of an access is the number of live slots after the previous
// one. Counts are int32 (half the cache footprint of int), which bounds a
// tree to fewer than 2^31 positions.
type Fenwick struct {
	tree []int32 // 1-based; tree[0] is unused
}

// NewFenwick returns a tree of n zero counts.
func NewFenwick(n int) Fenwick { return Fenwick{tree: make([]int32, n+1)} }

// Add adds delta to position i.
func (f *Fenwick) Add(i int, delta int32) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// Prefix sums positions [0, i].
func (f *Fenwick) Prefix(i int) int {
	s := int32(0)
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return int(s)
}

// Refill resizes the tree to n positions with positions [0, ones) set to
// 1 and the rest 0, in O(n) and reusing the backing array when it is large
// enough — the state a stack compaction leaves behind (every live slot
// packed at the front), without n log n point updates. Node i covers
// positions (i-lowbit(i), i] (1-based), so it holds the overlap of that
// range with [1, ones].
func (f *Fenwick) Refill(n, ones int) {
	if cap(f.tree) < n+1 {
		f.tree = make([]int32, n+1)
	}
	f.tree = f.tree[:n+1]
	f.tree[0] = 0
	for i := 1; i <= n; i++ {
		lo := i - i&(-i) // exclusive lower bound of the covered range
		c := min(i, ones) - lo
		if c < 0 {
			c = 0
		}
		f.tree[i] = int32(c)
	}
}
