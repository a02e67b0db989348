package analysis

import (
	"math/rand"
	"testing"
)

// TestFenwickMatchesCounts checks Add/Prefix against a plain count array,
// and Refill against the tree the same state builds by point updates.
func TestFenwickMatchesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 64, 100, 257} {
		f := NewFenwick(n)
		counts := make([]int, n)
		for step := 0; step < 4*n; step++ {
			i := rng.Intn(n)
			d := int32(rng.Intn(3) - 1)
			f.Add(i, d)
			counts[i] += int(d)
			j := rng.Intn(n)
			want := 0
			for _, c := range counts[:j+1] {
				want += c
			}
			if got := f.Prefix(j); got != want {
				t.Fatalf("n=%d: Prefix(%d) = %d, want %d", n, j, got, want)
			}
		}
		for _, ones := range []int{0, 1, n / 3, n / 2, n} {
			for _, size := range []int{n, 2 * n} {
				built := NewFenwick(size)
				for i := 0; i < ones; i++ {
					built.Add(i, 1)
				}
				f.Refill(size, ones)
				if len(f.tree) != size+1 {
					t.Fatalf("Refill(%d, %d): %d positions", size, ones, len(f.tree)-1)
				}
				for i := 0; i < size; i++ {
					if got, want := f.Prefix(i), built.Prefix(i); got != want {
						t.Fatalf("Refill(%d, %d): Prefix(%d) = %d, point updates give %d", size, ones, i, got, want)
					}
				}
			}
		}
	}
}
