package tgen

import (
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
)

// TestZipfGuideTableMatchesBinarySearch pins the guide-table sampler to
// the binary-search inversion it replaced: both must map every draw to the
// same flow, so the emitted flow sequence (and every digest built on it)
// is unchanged. It checks over a million random draws plus every CDF
// value, every guide-bucket edge, and their float neighbours.
func TestZipfGuideTableMatchesBinarySearch(t *testing.T) {
	rng := sim.NewRNG(7)
	check := func(z *zipfTable, u float64) {
		t.Helper()
		if u < 0 || u >= 1 {
			return
		}
		if got, want := z.flow(u), sort.SearchFloat64s(z.cdf, u); got != want {
			t.Fatalf("n=%d u=%v: guide table gives flow %d, binary search %d", len(z.cdf), u, got, want)
		}
	}
	neighbours := func(z *zipfTable, u float64) {
		check(z, u)
		check(z, math.Nextafter(u, 0))
		check(z, math.Nextafter(u, 1))
	}
	draws := 0
	for _, c := range []struct {
		n int
		s float64
	}{
		// Skew 0 is uniform: its CDF values land exactly on guide-bucket
		// edges, the case a guide built with the wrong inequality misses.
		{2, 0}, {4, 0}, {10, 0},
		{2, 0.5}, {3, 1.1}, {64, 0.8}, {1000, 1.1}, {8192, 1.1}, {32768, 0.99}, {32768, 2},
	} {
		z := newZipfTable(c.n, c.s)
		for i := 0; i < 110_000; i++ {
			check(z, rng.Float64())
			draws++
		}
		for _, v := range z.cdf {
			neighbours(z, v)
		}
		for j := 0; j <= c.n; j++ {
			neighbours(z, float64(j)/float64(c.n))
		}
		check(z, 0)
		check(z, math.Nextafter(1, 0))
	}
	if draws < 1_000_000 {
		t.Fatalf("only %d random draws", draws)
	}
}
