package alt

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/landmark"
)

// guardLandmarks is the landmark count of the serving guard.
const guardLandmarks = 16

// BenchmarkBounds times one Bounds call on grids of 3.6k and 300k
// vertices with 16 landmarks, next to the landmark-major scalar loop
// (the reference of TestKernelMatchesLandmarkMajorReference) on the
// same labels and pairs.
func BenchmarkBounds(b *testing.B) {
	for _, side := range []int{60, 548} {
		g, err := gen.Grid(side, side, gen.DefaultConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		lms, err := landmark.Farthest(g, guardLandmarks, 3)
		if err != nil {
			b.Fatal(err)
		}
		idx, err := BuildWithLandmarks(g, lms)
		if err != nil {
			b.Fatal(err)
		}
		ref := refBuild(g, lms)
		rng := rand.New(rand.NewSource(4))
		pairs := make([][2]int32, 1<<12)
		for i := range pairs {
			pairs[i] = [2]int32{rng.Int31n(int32(g.NumVertices())), rng.Int31n(int32(g.NumVertices()))}
		}
		var sink float64
		b.Run(fmt.Sprintf("n=%d/vertex-major", g.NumVertices()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i&(len(pairs)-1)]
				lo, hi := idx.Bounds(p[0], p[1])
				sink += lo + hi
			}
		})
		b.Run(fmt.Sprintf("n=%d/landmark-major", g.NumVertices()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i&(len(pairs)-1)]
				lo, hi := ref.bounds(p[0], p[1])
				sink += lo + hi
			}
		})
		_ = sink
	}
}
