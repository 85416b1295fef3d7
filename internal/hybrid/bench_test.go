package hybrid

import (
	"math/rand"
	"testing"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/gen"
)

// BenchmarkGuard times one guarded estimate (model estimate, landmark
// bounds and clamp) on a 3.6k-vertex grid with a dim-64 model and the
// 16-landmark serving guard, next to the bare model estimate it wraps.
func BenchmarkGuard(b *testing.B) {
	g, err := gen.Grid(60, 60, gen.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions(2)
	opt.Dim = 64
	opt.Epochs = 1
	opt.VertexSampleRatio = 5
	opt.FineTuneRounds = 0
	opt.HierSampleCap = 20000
	opt.ValidationPairs = 100
	m, _, err := core.Build(g, opt)
	if err != nil {
		b.Fatal(err)
	}
	lt, err := alt.Build(g, 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(m, lt)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pairs := make([][2]int32, 1<<12)
	for i := range pairs {
		pairs[i] = [2]int32{rng.Int31n(int32(g.NumVertices())), rng.Int31n(int32(g.NumVertices()))}
	}
	var sink float64
	b.Run("guard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i&(len(pairs)-1)]
			sink += e.Guard(p[0], p[1]).Est
		}
	})
	b.Run("estimate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i&(len(pairs)-1)]
			sink += m.Estimate(p[0], p[1])
		}
	})
	_ = sink
}
