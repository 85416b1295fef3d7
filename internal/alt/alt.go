// Package alt implements the ALT machinery of Goldberg & Harrelson: a
// landmark set U with a precomputed |U| x |V| distance label matrix,
// stored vertex-major so one vertex's |U| labels are contiguous.
// Two query modes are provided:
//
//   - LT estimation (the paper's "LT" comparator): combine the
//     triangle-inequality lower bound max_u |d(u,s)-d(u,t)| and the
//     upper bound min_u d(u,s)+d(u,t) into an O(|U|) distance estimate
//     with no graph search.
//   - ALT A* search: exact point-to-point search guided by the landmark
//     lower bound.
package alt

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/sssp"
)

// Index holds the landmark label matrix.
type Index struct {
	g *graph.Graph
	// labels is vertex-major: labels[v*|U|+u] = d(U[u], v), so a pair
	// query reads two contiguous |U|-float rows.
	labels    []float64
	landmarks []int32
	n         int
}

// Build selects count landmarks by farthest selection and runs one
// Dijkstra per landmark to fill the label matrix.
func Build(g *graph.Graph, count int, seed int64) (*Index, error) {
	if count < 1 {
		return nil, fmt.Errorf("alt: need at least one landmark, got %d", count)
	}
	lms, err := landmark.Farthest(g, count, seed)
	if err != nil {
		return nil, err
	}
	return BuildWithLandmarks(g, lms)
}

// BuildWithLandmarks builds the label matrix for a caller-chosen
// landmark set.
func BuildWithLandmarks(g *graph.Graph, landmarks []int32) (*Index, error) {
	if len(landmarks) == 0 {
		return nil, fmt.Errorf("alt: empty landmark set")
	}
	n := g.NumVertices()
	idx := &Index{
		g:         g,
		labels:    make([]float64, len(landmarks)*n),
		landmarks: append([]int32(nil), landmarks...),
		n:         n,
	}
	ws := sssp.NewWorkspace(g)
	row := make([]float64, n)
	nU := len(landmarks)
	for i, u := range landmarks {
		ws.FromSource(u, row)
		for v, d := range row {
			idx.labels[v*nU+i] = d
		}
	}
	return idx, nil
}

// row returns vertex v's |U| labels.
func (idx *Index) row(v int32) []float64 {
	nU := len(idx.landmarks)
	return idx.labels[int(v)*nU : int(v)*nU+nU]
}

// NumLandmarks returns |U|.
func (idx *Index) NumLandmarks() int { return len(idx.landmarks) }

// Landmarks returns the landmark ids (aliasing internal storage).
func (idx *Index) Landmarks() []int32 { return idx.landmarks }

// IndexBytes reports the label matrix size in bytes (the Table IV
// metric for LT).
func (idx *Index) IndexBytes() int64 {
	return int64(len(idx.labels)) * 8
}

// Restrict returns a new index holding only the landmarks at the
// given positions (indices into Landmarks(), not vertex ids). The
// label matrix keeps its full |V| columns, so the restricted index
// still bounds every vertex pair — any landmark subset yields valid,
// merely looser, triangle-inequality bounds. This is how a shard
// carries a region-sized guard that stays correct for cross-region
// pairs.
func (idx *Index) Restrict(keep []int) (*Index, error) {
	if len(keep) == 0 {
		return nil, fmt.Errorf("alt: restricting to an empty landmark set")
	}
	out := &Index{
		g:         idx.g,
		labels:    make([]float64, len(keep)*idx.n),
		landmarks: make([]int32, len(keep)),
		n:         idx.n,
	}
	for j, i := range keep {
		if i < 0 || i >= len(idx.landmarks) {
			return nil, fmt.Errorf("alt: landmark position %d out of range [0,%d)", i, len(idx.landmarks))
		}
		out.landmarks[j] = idx.landmarks[i]
	}
	for v := int32(0); int(v) < idx.n; v++ {
		src, dst := idx.row(v), out.row(v)
		for j, i := range keep {
			dst[j] = src[i]
		}
	}
	return out, nil
}

// Bounds returns the landmark lower and upper bounds on d(s,t).
func (idx *Index) Bounds(s, t int32) (lo, hi float64) {
	lo, hi = bounds(idx.row(s), idx.row(t))
	// When a landmark lies on the s-t shortest path lo equals hi
	// mathematically; floating-point rounding can leave lo one ulp
	// above. Keep the interval well-formed.
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// infBits is the bit pattern of sssp.Inf, the label of a vertex a
// landmark cannot reach.
var infBits = math.Float64bits(sssp.Inf)

// gapBits returns the bits of the lower bound |ds-dt| one landmark
// gives, or of +0 when the landmark cannot reach an endpoint. That test
// is true only on disconnected graphs, so it predicts well.
func gapBits(ds, dt float64) uint64 {
	if ds == sssp.Inf || dt == sssp.Inf {
		return 0
	}
	return math.Float64bits(math.Abs(ds - dt))
}

// bounds reduces the label rows of s and t to the widest lower bound
// and the tightest upper bound, in four independent accumulator pairs
// combined at the end. A landmark that cannot reach an endpoint gives
// gap +0 and a sum of at least sssp.Inf, so it moves neither bound.
//
// Labels lie in [0, sssp.Inf] (Read rejects anything else), and over
// non-negative floats the IEEE 754 bit patterns order exactly like the
// values. So the reduction takes the built-in integer max and min of
// the bits, which compile to conditional moves rather than
// data-dependent branches, and stays exact and independent of landmark
// order.
func bounds(rs, rt []float64) (lo, hi float64) {
	rt = rt[:len(rs)]
	var lo0, lo1, lo2, lo3 uint64
	hi0, hi1, hi2, hi3 := infBits, infBits, infBits, infBits
	i := 0
	for ; i+4 <= len(rs); i += 4 {
		lo0 = max(lo0, gapBits(rs[i], rt[i]))
		lo1 = max(lo1, gapBits(rs[i+1], rt[i+1]))
		lo2 = max(lo2, gapBits(rs[i+2], rt[i+2]))
		lo3 = max(lo3, gapBits(rs[i+3], rt[i+3]))
		hi0 = min(hi0, math.Float64bits(rs[i]+rt[i]))
		hi1 = min(hi1, math.Float64bits(rs[i+1]+rt[i+1]))
		hi2 = min(hi2, math.Float64bits(rs[i+2]+rt[i+2]))
		hi3 = min(hi3, math.Float64bits(rs[i+3]+rt[i+3]))
	}
	for ; i < len(rs); i++ {
		lo0 = max(lo0, gapBits(rs[i], rt[i]))
		hi0 = min(hi0, math.Float64bits(rs[i]+rt[i]))
	}
	return math.Float64frombits(max(max(lo0, lo1), max(lo2, lo3))),
		math.Float64frombits(min(min(hi0, hi1), min(hi2, hi3)))
}

// BoundsInfo is the provenance of one landmark interval: the bounds
// plus the landmark vertex that produced each (the tightest of the
// |U| candidates). Landmark fields are -1 when no landmark had finite
// labels for both endpoints (disconnected components).
type BoundsInfo struct {
	Lo, Hi                 float64
	LoLandmark, HiLandmark int32
}

// BoundsDetail returns the landmark bounds on d(s,t) together with the
// landmark responsible for each side of the interval, for query
// explainability. The interval matches Bounds exactly.
func (idx *Index) BoundsDetail(s, t int32) BoundsInfo {
	info := BoundsInfo{Hi: sssp.Inf, LoLandmark: -1, HiLandmark: -1}
	rs, rt := idx.row(s), idx.row(t)
	for i, ds := range rs {
		dt := rt[i]
		if ds == sssp.Inf || dt == sssp.Inf {
			continue
		}
		diff := ds - dt
		if diff < 0 {
			diff = -diff
		}
		if diff > info.Lo || info.LoLandmark < 0 {
			info.Lo, info.LoLandmark = diff, idx.landmarks[i]
		}
		if sum := ds + dt; sum < info.Hi {
			info.Hi, info.HiLandmark = sum, idx.landmarks[i]
		}
	}
	if info.Lo > info.Hi {
		info.Lo = info.Hi
	}
	return info
}

// Estimate returns the LT distance estimate: the midpoint of the
// landmark lower and upper bounds. The true distance always lies within
// [lo, hi], so the midpoint's error is at most (hi-lo)/2.
func (idx *Index) Estimate(s, t int32) float64 {
	if s == t {
		return 0
	}
	lo, hi := idx.Bounds(s, t)
	if hi == sssp.Inf {
		return lo
	}
	return (lo + hi) / 2
}

// LowerBound returns the admissible A* heuristic to target t at vertex v.
func (idx *Index) LowerBound(v, t int32) float64 {
	lo, _ := bounds(idx.row(v), idx.row(t))
	return lo
}

// SearchDistance runs the exact ALT A* search from s to t using the
// landmark heuristic, returning the distance and the number of settled
// vertices.
func (idx *Index) SearchDistance(ws *sssp.Workspace, s, t int32) (float64, int) {
	return ws.AStarDistance(s, t, func(v int32) float64 { return idx.LowerBound(v, t) })
}
