package alt

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/fsx"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/sssp"
)

var updateFixture = flag.Bool("update-fixture", false,
	"rewrite testdata/two_grids.rnealt from the current writer")

const fixturePath = "testdata/two_grids.rnealt"

// twoGrids returns two disjoint copies of a rows x cols grid in one
// graph, so every landmark leaves half the vertices unreachable and
// their labels at sssp.Inf.
func twoGrids(tb testing.TB, rows, cols int) *graph.Graph {
	tb.Helper()
	g, err := gen.Grid(rows, cols, gen.DefaultConfig(3))
	if err != nil {
		tb.Fatal(err)
	}
	n := g.NumVertices()
	b := graph.NewBuilder(2*n, 2*g.NumEdges())
	for c := 0; c < 2; c++ {
		for v := int32(0); int(v) < n; v++ {
			b.AddVertex(g.X(v)+float64(c)*1e6, g.Y(v))
		}
	}
	for c := int32(0); c < 2; c++ {
		off := c * int32(n)
		for v := int32(0); int(v) < n; v++ {
			nbrs, ws := g.Neighbors(v)
			for i, u := range nbrs {
				if u > v {
					if err := b.AddEdge(v+off, u+off, ws[i]); err != nil {
						tb.Fatal(err)
					}
				}
			}
		}
	}
	return b.Build()
}

// TestRNEALT1BytesFrozen pins the on-disk format: the index of a fixed
// two-component graph must serialise to the frozen file byte for byte.
func TestRNEALT1BytesFrozen(t *testing.T) {
	idx, err := Build(twoGrids(t, 6, 6), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateFixture {
		if err := os.WriteFile(fixturePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("RNEALT1 bytes differ from %s (%d vs %d bytes)", fixturePath, buf.Len(), len(want))
	}
	loaded, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("re-saving the loaded fixture changed its bytes")
	}
}

// refIndex is the landmark-major label matrix and the scalar loops the
// package served before its labels went vertex-major, kept as the
// reference the branch-free kernel must match bit for bit.
type refIndex struct {
	labels    []float64 // labels[u*n+v] = d(U[u], v)
	landmarks []int32
	n         int
}

func refBuild(g *graph.Graph, landmarks []int32) *refIndex {
	n := g.NumVertices()
	ref := &refIndex{labels: make([]float64, len(landmarks)*n), landmarks: landmarks, n: n}
	ws := sssp.NewWorkspace(g)
	for i, u := range landmarks {
		ws.FromSource(u, ref.labels[i*n:(i+1)*n])
	}
	return ref
}

func (r *refIndex) restrict(keep []int) *refIndex {
	out := &refIndex{labels: make([]float64, len(keep)*r.n), landmarks: make([]int32, len(keep)), n: r.n}
	for j, i := range keep {
		out.landmarks[j] = r.landmarks[i]
		copy(out.labels[j*r.n:(j+1)*r.n], r.labels[i*r.n:(i+1)*r.n])
	}
	return out
}

func (r *refIndex) bounds(s, t int32) (lo, hi float64) {
	hi = sssp.Inf
	for i := 0; i < len(r.landmarks); i++ {
		ds := r.labels[i*r.n+int(s)]
		dt := r.labels[i*r.n+int(t)]
		if ds == sssp.Inf || dt == sssp.Inf {
			continue
		}
		diff := ds - dt
		if diff < 0 {
			diff = -diff
		}
		if diff > lo {
			lo = diff
		}
		if sum := ds + dt; sum < hi {
			hi = sum
		}
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

func (r *refIndex) boundsDetail(s, t int32) BoundsInfo {
	info := BoundsInfo{Hi: sssp.Inf, LoLandmark: -1, HiLandmark: -1}
	for i := 0; i < len(r.landmarks); i++ {
		ds := r.labels[i*r.n+int(s)]
		dt := r.labels[i*r.n+int(t)]
		if ds == sssp.Inf || dt == sssp.Inf {
			continue
		}
		diff := ds - dt
		if diff < 0 {
			diff = -diff
		}
		if diff > info.Lo || info.LoLandmark < 0 {
			info.Lo, info.LoLandmark = diff, r.landmarks[i]
		}
		if sum := ds + dt; sum < info.Hi {
			info.Hi, info.HiLandmark = sum, r.landmarks[i]
		}
	}
	if info.Lo > info.Hi {
		info.Lo = info.Hi
	}
	return info
}

func (r *refIndex) lowerBound(v, t int32) float64 {
	var lo float64
	for i := 0; i < len(r.landmarks); i++ {
		dv := r.labels[i*r.n+int(v)]
		dt := r.labels[i*r.n+int(t)]
		if dv == sssp.Inf || dt == sssp.Inf {
			continue
		}
		diff := dv - dt
		if diff < 0 {
			diff = -diff
		}
		if diff > lo {
			lo = diff
		}
	}
	return lo
}

// writeTo is the RNEALT1 writer over the landmark-major matrix.
func (r *refIndex) writeTo(w io.Writer) error {
	nU := int64(len(r.landmarks))
	plen := 2*8 + nU*4 + int64(len(r.labels))*8
	cw := fsx.NewCRCWriter(w)
	for _, err := range []error{
		binary.Write(w, binary.LittleEndian, []byte(altMagic)),
		binary.Write(w, binary.LittleEndian, plen),
		binary.Write(cw, binary.LittleEndian, []int64{int64(r.n), nU}),
		binary.Write(cw, binary.LittleEndian, r.landmarks),
		binary.Write(cw, binary.LittleEndian, r.labels),
		binary.Write(w, binary.LittleEndian, cw.Sum32()),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// diffAgainstRef requires every pair's Bounds, LowerBound and
// BoundsDetail, and the serialised file, to match the reference bit for
// bit.
func diffAgainstRef(t *testing.T, name string, idx *Index, ref *refIndex) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	n := int32(idx.NumVertices())
	for s := int32(0); s < n; s++ {
		for u := int32(0); u < n; u++ {
			lo, hi := idx.Bounds(s, u)
			wlo, whi := ref.bounds(s, u)
			if !same(lo, wlo) || !same(hi, whi) {
				t.Fatalf("%s: Bounds(%d,%d) = [%v,%v], reference [%v,%v]", name, s, u, lo, hi, wlo, whi)
			}
			if got, want := idx.LowerBound(s, u), ref.lowerBound(s, u); !same(got, want) {
				t.Fatalf("%s: LowerBound(%d,%d) = %v, reference %v", name, s, u, got, want)
			}
			got, want := idx.BoundsDetail(s, u), ref.boundsDetail(s, u)
			if !same(got.Lo, want.Lo) || !same(got.Hi, want.Hi) ||
				got.LoLandmark != want.LoLandmark || got.HiLandmark != want.HiLandmark {
				t.Fatalf("%s: BoundsDetail(%d,%d) = %+v, reference %+v", name, s, u, got, want)
			}
		}
	}
	var gotFile, wantFile bytes.Buffer
	if _, err := idx.WriteTo(&gotFile); err != nil {
		t.Fatal(err)
	}
	if err := ref.writeTo(&wantFile); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFile.Bytes(), wantFile.Bytes()) {
		t.Fatalf("%s: RNEALT1 bytes differ from the landmark-major writer", name)
	}
	loaded, err := Read(&gotFile)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(loaded.labels, idx.labels) || !slices.Equal(loaded.landmarks, idx.landmarks) {
		t.Fatalf("%s: reloaded index differs from the saved one", name)
	}
}

// TestKernelMatchesLandmarkMajorReference pins the vertex-major,
// branch-free kernel to the landmark-major scalar loops on a grid and
// on a two-component graph (where half of every landmark's labels are
// sssp.Inf), for several landmark counts around the four-way unroll
// and for Restricted subsets.
func TestKernelMatchesLandmarkMajorReference(t *testing.T) {
	graphs := map[string]*graph.Graph{"grid": testGraph(t), "two-grids": twoGrids(t, 6, 6)}
	for gname, g := range graphs {
		for _, count := range []int{1, 3, 5, 16, 17} {
			lms, err := landmark.Farthest(g, count, 2)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := BuildWithLandmarks(g, lms)
			if err != nil {
				t.Fatal(err)
			}
			ref := refBuild(g, lms)
			name := fmt.Sprintf("%s/U=%d", gname, count)
			diffAgainstRef(t, name, idx, ref)
			for _, keep := range [][]int{{count - 1}, {count - 1, 0}, evenPositions(count)} {
				sub, err := idx.Restrict(keep)
				if err != nil {
					t.Fatal(err)
				}
				diffAgainstRef(t, fmt.Sprintf("%s/keep=%v", name, keep), sub, ref.restrict(keep))
			}
		}
	}
}

func evenPositions(count int) []int {
	var keep []int
	for i := 0; i < count; i += 2 {
		keep = append(keep, i)
	}
	return keep
}
