package alt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/fsx"
	"repro/internal/sssp"
)

// ALT index persistence. The on-disk format mirrors the model and
// checkpoint files: a magic string, the little-endian payload length,
// the payload ({n, |U|} header, landmark ids, label matrix), and a
// CRC32-IEEE trailer over the payload. Files are written atomically, so
// a crashed save never leaves a truncated index behind, and every load
// verifies length and checksum before any data is trusted.
//
// The file stores the label matrix landmark-major, |U| rows of |V|
// labels; memory holds it vertex-major (see Index). WriteTo gathers one
// landmark row at a time and Read transposes the section once it has
// arrived, so the bytes on disk are the same in either layout.
//
// A loaded Index carries no graph: Bounds, Estimate and LowerBound are
// pure label-matrix lookups and keep working, which is exactly what the
// server guard mode needs. Graph-dependent queries (SearchDistance)
// require an index built in-process via Build/BuildWithLandmarks.

const altMagic = "RNEALT1\n"

// maxLandmarks bounds |U| when loading, rejecting absurd headers before
// any allocation. Practical ALT landmark sets are tens of vertices.
const maxLandmarks = 1 << 16

// transposeBlock is how many vertices' labels Read fills at a time
// when it transposes the landmark-major section: 256 vertices of 16
// landmarks are 32 KiB.
const transposeBlock = 256

// WriteTo streams the index in the RNEALT1 format.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	nU := int64(len(idx.landmarks))
	plen := 2*8 + nU*4 + int64(len(idx.labels))*8
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(altMagic); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, plen); err != nil {
		return 0, err
	}
	cw := fsx.NewCRCWriter(bw)
	for _, v := range []int64{int64(idx.n), nU} {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return 0, err
		}
	}
	if err := binary.Write(cw, binary.LittleEndian, idx.landmarks); err != nil {
		return 0, err
	}
	row := make([]byte, 8*idx.n)
	for u := range idx.landmarks {
		for v := range idx.n {
			binary.LittleEndian.PutUint64(row[8*v:], math.Float64bits(idx.labels[v*int(nU)+u]))
		}
		if _, err := cw.Write(row); err != nil {
			return 0, err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, cw.Sum32()); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return int64(len(altMagic)) + 8 + plen + 4, nil
}

// SaveFile atomically writes the index to path.
func (idx *Index) SaveFile(path string) error {
	return fsx.WriteAtomic(path, func(w io.Writer) error {
		_, err := idx.WriteTo(w)
		return err
	})
}

// Read loads an index written by WriteTo. The returned Index has no
// graph attached: estimation queries (Bounds, Estimate, LowerBound)
// work; SearchDistance does not.
func Read(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(altMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("alt: reading index magic: %w", err)
	}
	if string(magic) != altMagic {
		return nil, fmt.Errorf("alt: bad index magic %q", magic)
	}
	var plen int64
	if err := binary.Read(br, binary.LittleEndian, &plen); err != nil {
		return nil, fmt.Errorf("alt: reading index payload length: %w", err)
	}
	cr := fsx.NewCRCReader(io.LimitReader(br, plen))
	var n, nU int64
	for _, p := range []*int64{&n, &nU} {
		if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("alt: reading index header: %w", err)
		}
	}
	if n < 1 || n > math.MaxInt32 || nU < 1 || nU > maxLandmarks {
		return nil, fmt.Errorf("alt: implausible index header: %d vertices, %d landmarks", n, nU)
	}
	if want := 2*8 + nU*4 + nU*n*8; plen != want {
		return nil, fmt.Errorf("alt: index payload is %d bytes, want %d for %d x %d labels", plen, want, nU, n)
	}
	landmarks, err := fsx.ReadSlice[int32](cr, int(nU))
	if err != nil {
		return nil, fmt.Errorf("alt: reading landmark ids: %w", err)
	}
	// The section is landmark-major. The first landmark row grows as its
	// bytes arrive; once it is whole, a row of the same size costs no
	// more than the bytes already read, so later rows are read in place.
	rows := make([][]float64, nU)
	if rows[0], err = fsx.ReadSlice[float64](cr, int(n)); err != nil {
		return nil, fmt.Errorf("alt: reading label matrix: %w", err)
	}
	for u := 1; u < len(rows); u++ {
		rows[u] = make([]float64, n)
		if err := fsx.ReadInto(cr, rows[u]); err != nil {
			return nil, fmt.Errorf("alt: reading label matrix: %w", err)
		}
	}
	var wantCRC uint32
	if err := binary.Read(br, binary.LittleEndian, &wantCRC); err != nil {
		return nil, fmt.Errorf("alt: reading index checksum trailer: %w", err)
	}
	if err := fsx.VerifyTrailer(cr, plen, wantCRC, "alt: index"); err != nil {
		return nil, err
	}
	for _, u := range landmarks {
		if u < 0 || int64(u) >= n {
			return nil, fmt.Errorf("alt: landmark id %d out of range [0,%d)", u, n)
		}
	}
	// A label is a distance in [0, sssp.Inf]: NaN, negative, -0 and
	// +Inf labels are rejected, which keeps the bounds kernel's max and
	// min exact and independent of landmark order.
	for u, row := range rows {
		for v, d := range row {
			if !(d >= 0 && d <= sssp.Inf) || math.Signbit(d) {
				return nil, fmt.Errorf("alt: invalid label %v at offset %d", d, u*int(n)+v)
			}
		}
	}
	// Transpose a block of vertices at a time, so the block stays in
	// cache while every landmark row writes into it.
	idx := &Index{labels: make([]float64, nU*n), landmarks: landmarks, n: int(n)}
	for v0 := 0; v0 < idx.n; v0 += transposeBlock {
		v1 := min(v0+transposeBlock, idx.n)
		for u, row := range rows {
			for v := v0; v < v1; v++ {
				idx.labels[v*len(rows)+u] = row[v]
			}
		}
	}
	return idx, nil
}

// LoadFile loads an index from a file written by SaveFile.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	idx, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("alt: loading index %s: %w", path, err)
	}
	return idx, nil
}

// NumVertices returns the vertex count of the graph the index was built
// over.
func (idx *Index) NumVertices() int { return idx.n }
