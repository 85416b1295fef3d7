// Package fsx holds the small filesystem and integrity primitives
// shared by every persistence path in the repository: atomic file
// replacement (so a crash mid-save can never leave a truncated model
// or index at the target path) and counting CRC32 writers/readers
// (the building blocks of the versioned, integrity-checked on-disk
// formats in internal/core and internal/index).
package fsx

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultinject"
)

// FailpointWriteAtomic is the chaos-test hook armed to make WriteAtomic
// calls fail (simulating a full disk or lost mount) without touching
// the filesystem.
const FailpointWriteAtomic = "fsx/write-atomic"

// WriteAtomic writes a file by streaming through write into a
// temporary file in the destination directory, fsyncing it, and
// renaming it over path. Either the old content or the complete new
// content is visible at path; a crash mid-save leaves at most a stray
// *.tmp-* file, never a truncated target.
func WriteAtomic(path string, write func(w io.Writer) error) (err error) {
	if err := faultinject.Check(FailpointWriteAtomic); err != nil {
		return fmt.Errorf("fsx: writing %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	// CreateTemp opens 0600; restore the 0644 a plain os.Create would
	// have given (umask still applies to fresh files via Rename target).
	if err = tmp.Chmod(0o644); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself; best-effort (some filesystems reject
	// directory fsync).
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Rotate atomically moves path aside to path+".1", replacing any
// previous rotation, so an appender (e.g. the query log) can reopen a
// fresh file at path without ever presenting a truncated or
// half-renamed log to readers. A missing source file is not an error:
// rotating an empty log is a no-op.
func Rotate(path string) error {
	if err := os.Rename(path, path+".1"); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// CRCWriter counts and checksums everything written through it.
// Wrap the destination while writing a payload section, then store
// Sum32 as the trailer.
type CRCWriter struct {
	w   io.Writer
	crc hash.Hash32
	n   int64
}

// NewCRCWriter returns a CRCWriter over w using CRC-32 (IEEE).
func NewCRCWriter(w io.Writer) *CRCWriter {
	return &CRCWriter{w: w, crc: crc32.NewIEEE()}
}

func (cw *CRCWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc.Write(p[:n])
	cw.n += int64(n)
	return n, err
}

// N returns the number of bytes written so far.
func (cw *CRCWriter) N() int64 { return cw.n }

// Sum32 returns the CRC-32 (IEEE) of the bytes written so far.
func (cw *CRCWriter) Sum32() uint32 { return cw.crc.Sum32() }

// CRCReader counts and checksums everything read through it, so a
// loader can parse a payload section structurally and then verify the
// stored trailer against Sum32/N.
type CRCReader struct {
	r   io.Reader
	crc hash.Hash32
	n   int64
}

// NewCRCReader returns a CRCReader over r using CRC-32 (IEEE).
func NewCRCReader(r io.Reader) *CRCReader {
	return &CRCReader{r: r, crc: crc32.NewIEEE()}
}

func (cr *CRCReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	cr.n += int64(n)
	return n, err
}

// N returns the number of bytes read so far.
func (cr *CRCReader) N() int64 { return cr.n }

// Sum32 returns the CRC-32 (IEEE) of the bytes read so far.
func (cr *CRCReader) Sum32() uint32 { return cr.crc.Sum32() }

// VerifyTrailer compares the payload length and checksum consumed
// through cr against the stored trailer values, returning a precise
// error naming what disagreed.
func VerifyTrailer(cr *CRCReader, wantLen int64, wantCRC uint32, what string) error {
	if cr.N() != wantLen {
		return fmt.Errorf("%s: payload length %d does not match header %d (truncated or corrupt file)", what, cr.N(), wantLen)
	}
	if cr.Sum32() != wantCRC {
		return fmt.Errorf("%s: payload checksum %08x does not match trailer %08x (corrupt file)", what, cr.Sum32(), wantCRC)
	}
	return nil
}

// readChunk is how many values ReadSlice and ReadInto decode per read.
const readChunk = 4096

// ReadSlice reads n little-endian values of T from r. The slice grows
// by doubling as the bytes arrive rather than being sized from n up
// front, so a count taken from a header not yet verified costs at most
// about twice the bytes the stream really holds.
func ReadSlice[T uint8 | int32 | float64](r io.Reader, n int) ([]T, error) {
	buf := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(buf)
	out := make([]T, 0, min(n, readChunk))
	for len(out) < n {
		k := min(n-len(out), readChunk)
		if len(out)+k > cap(out) {
			out = append(make([]T, 0, min(n, 2*cap(out))), out...)
		}
		if err := readLE(r, out[len(out):len(out)+k], *buf); err != nil {
			return nil, err
		}
		out = out[:len(out)+k]
	}
	return out, nil
}

// ReadInto fills dst with little-endian values of T read from r.
func ReadInto[T uint8 | int32 | float64](r io.Reader, dst []T) error {
	buf := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(buf)
	for i := 0; i < len(dst); i += readChunk {
		if err := readLE(r, dst[i:min(i+readChunk, len(dst))], *buf); err != nil {
			return err
		}
	}
	return nil
}

// chunkPool holds the byte buffers ReadSlice and ReadInto decode
// through, each big enough for readChunk of the widest value.
var chunkPool = sync.Pool{New: func() any {
	b := make([]byte, 8*readChunk)
	return &b
}}

// readLE fills dst, at most readChunk values, from r through buf.
func readLE[T uint8 | int32 | float64](r io.Reader, dst []T, buf []byte) error {
	var zero T
	src := buf[:binary.Size(zero)*len(dst)]
	if _, err := io.ReadFull(r, src); err != nil {
		return err
	}
	switch d := any(dst).(type) {
	case []uint8:
		copy(d, src)
	case []int32:
		for i := range d {
			d[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
		}
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
	return nil
}
