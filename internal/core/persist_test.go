package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/emb"
)

// tinyModel builds a small model directly (no training) so persistence
// tests are fast and every byte of the file is exercised.
func tinyModel(t *testing.T) *Model {
	t.Helper()
	mat := emb.NewMatrix(5, 3)
	mat.RandomInit(newRng(7), 0.5)
	return &Model{m: mat, p: 1, scale: 123.5}
}

func saveBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func modelsEqual(t *testing.T, a, b *Model) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.Dim() != b.Dim() ||
		a.P() != b.P() || a.Scale() != b.Scale() {
		t.Fatalf("shape mismatch: %dx%d p=%v scale=%v vs %dx%d p=%v scale=%v",
			a.NumVertices(), a.Dim(), a.P(), a.Scale(),
			b.NumVertices(), b.Dim(), b.P(), b.Scale())
	}
	for s := int32(0); s < int32(a.NumVertices()); s++ {
		for u := int32(0); u < int32(a.NumVertices()); u++ {
			if da, db := a.Estimate(s, u), b.Estimate(s, u); math.Abs(da-db) > 0 {
				t.Fatalf("estimate(%d,%d): %v vs %v", s, u, da, db)
			}
		}
	}
}

func TestModelSaveLoadV3RoundTrip(t *testing.T) {
	m := tinyModel(t)
	raw := saveBytes(t, m)
	if !bytes.HasPrefix(raw, []byte("RNEMODEL3\n")) {
		t.Fatalf("saved file does not start with the v3 magic: %q", raw[:12])
	}
	got, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, m, got)
}

// Truncation at every possible prefix length — including every section
// boundary (magic, length header, payload sections, checksum trailer)
// — must yield an error, never a model.
func TestModelLoadRejectsAllTruncations(t *testing.T) {
	raw := saveBytes(t, tinyModel(t))
	for cut := 0; cut < len(raw); cut++ {
		if m, err := Load(bytes.NewReader(raw[:cut])); err == nil || m != nil {
			t.Fatalf("truncation at byte %d/%d loaded successfully", cut, len(raw))
		}
	}
}

// A single flipped bit anywhere in the file — magic, header, payload
// or trailer — must be rejected.
func TestModelLoadRejectsAllBitFlips(t *testing.T) {
	raw := saveBytes(t, tinyModel(t))
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x01
		if m, err := Load(bytes.NewReader(mut)); err == nil || m != nil {
			t.Fatalf("bit flip at byte %d/%d loaded successfully", i, len(raw))
		}
	}
}

func TestModelLoadRejectsGarbage(t *testing.T) {
	raw := saveBytes(t, tinyModel(t))
	cases := map[string][]byte{
		"empty":       {},
		"wrong magic": []byte("NOTAMODEL!\x00\x00\x00\x00"),
		"magic only":  []byte("RNEMODEL3\n"),
		"absurd length": append([]byte("RNEMODEL3\n"),
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		// The retired pre-CRC layout: magic, then the bare payload.
		"retired RNEMODEL2": append([]byte("RNEMODEL2\n"), raw[len(modelMagic)+8:len(raw)-4]...),
	}
	for name, raw := range cases {
		if m, err := Load(bytes.NewReader(raw)); err == nil || m != nil {
			t.Fatalf("%s: loaded successfully", name)
		} else if err.Error() == "" {
			t.Fatalf("%s: empty error", name)
		}
	}
}

// A flipped high bit in the matrix row count must fail on the shape
// check, before the loader allocates the matrix the header claims.
func TestModelLoadCorruptShapeDoesNotAllocate(t *testing.T) {
	raw := saveBytes(t, tinyModel(t))
	// magic, payload length, p and scale, matrix magic, then rows.
	rowsAt := len(modelMagic) + 8 + 16 + len("RNEM1\n")
	mut := append([]byte(nil), raw...)
	mut[rowsAt+2] ^= 1 << 4 // bit 20 of the little-endian row count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Load(bytes.NewReader(mut))
	runtime.ReadMemStats(&after)
	if err == nil || m != nil {
		t.Fatal("corrupt row count loaded successfully")
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Fatalf("corrupt header allocated %.1f MiB before failing: %v", float64(delta)/(1<<20), err)
	}
}

func TestModelLoadErrorsAreDescriptive(t *testing.T) {
	raw := saveBytes(t, tinyModel(t))
	// Flip a matrix payload byte (well inside the data section).
	mut := append([]byte(nil), raw...)
	mut[len(mut)-12] ^= 0x01
	_, err := Load(bytes.NewReader(mut))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("payload corruption error not descriptive: %v", err)
	}
}

func TestModelSaveFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.rne")
	m := tinyModel(t)
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place (the swap path of a rebuild) and reload.
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, m, got)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files leaked: %d entries in %s", len(entries), dir)
	}
}
