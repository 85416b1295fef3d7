package index

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// buildSmallTree returns a tree over a few targets plus its serialized
// bytes, shared by the corruption tests.
func buildSmallTree(t *testing.T) (*core.Model, *Tree, []byte) {
	t.Helper()
	m := buildModel(t)
	tree, err := Build(m, []int32{0, 3, 7, 11, 19, 42, 77, 101})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return m, tree, buf.Bytes()
}

// A file in the retired pre-CRC RNEIDX1 layout (magic, then the bare
// payload) fails on its magic.
func TestTreeLoadRejectsRetiredV1(t *testing.T) {
	m, _, raw := buildSmallTree(t)
	v1 := append([]byte("RNEIDX1\n"), raw[len(treeMagic)+8:len(raw)-4]...)
	if tr, err := Load(bytes.NewReader(v1), m); err == nil || tr != nil ||
		!strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("RNEIDX1 file: tree %v, error %v", tr, err)
	}
}

func TestTreeLoadRejectsAllTruncations(t *testing.T) {
	m, _, raw := buildSmallTree(t)
	for cut := 0; cut < len(raw); cut++ {
		if tr, err := Load(bytes.NewReader(raw[:cut]), m); err == nil || tr != nil {
			t.Fatalf("truncation at byte %d/%d loaded successfully", cut, len(raw))
		}
	}
}

func TestTreeLoadRejectsPayloadFlip(t *testing.T) {
	m, _, raw := buildSmallTree(t)
	// Flip one byte in a vector (deep in the payload) and one in the
	// trailer; both must be caught by the checksum.
	for _, at := range []int{len(raw) / 2, len(raw) - 2} {
		mut := append([]byte(nil), raw...)
		mut[at] ^= 0x01
		if tr, err := Load(bytes.NewReader(mut), m); err == nil || tr != nil {
			t.Fatalf("flip at byte %d/%d loaded successfully", at, len(raw))
		}
	}
}

func TestTreeSaveFileAtomic(t *testing.T) {
	m, tree, _ := buildSmallTree(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.idx")
	if err := tree.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := tree.SaveFile(path); err != nil { // overwrite path
		t.Fatal(err)
	}
	got, err := LoadFile(path, m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != tree.Size() {
		t.Fatalf("size %d, want %d", got.Size(), tree.Size())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files leaked: %d entries", len(entries))
	}
}
