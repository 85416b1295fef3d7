package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/emb"
)

// FuzzModelLoad feeds arbitrary bytes through Load: whatever the input,
// Load must return a model or an error without panicking, and must not
// allocate much more than the input holds, whatever its header claims.
// A model it accepts must re-save to the input's leading bytes, so
// nothing it loads is silently altered. The seeds are a saved tiny
// model and its truncations at each section boundary.
func FuzzModelLoad(f *testing.F) {
	mat := emb.NewMatrix(5, 3)
	mat.RandomInit(newRng(7), 0.5)
	var buf bytes.Buffer
	if err := (&Model{m: mat, p: 1, scale: 123.5}).Save(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	// magic | payload length | p, scale | matrix magic | shape | data | CRC
	matrixAt := len(modelMagic) + 8 + 16
	for _, cut := range []int{0, len(modelMagic), len(modelMagic) + 8, matrixAt,
		matrixAt + 6, matrixAt + 22, len(raw) - 4, len(raw) - 1, len(raw)} {
		f.Add(raw[:cut])
	}
	// A crafted header whose payload length agrees with a 2^20 x 8
	// matrix, with no data behind it.
	crafted := append([]byte(nil), raw[:matrixAt+6]...)
	binary.LittleEndian.PutUint64(crafted[len(modelMagic):], uint64(16+emb.MatrixFileSize(1<<20, 8)))
	crafted = binary.LittleEndian.AppendUint64(crafted, 1<<20)
	f.Add(binary.LittleEndian.AppendUint64(crafted, 8))
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Load(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if delta := after.TotalAlloc - before.TotalAlloc; delta > 4*uint64(len(in))+1<<20 {
			t.Fatalf("Load of %d bytes allocated %d bytes", len(in), delta)
		}
		if err != nil {
			if m != nil {
				t.Fatal("model returned with an error")
			}
			return
		}
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(in, out.Bytes()) {
			t.Fatalf("re-saved model (%d bytes) differs from the %d input bytes it was loaded from", out.Len(), len(in))
		}
	})
}
