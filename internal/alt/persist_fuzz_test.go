package alt

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/gen"
)

// craftedHeader is a 32-byte RNEALT1 file whose payload length agrees
// with a 2^20-vertex, 16-landmark index (128 MiB of labels) and which
// ends right after the header.
func craftedHeader() []byte {
	const n, nU = 1 << 20, 16
	b := []byte(altMagic)
	b = binary.LittleEndian.AppendUint64(b, uint64(2*8+nU*4+nU*n*8))
	b = binary.LittleEndian.AppendUint64(b, n)
	return binary.LittleEndian.AppendUint64(b, nU)
}

func TestIndexLoadCraftedHeaderDoesNotAllocate(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	idx, err := Read(bytes.NewReader(craftedHeader()))
	runtime.ReadMemStats(&after)
	if err == nil || idx != nil {
		t.Fatal("crafted header loaded")
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Fatalf("crafted header allocated %.1f MiB before failing: %v", float64(delta)/(1<<20), err)
	}
}

// FuzzALTLoad feeds Read arbitrary bytes. Seeds: a tiny index, its
// truncations at each section boundary, and the crafted header. Read
// must never panic, must allocate at most 4x its input plus 1 MiB, and
// an index it accepts must re-save to the bytes it was read from.
func FuzzALTLoad(f *testing.F) {
	g, err := gen.Grid(3, 3, gen.DefaultConfig(1))
	if err != nil {
		f.Fatal(err)
	}
	idx, err := Build(g, 3, 1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	// magic | payload length | n, |U| | landmark ids | labels | CRC
	labelsAt := len(altMagic) + 8 + 16 + 3*4
	for _, cut := range []int{0, len(altMagic), len(altMagic) + 8, len(altMagic) + 24,
		labelsAt, labelsAt + 8, len(raw) - 4, len(raw) - 1, len(raw)} {
		f.Add(raw[:cut])
	}
	f.Add(craftedHeader())
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		idx, err := Read(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if delta := after.TotalAlloc - before.TotalAlloc; delta > 4*uint64(len(in))+1<<20 {
			t.Fatalf("Read of %d bytes allocated %d bytes", len(in), delta)
		}
		if err != nil {
			if idx != nil {
				t.Fatal("index returned with an error")
			}
			return
		}
		var out bytes.Buffer
		if _, err := idx.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(in, out.Bytes()) {
			t.Fatalf("re-saved index (%d bytes) differs from the %d input bytes it was read from", out.Len(), len(in))
		}
	})
}
