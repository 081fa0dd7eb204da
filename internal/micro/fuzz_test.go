package micro

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vulnstack/internal/mem"
)

// FuzzDecodeState: the state decoder never panics. Every input either
// decodes into the core or returns an error, whatever it does to the
// head, cache and tail readers; a decoded core re-encodes to a blob
// that decodes and re-encodes to itself. The core is an A9 with its caches cut
// to one set each: the readers are the same, and a ~20 KB blob instead
// of ~1.5 MB keeps the fuzzer's mutation rate useful.
func FuzzDecodeState(f *testing.F) {
	cfg := ConfigA9()
	for _, c := range []*CacheConfig{&cfg.L1I, &cfg.L1D, &cfg.L2} {
		c.SizeBytes = c.LineBytes * c.Assoc
	}
	core := New(cfg, mem.New(1<<16), 0x1000)
	blob := core.EncodeState(nil)
	tail := core.Layout().tail
	oversized := binary.AppendUvarint(append([]byte(nil), blob[:tail]...), 1<<40)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:tail+3])
	f.Add(oversized)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if core.DecodeState(data) != nil {
			return
		}
		canon := core.EncodeState(nil)
		if err := core.DecodeState(canon); err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		if !bytes.Equal(core.EncodeState(nil), canon) {
			t.Fatal("re-encoded blob is not a fixed point of decode and encode")
		}
	})
}
