package wire

import (
	"fmt"
	"testing"
)

// BenchmarkWireTuple measures one encode+decode round trip of a tuple
// frame — the hot path of the TCP transport. The acceptance floor is
// 5M tuples/s; the hand-rolled codec runs well above it because the
// keyed-by-hash path (a bare-key edge.Wire.SendTuple) touches no
// allocator at all: encode appends into a reused buffer and decode
// reuses the Values slice.
func BenchmarkWireTuple(b *testing.B) {
	cases := []struct {
		name string
		t    Tuple
	}{
		{"hash-only", Tuple{KeyHash: 0x9e3779b97f4a7c15, EmitNanos: 1234567890}},
		{"string-key+2vals", Tuple{
			KeyHash: 42, Key: "the-quick-brown-fox", EmitNanos: 77,
			Values: []any{int64(123456), "payload"},
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			buf, err := AppendTuple(nil, &tc.t)
			if err != nil {
				b.Fatal(err)
			}
			var out Tuple
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = AppendTuple(buf[:0], &tc.t)
				if err != nil {
					b.Fatal(err)
				}
				if err := DecodeTuple(buf[HeaderSize:], &out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if out.KeyHash != tc.t.KeyHash {
				b.Fatal("round trip lost the key hash")
			}
		})
	}
}

// BenchmarkWirePartial is the partial-flush path: what every aggregation
// period ships per live (key, window) pair.
func BenchmarkWirePartial(b *testing.B) {
	p := Partial{KeyHash: 7, Key: "word", Start: 30_000_000_000, Count: 1234}
	buf := AppendPartial(nil, &p)
	var out Partial
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendPartial(buf[:0], &p)
		if err := DecodePartial(buf[HeaderSize:], &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireSketch round-trips a checkpoint-sized summary (5W items
// at W=50) — the restart path, not a hot path, recorded for scale.
func BenchmarkWireSketch(b *testing.B) {
	s := Sketch{K: 250, N: 1_000_000}
	for i := 0; i < 250; i++ {
		s.Items = append(s.Items, SketchItem{
			Item: uint64(i) * 0x9e3779b9, Count: int64(250-i) * 1000, Err: int64(i),
		})
	}
	buf := AppendSketch(nil, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendSketch(buf[:0], &s)
		if _, err := DecodeSketch(buf[HeaderSize:]); err != nil {
			b.Fatal(err)
		}
	}
	_ = fmt.Sprintf("%d", len(buf))
}
