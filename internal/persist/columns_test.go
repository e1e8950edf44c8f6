package persist

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
)

// TestBinaryColumnsRoundTripBitExact: what is appended reads back in
// order, to the same bits, for the values a lossy or a narrowing codec
// would get wrong; empty and nil columns read back empty.
func TestBinaryColumnsRoundTripBitExact(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 0.1, 1.0 / 3, 5e-324, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 1e21}
	ints := []int64{0, -1, 1, 63, 64, -64, -65, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	narrow := []int32{-1, 0, 7, math.MaxInt32, math.MinInt32}
	bytes8 := []uint8{0, 1, 255}

	var w Columns
	w.AppendFloats(floats)
	AppendInts(&w, ints)
	w.AppendFloats(nil)
	AppendInts(&w, []int{})
	AppendInts(&w, narrow)
	AppendInts(&w, bytes8)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	r := ColumnsOf(w.Bytes())
	gotF, gotI, emptyF, emptyI, gotN, gotB := r.ReadFloats(), ReadInts[int64](r), r.ReadFloats(), ReadInts[int](r), ReadInts[int32](r), ReadInts[uint8](r)
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if len(gotF) != len(floats) || len(emptyF) != 0 || len(emptyI) != 0 {
		t.Fatalf("column lengths %d, %d, %d; want %d, 0, 0", len(gotF), len(emptyF), len(emptyI), len(floats))
	}
	for i := range floats {
		if math.Float64bits(gotF[i]) != math.Float64bits(floats[i]) {
			t.Errorf("float %d: %v (%#x) read back as %v (%#x)", i, floats[i], math.Float64bits(floats[i]), gotF[i], math.Float64bits(gotF[i]))
		}
	}
	for name, same := range map[string]bool{"int64": slices.Equal(gotI, ints), "int32": slices.Equal(gotN, narrow), "uint8": slices.Equal(gotB, bytes8)} {
		if !same {
			t.Errorf("%s column read back as %v / %v / %v", name, gotI, gotN, gotB)
		}
	}
	// Small integers, the bulk of a checkpoint, cost a byte each.
	var small Columns
	AppendInts(&small, []int{0, -1, 1, 63, -64})
	if n := len(small.Bytes()); n != 2+5 {
		t.Errorf("five small integers took %d bytes, want 7", n)
	}
}

// floatBits spells one float column of the given bit patterns.
func floatBits(patterns ...uint64) []byte {
	vals := make([]float64, len(patterns))
	var c Columns
	c.AppendFloats(vals)
	b := c.Bytes()
	for i, p := range patterns {
		for k := 0; k < 8; k++ {
			b[2+8*i+k] = byte(p >> (8 * k))
		}
	}
	return b
}

// TestBinaryColumnsRefuse: every way a column section can be wrong fails
// the read it is found by as ErrCorrupt, and the failure sticks.
func TestBinaryColumnsRefuse(t *testing.T) {
	var good Columns
	AppendInts(&good, []int{1, 2, 300})
	readInts := func(c *Columns) { ReadInts[int](c) }
	readFloats := func(c *Columns) { c.ReadFloats() }
	cases := []struct {
		name    string
		section []byte
		read    func(*Columns)
	}{
		{"float column where an int column is due", floatBits(0), readInts},
		{"int column where a float column is due", good.Bytes(), readFloats},
		{"unknown tag", []byte{'x', 0}, readInts},
		{"nothing left", nil, readFloats},
		{"tag and no count", []byte{'i'}, readInts},
		{"count cut mid-varint", []byte{'i', 0x80}, readInts},
		{"count padded with a zero group", []byte{'i', 0x81, 0x00, 5}, readInts},
		{"count past the bytes that remain (ints)", []byte{'i', 4, 1, 2, 3}, readInts},
		{"count past the bytes that remain (floats)", append([]byte{'f', 2}, make([]byte, 15)...), readFloats},
		{"value cut mid-varint", []byte{'i', 2, 1, 0x80}, readInts},
		{"value longer than ten bytes", append([]byte{'i', 11}, bytes.Repeat([]byte{0x80}, 11)...), readInts},
		{"value padded with a zero group", []byte{'i', 2, 0x80, 0x00}, readInts},
		{"value past int32", func() []byte { var c Columns; AppendInts(&c, []int64{1 << 32}); return c.Bytes() }(), func(c *Columns) { ReadInts[int32](c) }},
		{"value below int32", func() []byte { var c Columns; AppendInts(&c, []int64{-1 << 40}); return c.Bytes() }(), func(c *Columns) { ReadInts[int32](c) }},
		{"negative value for uint8", func() []byte { var c Columns; AppendInts(&c, []int{-1}); return c.Bytes() }(), func(c *Columns) { ReadInts[uint8](c) }},
		{"256 for uint8", func() []byte { var c Columns; AppendInts(&c, []int{256}); return c.Bytes() }(), func(c *Columns) { ReadInts[uint8](c) }},
		{"quiet NaN", floatBits(0x3ff0000000000000, 0x7ff8000000000001), readFloats},
		{"signalling NaN", floatBits(0x7ff0000000000001), readFloats},
		{"+Inf", floatBits(0x7ff0000000000000), readFloats},
		{"-Inf", floatBits(0xfff0000000000000), readFloats},
	}
	for _, tc := range cases {
		c := ColumnsOf(tc.section)
		tc.read(c)
		if err := c.Err(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s gave %v, want ErrCorrupt", tc.name, err)
		}
		if first := c.Err(); ReadInts[int](c) != nil || c.ReadFloats() != nil || c.End() != first {
			t.Errorf("%s: a read after the failure returned data or replaced the error", tc.name)
		}
	}
	left := ColumnsOf(append(append([]byte(nil), good.Bytes()...), 0))
	if got := ReadInts[int](left); len(got) != 3 || left.Err() != nil {
		t.Fatalf("good column read as %v, %v", got, left.Err())
	}
	if err := left.End(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a byte after the last column gave %v, want ErrCorrupt", err)
	}
}

// TestBinaryColumnsCountCheckedBeforeAllocating: a column that declares a
// billion elements in a dozen bytes is refused without the 8 GB.
func TestBinaryColumnsCountCheckedBeforeAllocating(t *testing.T) {
	lying := []byte{'f', 0xff, 0xff, 0xff, 0xff, 0x03, 1, 2, 3, 4, 5, 6, 7, 8}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := ColumnsOf(lying)
	if c.ReadFloats() != nil || !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatal("lying float count accepted")
	}
	c = ColumnsOf(append([]byte{'i'}, lying[1:]...))
	if ReadInts[int64](c) != nil || !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatal("lying integer count accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing two lying counts allocated %d bytes", grew)
	}
}

// TestBinaryColumnsWriterRefusesNonFinite: a NaN or an infinity would
// write a file no reader accepts; the writer reports it and Write refuses
// to frame the section.
func TestBinaryColumnsWriterRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var c Columns
		c.AppendFloats([]float64{1, bad})
		AppendInts(&c, []int{1})
		if c.Err() == nil {
			t.Errorf("appending %v reported no error", bad)
		}
		if err := Write(&bytes.Buffer{}, "test-kind", 1, testPayload(), &c); err == nil {
			t.Errorf("Write framed a section holding %v", bad)
		}
	}
}

// TestBinaryColumnDecodeAllocGate: reading a column allocates the column
// and nothing per element.
func TestBinaryColumnDecodeAllocGate(t *testing.T) {
	floats := make([]float64, 4096)
	ints := make([]int32, 4096)
	for i := range floats {
		floats[i] = float64(i) * 1.0000001e-3
		ints[i] = int32(i*37 - 5000)
	}
	var w Columns
	w.AppendFloats(floats)
	AppendInts(&w, ints)
	section := w.Bytes()
	if a := testing.AllocsPerRun(10, func() {
		c := Columns{b: section}
		if f, i := c.ReadFloats(), ReadInts[int32](&c); len(f) != 4096 || len(i) != 4096 || c.End() != nil {
			t.Fatal("columns did not read back")
		}
	}); a > 2 {
		t.Errorf("reading two columns took %v allocations, want 2", a)
	}
}

// TestBinaryColumnsSpanChunks: a writer's section larger than one chunk
// frames, hashes and reads back as the bytes a single buffer would hold.
func TestBinaryColumnsSpanChunks(t *testing.T) {
	floats := make([]float64, 300_000)
	ints := make([]int64, 700_000)
	for i := range floats {
		floats[i] = float64(i) / 7
	}
	for i := range ints {
		ints[i] = int64(i-350_000) * int64(i%97)
	}
	var w Columns
	for k := 0; k < 3; k++ {
		w.AppendFloats(floats)
		AppendInts(&w, ints)
	}
	if len(w.full) < 3 {
		t.Fatalf("a %d-byte section sits in %d chunks; the test wants several", len(w.Bytes()), len(w.full)+1)
	}
	var framed bytes.Buffer
	if err := Write(&framed, "test-kind", 1, testPayload(), &w); err != nil {
		t.Fatal(err)
	}
	var got payload
	r, err := Read(&framed, "test-kind", 1, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Bytes(), w.Bytes()) {
		t.Fatal("the framed section differs from the written one")
	}
	for k := 0; k < 3; k++ {
		if f, i := r.ReadFloats(), ReadInts[int64](r); !slices.Equal(f, floats) || !slices.Equal(i, ints) {
			t.Fatalf("pass %d read back differently (%v)", k, r.Err())
		}
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkColumns times the four column loops on what a checkpoint
// holds: small integers (a tuning parameter, an index: one byte each,
// one in eight two) and positive times, sixteen columns of 65,536 an
// operation — a section the size of the default preset's. b.SetBytes
// counts elements × 8, the in-memory side, so MB/s ÷ 8 is millions of
// elements a second.
func BenchmarkColumns(b *testing.B) {
	const n, columns = 1 << 16, 16
	ints, floats := make([]int, n), make([]float64, n)
	for i := range ints {
		ints[i] = i % 61
		if i%8 == 0 {
			ints[i] = 64 + i%449
		}
		floats[i] = 1e-3 * float64(1+i%977)
	}
	appendInts := func() *Columns {
		var c Columns
		for k := 0; k < columns; k++ {
			AppendInts(&c, ints)
		}
		return &c
	}
	appendFloats := func() *Columns {
		var c Columns
		for k := 0; k < columns; k++ {
			c.AppendFloats(floats)
		}
		return &c
	}
	intSection, floatSection := appendInts().Bytes(), appendFloats().Bytes()
	for _, bc := range []struct {
		name string
		op   func()
	}{
		{"AppendInts", func() { appendInts() }},
		{"ReadInts", func() {
			for c, k := ColumnsOf(intSection), 0; k < columns; k++ {
				ReadInts[int](c)
			}
		}},
		{"AppendFloats", func() { appendFloats() }},
		{"ReadFloats", func() {
			for c, k := ColumnsOf(floatSection), 0; k < columns; k++ {
				c.ReadFloats()
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(8 * n * columns)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.op()
			}
		})
	}
}
