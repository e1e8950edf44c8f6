package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Columns is the binary section of a frame: typed numeric columns laid end
// to end, for the bulk numbers JSON spells at 19 bytes a float. A writer
// appends columns at the back; a reader takes them off the front in the
// order they were written — there are no names or offsets, the order is
// the schema (DESIGN.md §7 lists the checkpoint's). One column is
//
//	tag    1 byte: 'f' floats, 'i' integers
//	count  uvarint
//	values floats: count × 8 bytes, the IEEE-754 bits little-endian
//	       ints:   count zig-zag varints, shortest form
//
// so a float64 round-trips by its bits, no strconv in between. Errors are
// sticky: the first failed append or read is kept, every later read
// returns nil, and Err (or End, or Write) reports it — callers read a run
// of columns and check once. Every read failure is ErrCorrupt.
type Columns struct {
	// full holds the chunks a writer has filled, oldest first: a section
	// grows by starting a new chunk, never by copying what is written.
	full [][]byte
	b    []byte // the chunk being filled, or the bytes not yet read
	err  error
}

const (
	tagFloats = 'f'
	tagInts   = 'i'
	// expBits is a float64's exponent field; all ones means NaN or ±Inf.
	expBits = 0x7ff << 52
	// A writer's chunks double from minChunk to maxChunk; values are
	// appended a block at a time, each block's worst case reserved first.
	minChunk, maxChunk = 4 << 10, 1 << 20
	block              = 2048
)

// Integer is the element types of integer columns; an int64 holds every
// value of each.
type Integer interface {
	~int | ~int32 | ~int64 | ~uint8
}

// ColumnsOf reads columns from b, which it keeps and does not copy.
func ColumnsOf(b []byte) *Columns { return &Columns{b: b} }

// join makes one buffer of a writer's chunks, so that what was appended
// can be handed out, or read back, as one section.
func (c *Columns) join() {
	if len(c.full) > 0 {
		c.b, c.full = bytes.Join(append(c.full, c.b), nil), nil
	}
}

// Bytes returns the section written so far, or the part not yet read.
func (c *Columns) Bytes() []byte {
	c.join()
	return c.b
}

// Err returns the first append or read that failed, if any.
func (c *Columns) Err() error { return c.err }

// End is Err for a reader that has taken its last column: a byte left
// over is corruption too.
func (c *Columns) End() error {
	if c.err == nil && len(c.b) > 0 {
		c.err = fmt.Errorf("%w: %d bytes follow the last column", ErrCorrupt, len(c.b))
	}
	return c.err
}

// reserve makes room for n more bytes in the chunk being filled, starting
// a new one when it has none.
func (c *Columns) reserve(n int) {
	if cap(c.b)-len(c.b) < n {
		if len(c.b) > 0 {
			c.full = append(c.full, c.b)
		}
		c.b = make([]byte, 0, max(n, min(2*cap(c.b), maxChunk), minChunk))
	}
}

// begin appends a column's tag and count.
func (c *Columns) begin(tag byte, count int) {
	c.reserve(1 + binary.MaxVarintLen64)
	c.b = binary.AppendUvarint(append(c.b, tag), uint64(count))
}

// AppendFloats appends v as one float column. A NaN or an infinity is an
// error no reader would accept, reported here, by the writer.
func (c *Columns) AppendFloats(v []float64) {
	c.begin(tagFloats, len(v))
	for at := 0; at < len(v); at += block {
		part := v[at:min(at+block, len(v))]
		c.reserve(8 * len(part))
		for i, x := range part {
			bits := math.Float64bits(x)
			if bits&expBits == expBits && c.err == nil {
				c.err = fmt.Errorf("persist: float column element %d is %v", at+i, x)
			}
			c.b = binary.LittleEndian.AppendUint64(c.b, bits)
		}
	}
}

// AppendInts appends v as one integer column.
func AppendInts[T Integer](c *Columns, v []T) {
	c.begin(tagInts, len(v))
	for at := 0; at < len(v); at += block {
		part := v[at:min(at+block, len(v))]
		c.reserve(binary.MaxVarintLen64 * len(part))
		for _, x := range part {
			s := int64(x)
			if u := uint64(s<<1 ^ s>>63); u < 0x80 {
				c.b = append(c.b, byte(u))
			} else {
				c.b = binary.AppendUvarint(c.b, u)
			}
		}
	}
}

// uvarint is binary.Uvarint with one spelling a value: w <= 0 also for a
// varint padded with a zero group, not only for one cut short or longer
// than ten bytes, so a section that reads back re-encodes to itself.
func uvarint(b []byte) (u uint64, w int) {
	if u, w = binary.Uvarint(b); w > 1 && b[w-1] == 0 {
		return 0, -w
	}
	return u, w
}

// open takes the next column's tag and count off the front and checks the
// count against the bytes left, at size bytes an element or more, before
// anything is allocated for it.
func (c *Columns) open(tag byte, size int) (n int, ok bool) {
	if c.err != nil {
		return 0, false
	}
	c.join()
	if len(c.b) == 0 || c.b[0] != tag {
		c.err = fmt.Errorf("%w: want a %q column, found %q", ErrCorrupt, tag, c.b[:min(1, len(c.b))])
		return 0, false
	}
	count, w := uvarint(c.b[1:])
	if w <= 0 || count > uint64((len(c.b)-1-w)/size) {
		c.err = fmt.Errorf("%w: column declares %d elements, %d bytes remain", ErrCorrupt, count, len(c.b)-1)
		return 0, false
	}
	c.b = c.b[1+w:]
	return int(count), true
}

// ReadFloats reads the next column, which must be a float column of
// finite values.
func (c *Columns) ReadFloats() []float64 {
	raw := c.TakeFloats()
	if raw == nil {
		return nil
	}
	out := make([]float64, len(raw)/8)
	raw.Decode(out)
	return out
}

// RawFloats is a float column taken off a reader and checked, not yet
// decoded: its little-endian bits, 8 bytes an element.
type RawFloats []byte

// TakeFloats is ReadFloats without the decoding, for a caller that knows
// where the values go only once later columns are read. It returns nil
// after an error.
func (c *Columns) TakeFloats() RawFloats {
	n, ok := c.open(tagFloats, 8)
	if !ok {
		return nil
	}
	raw := RawFloats(c.b[: 8*n : 8*n])
	for i := 0; i < n; i++ {
		if bits := binary.LittleEndian.Uint64(raw[8*i:]); bits&expBits == expBits {
			c.err = fmt.Errorf("%w: float column element %d is not finite (%#x)", ErrCorrupt, i, bits)
			return nil
		}
	}
	c.b = c.b[8*n:]
	return raw
}

// Decode writes the column's len(r)/8 values to dst.
func (r RawFloats) Decode(dst []float64) {
	for i := range dst[:len(r)/8] {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r[8*i:]))
	}
}

// ReadInts reads the next column, which must be an integer column whose
// every value fits T.
func ReadInts[T Integer](c *Columns) []T {
	n, ok := c.open(tagInts, 1)
	if !ok {
		return nil
	}
	out := make([]T, n)
	b := c.b
	for i := range out {
		var u uint64
		w := 1
		if len(b) > 0 && b[0] < 0x80 {
			u = uint64(b[0]) // nine values in ten
		} else if u, w = uvarint(b); w <= 0 {
			c.err = fmt.Errorf("%w: integer column element %d of %d is a truncated or overlong varint", ErrCorrupt, i, n)
			return nil
		}
		b = b[w:]
		v := int64(u>>1) ^ -int64(u&1)
		if out[i] = T(v); int64(out[i]) != v {
			c.err = fmt.Errorf("%w: integer column element %d is %d, outside the column's %T", ErrCorrupt, i, v, out[i])
			return nil
		}
	}
	c.b = b
	return out
}
