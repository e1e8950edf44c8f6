package persist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Floats and Ints are numeric columns: bulk payload sections (dataset
// instances, tree nodes) stored as one JSON array per field instead of
// one object per row. They marshal as plain arrays — encoding/json
// already writes the shortest float that parses back to the same bits —
// and decode in a single reflection-free pass sized from the bytes at
// hand. Anything but a flat array of finite JSON numbers is an error, so
// a NaN spelled as a string fails the load.
type (
	Floats []float64
	Ints   []int
)

// UnmarshalJSON implements json.Unmarshaler.
func (c *Floats) UnmarshalJSON(b []byte) (err error) {
	*c, err = parseColumn(b, func(tok []byte) (float64, bool) {
		v, err := strconv.ParseFloat(string(tok), 64)
		return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
	})
	return err
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *Ints) UnmarshalJSON(b []byte) (err error) {
	*c, err = parseColumn(b, func(tok []byte) (int, bool) {
		v, err := strconv.Atoi(string(tok))
		return v, err == nil
	})
	return err
}

var comma = []byte{','}

// parseColumn strips the brackets off a flat JSON array (null and [] read
// as empty), sizes the column by its commas and parses every element.
// Elements are cut at commas: nested values and strings fail the number
// parse, so commas inside them need no care.
func parseColumn[T any](b []byte, parse func(tok []byte) (T, bool)) ([]T, error) {
	b = bytes.TrimSpace(b)
	if string(b) == "null" {
		return nil, nil
	}
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return nil, errors.New("persist: column is not an array")
	}
	b = bytes.TrimSpace(b[1 : len(b)-1])
	col := make([]T, 0, bytes.Count(b, comma)+1)
	for more := len(b) > 0; more; {
		var tok []byte
		tok, b, more = bytes.Cut(b, comma)
		v, ok := parse(bytes.TrimSpace(tok))
		if !ok {
			return nil, fmt.Errorf("persist: column element %d is not a finite number of the column's type", len(col))
		}
		col = append(col, v)
	}
	return col, nil
}
