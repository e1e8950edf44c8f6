package profile_test

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"stencilmart/internal/persist"
	"stencilmart/internal/profile"
	"stencilmart/internal/testutil"
)

// FuzzDatasetRoundTrip feeds arbitrary dataset files — a manifest and a
// column section, framed with a fresh checksum so they get past the
// envelope (FuzzPersistRead's business) — to Read. The seeds are a real
// collected dataset and the damage a corrupt or hostile file carries,
// built here as bytes; testdata/fuzz holds four more. Whatever the
// payload, Read returns a dataset or an error, never panics, and
// allocates in proportion to the input; a dataset it accepts satisfies
// its own Validate and survives Write → Read → Write byte for byte.
func FuzzDatasetRoundTrip(f *testing.F) {
	file := smallFile(f)
	add := func(mutate func(p *fileParts), tail ...byte) {
		p := splitFile(f, file)
		mutate(p)
		f.Add([]byte(p.manifest), append(p.section(), tail...))
	}
	nan := math.Float64frombits(0x7ff8000000000001)
	add(func(*fileParts) {})
	add(func(p *fileParts) { p.cols = nil })                                                               // a corpus and no numbers
	add(func(p *fileParts) { p.manifest = []byte(`{}`) })                                                  // numbers and no corpus
	add(func(p *fileParts) { p.manifest = []byte(`[1,2,3]`) })                                             // not a Corpus at all
	add(func(p *fileParts) { p.cols[colInstOC].ints = p.cols[colInstOC].ints[:7] })                        // ragged instance columns
	add(func(p *fileParts) { p.cols[colInstArch].ints[0] = 1 })                                            // arch index past the arch list
	add(func(p *fileParts) { p.cols[colInstParams].ints = p.cols[colInstParams].ints[:25] })               // params not ten per instance
	add(func(p *fileParts) { p.cols[colInstTime].floats[0] = nan })                                        // 0x7ff8… in an instance time
	add(func(p *fileParts) { p.cols[colResultTime].floats[0] = math.Inf(1) })                              // +Inf in a result time
	add(func(p *fileParts) { p.cols[colInstTime].floats[0] = -1 })                                         // a negative time
	add(func(p *fileParts) { p.cols[colResultOC].ints[0] = 999 })                                          // an OC past a byte
	add(func(p *fileParts) { p.cols[colResultCrashed] = column{float: true, floats: make([]float64, 8)} }) // a float column where an int column is due
	add(func(p *fileParts) { p.cols[colBestTime].floats[0] *= 2 })                                         // an edited label
	add(func(p *fileParts) { p.cols[colResultParams].ints[7] = 2 })                                        // useSmem neither 0 nor 1
	add(func(p *fileParts) {}, 'i', 1, 0x80, 0x00)                                                         // a twelfth column, its varint padded
	// A column count past the end of the section: the params column is a
	// tag and a count of 2^28, and nothing else.
	add(func(p *fileParts) { p.cols = p.cols[:colInstParams] }, 'i', 0x80, 0x80, 0x80, 0x80, 0x01)
	f.Fuzz(func(t *testing.T, manifest, columns []byte) {
		var framed bytes.Buffer
		if err := persist.Write(&framed, profile.DatasetKind, profile.DatasetVersion, jsonRaw(manifest), persist.ColumnsOf(columns)); err != nil {
			t.Skip() // not JSON: the envelope's business, see FuzzPersistRead
		}
		first := append([]byte(nil), framed.Bytes()...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := profile.Read(&framed)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+256*(len(manifest)+len(columns))); grew > bound {
			t.Fatalf("Read allocated %d bytes for a %d-byte payload (bound %d)", grew, len(manifest)+len(columns), bound)
		}
		if err != nil {
			var ke *persist.KindError
			var ve *persist.VersionError
			if errors.Is(err, persist.ErrMagic) || errors.Is(err, persist.ErrChecksum) || errors.As(err, &ke) || errors.As(err, &ve) {
				t.Fatalf("a freshly framed payload failed the envelope: %v", err)
			}
			return // rejected inputs are fine; panics are not
		}
		// Accepted datasets must satisfy their own invariants...
		if err := d.Validate(); err != nil {
			t.Fatalf("Read accepted a dataset its own Validate rejects: %v", err)
		}
		// ...and round-trip losslessly: the columns byte for byte (one
		// spelling per number), the manifest once it has been re-marshalled.
		again := testutil.DatasetBytes(t, d)
		if a, b := splitFile(t, first).section(), splitFile(t, again).section(); !bytes.Equal(a, columns) || !bytes.Equal(b, columns) {
			t.Fatalf("accepted columns %x re-encode as %x", columns, b)
		}
		d2, err := profile.Read(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-read of written dataset: %v", err)
		}
		testutil.AssertSameBytes(t, "dataset round trip", again, testutil.DatasetBytes(t, d2))
	})
}
