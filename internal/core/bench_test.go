package core

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"

	"stencilmart/internal/profile"
)

// benchCheckpoint trains the default preset with GBDT + GBRegressor — the
// framework train_ckpt saves and loads — and returns it with its file.
func benchCheckpoint(b *testing.B) (*Framework, []byte) {
	b.Helper()
	fw, err := Build(context.Background(), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := fw.TrainAll(context.Background(), ClassGBDT, RegGB); err != nil {
		b.Fatal(err)
	}
	var file bytes.Buffer
	if err := fw.Save(&file); err != nil {
		b.Fatal(err)
	}
	return fw, file.Bytes()
}

func BenchmarkCheckpointSave(b *testing.B) {
	fw, file := benchCheckpoint(b)
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fw.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointLoad(b *testing.B) {
	_, file := benchCheckpoint(b)
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadFramework(bytes.NewReader(file)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetFile times the default preset's dataset file — what
// `profile -out` writes and `train -dataset` reads — with every check on:
// Validate, the checksum, the last column's End.
func BenchmarkDatasetFile(b *testing.B) {
	fw, err := Build(context.Background(), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var file bytes.Buffer
	if err := fw.Dataset.Write(&file); err != nil {
		b.Fatal(err)
	}
	b.Run("Write", func(b *testing.B) {
		b.SetBytes(int64(file.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fw.Dataset.Write(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Read", func(b *testing.B) {
		b.SetBytes(int64(file.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := profile.Read(bytes.NewReader(file.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAllocGateCheckpointLoad bounds what a load allocates by the file it
// reads. Measured 8.8 bytes allocated per file byte on the smoke
// checkpoint (7.3 on the default preset's): one for the payload buffer and
// the first megabyte copied once, the rest the decoded columns — an
// 8-byte int for a one-byte varint — and the dataset built from them. A
// read buffer that doubles its way up, or a column copied between its
// wire type and its in-memory one, costs a whole unit or more and trips
// the factor of 10.
func TestAllocGateCheckpointLoad(t *testing.T) {
	fw := ckptFramework(t)
	if err := fw.TrainAll(context.Background(), ClassGBDT, RegGB); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := fw.Save(&file); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := LoadFramework(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const factor = 10
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("loading a %d-byte checkpoint allocated %d bytes, %.1f per file byte", file.Len(), grew, float64(grew)/float64(file.Len()))
	if grew > factor*uint64(file.Len()) {
		t.Errorf("loading a %d-byte checkpoint allocated %d bytes (%.1f per file byte), want <= %d", file.Len(), grew, float64(grew)/float64(file.Len()), factor)
	}
}
