package profile_test

import (
	"context"
	"testing"

	"stencilmart/internal/profile"
	"stencilmart/internal/testutil"
)

// BenchmarkProfileCell measures one (stencil, arch) cell — the unit of
// work Collect fans out — on the compiled substrate with a shared warm
// model, the steady state of a corpus sweep.
func BenchmarkProfileCell(b *testing.B) {
	corpus := testutil.SmallCorpus(b)
	archs := testutil.AllArchs(b)
	p := profile.NewProfiler(12, testutil.CorpusSeed+1)
	s, arch := corpus[0], archs[0]
	if _, _, err := p.ProfileOne(context.Background(), 0, s, arch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.ProfileOne(context.Background(), 0, s, arch); err != nil {
			b.Fatal(err)
		}
	}
}
