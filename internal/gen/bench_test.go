package gen

import "testing"

// BenchmarkDatasetBuild times the anybeat stand-in at scale 0.25, the
// graph every sgrbench workload builds during set-up: generation plus
// preprocessing (simplify, largest component).
func BenchmarkDatasetBuild(b *testing.B) {
	d, err := ByName("anybeat")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Build(0.25, rng(3))
	}
}
