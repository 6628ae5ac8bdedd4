package ra

import (
	"testing"

	"repro/internal/value"
)

func benchQuery() Query {
	return Proj(
		Sel(Prod(R("r", "x"), R("s", "y"), R("t", "z")),
			Eq(A("x", "b"), A("y", "b")),
			Eq(A("y", "c"), A("z", "c")),
			EqC(A("x", "a"), value.NewInt(1)),
			EqC(A("z", "a"), value.NewInt(2))),
		A("y", "c"),
	)
}

func BenchmarkFingerprint(b *testing.B) {
	q := benchQuery()
	s := fpSchema
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fingerprint(q, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeyOf prices the serving path's key: canonical order and
// renaming in pooled scratch, serialization streamed into SHA-256.
func BenchmarkKeyOf(b *testing.B) {
	norm, err := Normalize(benchQuery(), fpSchema)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KeyOf(norm)
	}
}

// BenchmarkOracleFingerprint prices the string canonicalizer KeyOf
// replaced, on the same query.
func BenchmarkOracleFingerprint(b *testing.B) {
	norm, err := Normalize(benchQuery(), fpSchema)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OracleFingerprintNormalized(norm)
	}
}
