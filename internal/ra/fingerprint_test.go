package ra

import (
	"testing"

	"repro/internal/value"
)

var fpSchema = Schema{
	"r": {"a", "b"},
	"s": {"b", "c"},
	"t": {"a", "c"},
}

func fp(t *testing.T, q Query) string {
	t.Helper()
	f, err := Fingerprint(q, fpSchema)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// Two rules that differ only in atom order and variable (occurrence) names
// must share a fingerprint.
func TestFingerprintAtomOrderAndRenaming(t *testing.T) {
	q1 := Proj(
		Sel(Prod(R("r", "x"), R("s", "y")),
			Eq(A("x", "b"), A("y", "b")),
			EqC(A("x", "a"), value.NewInt(1))),
		A("y", "c"),
	)
	q2 := Proj(
		Sel(Prod(R("s", "p"), R("r", "q")),
			EqC(A("q", "a"), value.NewInt(1)),
			Eq(A("p", "b"), A("q", "b"))),
		A("p", "c"),
	)
	if fp(t, q1) != fp(t, q2) {
		t.Error("atom order / renaming changed the fingerprint")
	}
}

// Chain- and star-shaped equality conditions with the same closure fold to
// the same canonical predicates.
func TestFingerprintEqualityClosure(t *testing.T) {
	mk := func(preds ...Pred) Query {
		return Proj(
			Sel(Prod(R("r", "r1"), R("s", "s1"), R("t", "t1")), preds...),
			A("r1", "a"),
		)
	}
	chain := mk(
		Eq(A("r1", "b"), A("s1", "b")),
		Eq(A("s1", "c"), A("t1", "c")),
		Eq(A("r1", "a"), A("t1", "a")),
	)
	reordered := mk(
		Eq(A("t1", "a"), A("r1", "a")),
		Eq(A("s1", "b"), A("r1", "b")),
		Eq(A("t1", "c"), A("s1", "c")),
	)
	withNoise := mk(
		Eq(A("r1", "b"), A("s1", "b")),
		Eq(A("r1", "b"), A("s1", "b")), // duplicate
		Eq(A("r1", "a"), A("r1", "a")), // reflexive
		Eq(A("s1", "c"), A("t1", "c")),
		Eq(A("r1", "a"), A("t1", "a")),
	)
	if fp(t, chain) != fp(t, reordered) {
		t.Error("flipped equality atoms changed the fingerprint")
	}
	if fp(t, chain) != fp(t, withNoise) {
		t.Error("redundant atoms changed the fingerprint")
	}
}

// Projecting either member of an equality class is the same query.
func TestFingerprintProjectionClassFolding(t *testing.T) {
	mk := func(out Attr) Query {
		return Proj(
			Sel(Prod(R("r", "r1"), R("s", "s1")), Eq(A("r1", "b"), A("s1", "b"))),
			out,
		)
	}
	if fp(t, mk(A("r1", "b"))) != fp(t, mk(A("s1", "b"))) {
		t.Error("projection through an equality class changed the fingerprint")
	}
}

func TestFingerprintUnionCommutes(t *testing.T) {
	l := Proj(Sel(R("r", "r1"), EqC(A("r1", "a"), value.NewInt(1))), A("r1", "b"))
	r := Proj(Sel(R("s", "s1"), EqC(A("s1", "c"), value.NewInt(2))), A("s1", "b"))
	if fp(t, U(Clone(l), Clone(r))) != fp(t, U(Clone(r), Clone(l))) {
		t.Error("union operand order changed the fingerprint")
	}
	// Difference is NOT commutative.
	if fp(t, D(Clone(l), Clone(r))) == fp(t, D(Clone(r), Clone(l))) {
		t.Error("difference operand order must matter")
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := Proj(Sel(R("r", "r1"), EqC(A("r1", "a"), value.NewInt(1))), A("r1", "b"))
	diffConst := Proj(Sel(R("r", "r1"), EqC(A("r1", "a"), value.NewInt(2))), A("r1", "b"))
	diffAttr := Proj(Sel(R("r", "r1"), EqC(A("r1", "b"), value.NewInt(1))), A("r1", "a"))
	strConst := Proj(Sel(R("r", "r1"), EqC(A("r1", "a"), value.NewStr("1"))), A("r1", "b"))
	if fp(t, base) == fp(t, diffConst) {
		t.Error("different constants collided")
	}
	if fp(t, base) == fp(t, diffAttr) {
		t.Error("different attributes collided")
	}
	if fp(t, base) == fp(t, strConst) {
		t.Error("int and string constants collided")
	}
}

// Canonicalization is idempotent: canonical form is a fixpoint.
func TestCanonicalIdempotent(t *testing.T) {
	q := U(
		Proj(
			Sel(Prod(R("s", "y"), R("r", "x"), R("r", "z")),
				Eq(A("x", "b"), A("y", "b")),
				Eq(A("z", "a"), A("x", "a")),
				EqC(A("z", "b"), value.NewInt(7))),
			A("y", "c"), A("x", "a"),
		),
		Proj(Sel(R("t", "t1"), EqC(A("t1", "a"), value.NewInt(3))), A("t1", "c"), A("t1", "a")),
	)
	c1, err := Canonical(q, fpSchema)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Canonical(c1, fpSchema)
	if err != nil {
		t.Fatal(err)
	}
	if oracleSerialize(c1) != oracleSerialize(c2) {
		t.Errorf("canonical form is not a fixpoint:\n%s\n%s", oracleSerialize(c1), oracleSerialize(c2))
	}
	if fp(t, q) != fp(t, c1) {
		t.Error("canonicalization changed the fingerprint")
	}
}

// The canonical query must remain valid and keep the projection width.
func TestCanonicalStaysValid(t *testing.T) {
	q := Proj(
		Sel(Prod(R("r", "r1"), R("s", "s1")), Eq(A("r1", "b"), A("s1", "b"))),
		A("r1", "a"), A("s1", "c"),
	)
	cq, err := Canonical(q, fpSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(cq, fpSchema); err != nil {
		t.Fatalf("canonical query invalid: %v", err)
	}
	attrs, err := OutAttrs(cq, fpSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 2 {
		t.Fatalf("arity changed: %v", attrs)
	}
}
