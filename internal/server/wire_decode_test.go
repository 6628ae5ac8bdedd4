package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/value"
)

// legacyWireValue is the decoder wireValue replaced: a json.Decoder with
// UseNumber over every cell, dispatching on the decoded Go type. It is the
// reference the first-byte decoder is held against.
type legacyWireValue struct {
	v value.Value
}

func (w *legacyWireValue) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	switch t := raw.(type) {
	case nil:
		w.v = value.Value{}
	case string:
		w.v = value.NewStr(t)
	case json.Number:
		i, err := t.Int64()
		if err != nil {
			return fmt.Errorf("server: non-integer number %q in tuple", t.String())
		}
		w.v = value.NewInt(i)
	case bool:
		return fmt.Errorf("server: boolean values are not part of the data model")
	default:
		return fmt.Errorf("server: value must be a number, string or null, got %T", raw)
	}
	return nil
}

// decodeBoth decodes src as one tuple cell with both decoders, the way
// request bodies reach them (encoding/json validates the text and hands
// each decoder one trimmed value).
func decodeBoth(src string) (got, want value.Value, gotErr, wantErr error) {
	var w wireValue
	var l legacyWireValue
	gotErr = json.Unmarshal([]byte(src), &w)
	wantErr = json.Unmarshal([]byte(src), &l)
	return w.v, l.v, gotErr, wantErr
}

// TestWireValueDecode pins the first-byte decoder to the legacy one on the
// literals where a shortcut could drift: exponents and fractions (rejected:
// no floats in the data model), negative zero, the int64 edges and one past
// them, escaped strings, booleans and composites.
func TestWireValueDecode(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want value.Value
		ok   bool
	}{
		{`null`, value.Value{}, true},
		{`0`, value.NewInt(0), true},
		{`-0`, value.NewInt(0), true},
		{`42`, value.NewInt(42), true},
		{`-17`, value.NewInt(-17), true},
		{`9223372036854775807`, value.NewInt(1<<63 - 1), true},
		{`-9223372036854775808`, value.NewInt(-1 << 63), true},
		{`9223372036854775808`, value.Value{}, false},
		{`-9223372036854775809`, value.Value{}, false},
		{`1e3`, value.Value{}, false},
		{`1E3`, value.Value{}, false},
		{`1.0`, value.Value{}, false},
		{`-0.0`, value.Value{}, false},
		{`1e-3`, value.Value{}, false},
		{`""`, value.NewStr(""), true},
		{`"nyc"`, value.NewStr("nyc"), true},
		{`"it's"`, value.NewStr("it's"), true},
		{`"a\"b\\c"`, value.NewStr(`a"b\c`), true},
		{`"é\n\t"`, value.NewStr("é\n\t"), true},
		{`"😀"`, value.NewStr("😀"), true},
		{`"123"`, value.NewStr("123"), true},
		{`true`, value.Value{}, false},
		{`false`, value.Value{}, false},
		{`{}`, value.Value{}, false},
		{`{"a":1}`, value.Value{}, false},
		{`[]`, value.Value{}, false},
		{`[1]`, value.Value{}, false},
		{` 7 `, value.NewInt(7), true},
	} {
		got, want, gotErr, wantErr := decodeBoth(tc.src)
		if (gotErr == nil) != tc.ok || (wantErr == nil) != tc.ok {
			t.Errorf("%s: accepted %v (legacy %v), want %v (errors %v / %v)",
				tc.src, gotErr == nil, wantErr == nil, tc.ok, gotErr, wantErr)
			continue
		}
		if tc.ok && (got != tc.want || want != tc.want) {
			t.Errorf("%s: decoded %+v (legacy %+v), want %+v", tc.src, got, want, tc.want)
		}
	}

	// A whole tuple decodes cell by cell.
	var row []wireValue
	if err := json.Unmarshal([]byte(`[1, "x", null, -9223372036854775808]`), &row); err != nil {
		t.Fatal(err)
	}
	tuple := decodeTuple(row)
	want := value.Tuple{value.NewInt(1), value.NewStr("x"), {}, value.NewInt(-1 << 63)}
	if !tuple.Equal(want) {
		t.Fatalf("tuple decoded to %v, want %v", tuple, want)
	}
}

// FuzzWireValue holds the first-byte decoder to the legacy decoder on any
// input: both accept or both reject, and accepted values are equal.
func FuzzWireValue(f *testing.F) {
	for _, s := range []string{`null`, `-0`, `1e3`, `1.0`, `9223372036854775808`,
		`-9223372036854775808`, `"a\"b"`, `"é"`, `true`, `{}`, `[1]`, `0012`, `- 1`} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, want, gotErr, wantErr := decodeBoth(src)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: first-byte decoder error %v, legacy error %v", src, gotErr, wantErr)
		}
		if gotErr == nil && got != want {
			t.Fatalf("%q: decoded %+v, legacy %+v", src, got, want)
		}
	})
}
