package main

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// testInputs builds a workload's inputs over a small AIRCA instance.
func testInputs(t *testing.T, spec streamSpec, seed int64) *inputs {
	t.Helper()
	ds := workload.Airca()
	db, err := ds.Gen(0.05, dataSeed)
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(spec, ds.Schema, db, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// renderStream is the first n ops of every client's stream as text.
func renderStream(in *inputs, seed int64, n int) string {
	var sb strings.Builder
	for c := 0; c < numClients; c++ {
		st := newStream(in, seed, c, numClients)
		for i := 0; i < n; i++ {
			o, _ := st.next()
			sb.WriteString(in.render(o))
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Equal seeds must give byte-identical op streams (built from scratch both
// times, including the pools), and different seeds different ones.
func TestStreamDeterminism(t *testing.T) {
	for name, spec := range map[string]streamSpec{
		"hot":   hotStream,
		"wide":  {keysPerShape: 8},
		"adhoc": {},
	} {
		a := renderStream(testInputs(t, spec, 7), 7, 500)
		b := renderStream(testInputs(t, spec, 7), 7, 500)
		c := renderStream(testInputs(t, spec, 8), 8, 500)
		if a != b {
			t.Errorf("%s: two streams from seed 7 differ", name)
		}
		if a == c {
			t.Errorf("%s: streams from seeds 7 and 8 are identical", name)
		}
	}
}

// The hot pool is the head of every larger pool of the same seed, so the
// layer probes of every workload repeat the same 40 queries.
func TestHotPoolIsPrefix(t *testing.T) {
	hot := testInputs(t, hotStream, 7)
	wide := testInputs(t, streamSpec{keysPerShape: 8}, 7)
	for i, q := range hot.pool {
		if wide.pool[i].text != q.text {
			t.Fatalf("pool entry %d: hot %q, wide %q", i, q.text, wide.pool[i].text)
		}
		if want := poolShapes[i%len(poolShapes)].name; q.shape != want {
			t.Fatalf("pool entry %d has shape %s, want %s", i, q.shape, want)
		}
		if q.rows == 0 {
			t.Fatalf("pool entry %d (%q) has an empty answer", i, q.text)
		}
	}
}

// No ad-hoc query repeats, within a client or across clients.
func TestAdhocNeverRepeats(t *testing.T) {
	in := testInputs(t, streamSpec{}, 7)
	seen := map[string]bool{}
	for c := 0; c < numClients; c++ {
		st := newStream(in, 7, c, numClients)
		for i := 0; i < 2000; i++ {
			o, ok := st.next()
			if !ok {
				t.Fatalf("space of %d exhausted after %d ops", in.adhoc.size(), i)
			}
			text := in.adhoc.text(o.idx)
			if seen[text] {
				t.Fatalf("client %d op %d repeats %q", c, i, text)
			}
			seen[text] = true
		}
	}
}
