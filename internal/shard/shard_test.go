package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/ra"
	"repro/internal/value"
	"repro/internal/workload"
)

// buildPair returns a single engine and a sharded router over identical
// copies of one dataset instance.
func buildPair(t *testing.T, name string, shards int) (*core.Engine, *Router, *workload.Dataset) {
	t.Helper()
	d, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	dbSingle, err := d.Gen(0.05, 2016)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(d.Schema, d.Access, dbSingle)
	if err != nil {
		t.Fatal(err)
	}
	dbShard, err := d.Gen(0.05, 2016)
	if err != nil {
		t.Fatal(err)
	}
	router, err := New(d.Schema, d.Access, dbShard, Spec{Shards: shards, Keys: d.ShardKeys})
	if err != nil {
		t.Fatal(err)
	}
	return eng, router, d
}

// routedParity checks what a residue route must keep: it read exactly the
// tuples the single engine read — a covered one through its bounded plan,
// an uncovered one through the baseline's scans — and a covered one ran
// bounded. Other routes and oracle answers served from a view (whose
// Stats are zero) are not compared.
func routedParity(kind string, wantRep, gotRep *core.Report) error {
	if kind != "residue" || wantRep.Materialized {
		return nil
	}
	if wantRep.Covered && !gotRep.Bounded {
		return fmt.Errorf("covered residue route reported bounded=false")
	}
	if gotRep.Stats.Accessed != wantRep.Stats.Accessed || gotRep.Stats.Scanned != wantRep.Stats.Scanned {
		return fmt.Errorf("residue route (covered %v) accessed %d tuples (%d scanned), the single engine %d (%d scanned)",
			wantRep.Covered, gotRep.Stats.Accessed, gotRep.Stats.Scanned, wantRep.Stats.Accessed, wantRep.Stats.Scanned)
	}
	return nil
}

// TestShardedDifferential asserts the core guarantee: for every workload
// template (covered and uncovered) and every shard count, the sharded
// router returns exactly the single-engine row set and the same coverage
// and boundedness verdicts.
func TestShardedDifferential(t *testing.T) {
	for _, name := range []string{"AIRCA", "TFACC", "MCBM"} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%d", name, shards), func(t *testing.T) {
				eng, router, d := buildPair(t, name, shards)
				for _, tpl := range d.Templates() {
					q1, err := eng.Parse(tpl.Src)
					if err != nil {
						t.Fatalf("%s: parse: %v", tpl.Name, err)
					}
					want, wantRep, err := eng.Execute(q1, core.DefaultOptions())
					if err != nil {
						t.Fatalf("%s: single engine: %v", tpl.Name, err)
					}
					q2, err := router.Parse(tpl.Src)
					if err != nil {
						t.Fatalf("%s: parse: %v", tpl.Name, err)
					}
					got, gotRep, err := router.Execute(q2, core.DefaultOptions())
					if err != nil {
						t.Fatalf("%s: sharded: %v", tpl.Name, err)
					}
					if !want.Equal(got) {
						t.Errorf("%s: sharded rows differ from single engine\nwant %d rows:\n%s\ngot %d rows:\n%s",
							tpl.Name, want.Len(), want.String(), got.Len(), got.String())
					}
					if want.Len() != got.Len() {
						t.Errorf("%s: row count %d vs %d", tpl.Name, want.Len(), got.Len())
					}
					if wantRep.Covered != gotRep.Covered {
						t.Errorf("%s: covered verdict %v vs %v", tpl.Name, wantRep.Covered, gotRep.Covered)
					}
					if wantRep.Bounded != gotRep.Bounded {
						t.Errorf("%s: bounded verdict %v vs %v", tpl.Name, wantRep.Bounded, gotRep.Bounded)
					}
				}
			})
		}
	}
}

// TestShardedDifferentialRandom widens the differential net beyond the
// templates: random generator queries (covered or not) must agree with
// the single engine too, and residue routes must read what it reads.
func TestShardedDifferentialRandom(t *testing.T) {
	for _, name := range []string{"AIRCA", "TFACC", "MCBM"} {
		t.Run(name, func(t *testing.T) {
			eng, router, d := buildPair(t, name, 3)
			rng := rand.New(rand.NewSource(7))
			p := workload.DefaultQueryParams()
			for i := 0; i < 40; i++ {
				p.Sel = 1 + rng.Intn(5)
				p.Join = rng.Intn(3)
				p.UniDiff = rng.Intn(2)
				q, err := d.RandomQuery(p, rng)
				if err != nil {
					t.Fatal(err)
				}
				want, wantRep, err := eng.Execute(q, core.DefaultOptions())
				if err != nil {
					t.Fatalf("query %d: single engine: %v", i, err)
				}
				kind, err := router.RouteKind(q)
				if err != nil {
					t.Fatal(err)
				}
				got, gotRep, err := router.Execute(q, core.DefaultOptions())
				if err != nil {
					t.Fatalf("query %d: sharded: %v", i, err)
				}
				if !want.Equal(got) {
					t.Errorf("query %d (%s): rows differ: %d vs %d\n%s\nvs\n%s",
						i, q.String(), want.Len(), got.Len(), want.String(), got.String())
				}
				if wantRep.Bounded != gotRep.Bounded {
					t.Errorf("query %d: bounded verdict %v vs %v", i, wantRep.Bounded, gotRep.Bounded)
				}
				if err := routedParity(kind, wantRep, gotRep); err != nil {
					t.Errorf("query %d (%s): %v", i, q.String(), err)
				}
			}
		})
	}
}

// TestRoutingStrategies pins the router's strategy choice on the AIRCA
// templates: origin-bound queries take the single-shard fast path,
// key-unbound single-occurrence queries scatter, and the fid⋈origin
// cross-key join takes the distributed residue path.
func TestRoutingStrategies(t *testing.T) {
	_, router, _ := buildPair(t, "AIRCA", 4)
	cases := []struct {
		src  string
		kind routeKind
	}{
		// ontime.origin pinned to 42 on both sides of the difference.
		{`(q(airline) :- ontime(f, 42, d, airline, m, delay)) EXCEPT (q(airline) :- carrier(airline, nm, 0), ontime(f2, 42, d2, airline, m2, delay2))`, routeSingle},
		// Broadcast relations only.
		{`q(cname) :- carrier(3, cname, country)`, routeSingle},
		// ontime unbound on its partition key: distributes, scatter.
		{`q(origin, dest) :- ontime(f, origin, dest, 3, m, delay)`, routeScatter},
		// ontime (by origin) joined with delaycause (by fid) on fid, with
		// only fid bound: keys on different attributes, not co-located.
		{`q(origin, dest, cause) :- ontime(77, origin, dest, al, m, delay), delaycause(77, cause, mins)`, routeResidue},
	}
	st := router.state.Load()
	for _, tc := range cases {
		q, err := router.Parse(tc.src)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.src, err)
		}
		norm, err := ra.Normalize(q, router.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if dec := router.route(norm, ra.KeyOf(norm), st.ring, len(st.members), router.part.Load()); dec.kind != tc.kind {
			t.Errorf("route(%q) = %v, want %v", tc.src, dec.kind, tc.kind)
		}
	}
	// The fast path must pick the shard that owns the constant.
	q, err := router.Parse(`q(airline) :- ontime(f, 42, d, airline, m, delay)`)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := ra.Normalize(q, router.Schema())
	if err != nil {
		t.Fatal(err)
	}
	dec := router.route(norm, ra.KeyOf(norm), st.ring, len(st.members), router.part.Load())
	if dec.kind != routeSingle {
		t.Fatalf("origin-bound query did not fast-path: %v", dec.kind)
	}
	if want := router.ownerOf(value.NewInt(42)); dec.shard != want {
		t.Errorf("fast path chose shard %d, owner of 42 is %d", dec.shard, want)
	}
}

// TestWritesRouteToOwner asserts that a partitioned insert lands on
// exactly one shard, stays queryable through the router, and keeps
// Version unchanged (the per-shard cache invariant on the cluster).
func TestWritesRouteToOwner(t *testing.T) {
	d, err := workload.ByName("AIRCA")
	if err != nil {
		t.Fatal(err)
	}
	db, err := d.Gen(0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	router, err := New(d.Schema, d.Access, db, Spec{Shards: 4, Keys: d.ShardKeys})
	if err != nil {
		t.Fatal(err)
	}
	v0 := router.Version()
	// Warm a cached plan over the partitioned relation.
	q, err := router.Parse(`q(airline) :- ontime(f, 97, d, airline, m, delay)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := router.Execute(q, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	tup := value.Tuple{value.NewInt(990001), value.NewInt(97), value.NewInt(12),
		value.NewInt(7), value.NewInt(1), value.NewInt(30)}
	changed, err := router.Insert("ontime", tup)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("insert of a fresh tuple reported no change")
	}
	owner := router.ownerOf(value.NewInt(97))
	for i, m := range router.state.Load().members {
		rows, err := m.eng.DB().Rows("ontime")
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range rows {
			if r.Equal(tup) {
				found = true
			}
		}
		if found != (i == owner) {
			t.Errorf("shard %d: tuple present=%v, owner is %d", i, found, owner)
		}
	}
	// The cached plan must see the new tuple without any invalidation.
	table, rep, err := router.Execute(q, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit {
		t.Error("repeat query after insert missed the plan cache")
	}
	found := false
	for _, r := range table.Tuples() {
		if r[0].Equal(value.NewInt(7)) {
			found = true
		}
	}
	if !found {
		t.Error("cached plan did not observe the routed insert")
	}
	if router.Version() != v0 {
		t.Errorf("tuple write moved Version %d -> %d", v0, router.Version())
	}
	if _, err := router.Delete("ontime", tup); err != nil {
		t.Fatal(err)
	}
}

// TestConstraintFanOut asserts access-schema changes reach every member
// engine and bump all versions in lockstep.
func TestConstraintFanOut(t *testing.T) {
	d, err := workload.ByName("AIRCA")
	if err != nil {
		t.Fatal(err)
	}
	db, err := d.Gen(0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	router, err := New(d.Schema, d.Access, db, Spec{Shards: 3, Keys: d.ShardKeys})
	if err != nil {
		t.Fatal(err)
	}
	v0 := router.Version()
	c := access.Constraint{Rel: "plane", X: []string{"model"}, Y: []string{"tailnum"}, N: 2000}
	if err := router.AddConstraints(c); err != nil {
		t.Fatal(err)
	}
	for _, st := range router.Stats().Shards {
		if st.Version != v0+1 {
			t.Errorf("%s: version %d, want %d", st.Label, st.Version, v0+1)
		}
	}
	if !router.RemoveConstraint(c) {
		t.Error("RemoveConstraint did not find the installed constraint")
	}
	for _, st := range router.Stats().Shards {
		if st.Version != v0+2 {
			t.Errorf("%s after remove: version %d, want %d", st.Label, st.Version, v0+2)
		}
	}
}

// TestDeriveKeys checks the automatic partition-key policy on AIRCA: the
// big fact tables get their most-indexed attribute, small dimension
// tables stay broadcast.
func TestDeriveKeys(t *testing.T) {
	d, err := workload.ByName("AIRCA")
	if err != nil {
		t.Fatal(err)
	}
	db, err := d.Gen(0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys := DeriveKeys(d.Schema, d.Access, db, DefaultMinPartitionRows)
	if keys["ontime"] != "origin" {
		t.Errorf("ontime key = %q, want origin", keys["ontime"])
	}
	if keys["delaycause"] != "fid" {
		t.Errorf("delaycause key = %q, want fid", keys["delaycause"])
	}
	for _, rel := range []string{"airport", "carrier"} {
		if k, ok := keys[rel]; ok {
			t.Errorf("small relation %s partitioned by %q, want broadcast", rel, k)
		}
	}
}

// TestScatterGatherUnderChurn is the -race test: concurrent queries over
// every routing strategy while writers churn tuples through the router
// and a constraint toggler fans out version bumps. It asserts freedom
// from data races, error-free execution, and version lockstep at the end.
func TestScatterGatherUnderChurn(t *testing.T) {
	d, err := workload.ByName("AIRCA")
	if err != nil {
		t.Fatal(err)
	}
	db, err := d.Gen(0.05, 2016)
	if err != nil {
		t.Fatal(err)
	}
	router, err := New(d.Schema, d.Access, db, Spec{Shards: 4, Keys: d.ShardKeys})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`q(airline) :- ontime(f, 42, d, airline, m, delay)`,                                             // single-shard fast path
		`q(origin, dest) :- ontime(f, origin, dest, 3, m, delay)`,                                       // scatter (uncovered → baseline per shard)
		`q(city) :- ontime(123, origin, dest, al, m, delay), airport(origin, city, st)`,                 // scatter, covered
		`q(origin, dest, cause) :- ontime(77, origin, dest, al, m, delay), delaycause(77, cause, mins)`, // distributed residue
		`q(cname) :- carrier(3, cname, country)`,                                                        // broadcast-only single shard
	}
	parsed := make([]ra.Query, len(queries))
	for i, src := range queries {
		q, err := router.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		parsed[i] = q
	}
	// Storm material comes from the seed instance, which New read but did
	// not consume.
	rows, err := db.Rows("ontime")
	if err != nil {
		t.Fatal(err)
	}
	sample := rows[:32]

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	const clients, writers, opsPerClient = 8, 3, 60
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				q := parsed[(c+i)%len(parsed)]
				if _, _, err := router.Execute(q, core.DefaultOptions()); err != nil {
					errCh <- fmt.Errorf("client %d: %w", c, err)
					return
				}
			}
		}(c)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				tup := sample[(w*opsPerClient+i)%len(sample)]
				if _, err := router.Delete("ontime", tup); err != nil {
					errCh <- fmt.Errorf("writer %d delete: %w", w, err)
					return
				}
				if _, err := router.Insert("ontime", tup); err != nil {
					errCh <- fmt.Errorf("writer %d insert: %w", w, err)
					return
				}
			}
		}(w)
	}
	// One goroutine toggles a constraint, forcing version fan-out and
	// cache purges concurrent with scatter/gather.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := access.Constraint{Rel: "plane", X: []string{"model"}, Y: []string{"tailnum"}, N: 5000}
		for i := 0; i < 10; i++ {
			if err := router.AddConstraints(c); err != nil {
				errCh <- fmt.Errorf("add constraint: %w", err)
				return
			}
			router.RemoveConstraint(c)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	stats := router.Stats().Shards
	for _, st := range stats[1:] {
		if st.Version != stats[0].Version {
			t.Errorf("version skew after churn: %s at %d, %s at %d",
				stats[0].Label, stats[0].Version, st.Label, st.Version)
		}
	}
	rs := router.RouteStats()
	if rs.Single == 0 || rs.Scattered == 0 || rs.Residue == 0 {
		t.Errorf("expected all routing strategies exercised, got %+v", rs)
	}
}

// TestRouterServiceParity asserts Router satisfies the aggregate
// observability surface: logical DBSize matches a single engine over the
// same data, and CacheStats aggregates across members.
func TestRouterServiceParity(t *testing.T) {
	eng, router, _ := buildPair(t, "MCBM", 4)
	if eng.DBSize() != router.DBSize() {
		t.Errorf("logical DBSize: single %d, sharded %d", eng.DBSize(), router.DBSize())
	}
	q, err := router.Parse(`q(plan_id, city_id) :- subscriber(1001, plan_id, city_id, status)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := router.Execute(q, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := router.Execute(q, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	cs := router.CacheStats()
	if cs.Hits == 0 {
		t.Errorf("aggregated cache stats show no hits after a repeat: %+v", cs)
	}
	if got := len(router.Stats().Shards); got != 4 {
		t.Errorf("Stats().Shards has %d entries, want 4 shards", got)
	}
}

// TestConcurrentConstraintMutations pins the router-level serialization
// of access-schema changes: concurrent Add/Remove interleavings must
// never leave engines with divergent versions or schemas.
func TestConcurrentConstraintMutations(t *testing.T) {
	d, err := workload.ByName("AIRCA")
	if err != nil {
		t.Fatal(err)
	}
	db, err := d.Gen(0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	router, err := New(d.Schema, d.Access, db, Spec{Shards: 3, Keys: d.ShardKeys})
	if err != nil {
		t.Fatal(err)
	}
	c := access.Constraint{Rel: "plane", X: []string{"model"}, Y: []string{"tailnum"}, N: 5000}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := router.AddConstraints(c); err != nil {
					t.Error(err)
					return
				}
				router.RemoveConstraint(c)
			}
		}()
	}
	wg.Wait()
	stats := router.Stats().Shards
	for _, st := range stats[1:] {
		if st.Version != stats[0].Version {
			t.Fatalf("version skew: %s at %d, %s at %d",
				stats[0].Label, stats[0].Version, st.Label, st.Version)
		}
	}
	want := router.AccessSnapshot().Len()
	for i, m := range router.state.Load().members {
		if got := m.eng.AccessSnapshot().Len(); got != want {
			t.Errorf("shard %d has %d constraints, router reports %d", i, got, want)
		}
	}
}

// TestScatterMaterializedVerdict pins gather's view verdict on every
// scatter template of the three datasets: a scatter answer is Materialized
// exactly when every member served it from a view (the AND of the members'
// verdicts, read from their view-hit counters), so a materialized report
// never carries the Stats of a plan some member ran. Repeats walk each
// member through view admission at its own pace, which is where the
// verdicts of the members disagree.
func TestScatterMaterializedVerdict(t *testing.T) {
	for _, d := range workload.All() {
		t.Run(d.Name, func(t *testing.T) {
			_, router, _ := buildPair(t, d.Name, 4)
			opts := core.DefaultOptions()
			scattered := 0
			for _, tpl := range d.Templates() {
				q, err := router.Parse(tpl.Src)
				if err != nil {
					t.Fatal(err)
				}
				if kind, err := router.RouteKind(q); err != nil || kind != "scatter" {
					continue
				}
				scattered++
				members := router.state.Load().members
				hits := make([]int64, len(members))
				for i := 0; i < 40; i++ {
					for j, m := range members {
						hits[j] = m.eng.IVMStats().Hits
					}
					_, rep, err := router.Execute(q, opts)
					if err != nil {
						t.Fatalf("%s: %v", tpl.Name, err)
					}
					all := true
					for j, m := range members {
						all = all && m.eng.IVMStats().Hits == hits[j]+1
					}
					if rep.Materialized != all {
						t.Errorf("%s repeat %d: Materialized=%v, members' verdicts AND to %v",
							tpl.Name, i, rep.Materialized, all)
					}
					if rep.Materialized && (rep.Stats.Accessed != 0 || rep.Stats.Scanned != 0) {
						t.Errorf("%s repeat %d: Materialized with Stats.Accessed=%d Scanned=%d, want 0",
							tpl.Name, i, rep.Stats.Accessed, rep.Stats.Scanned)
					}
				}
			}
			if scattered == 0 {
				t.Fatal("no template routed scatter: the test checked nothing")
			}
		})
	}
}
