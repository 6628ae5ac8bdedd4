package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/value"
)

// causesSrc is the covered residue shape of the AIRCA workload: ontime
// (partitioned by origin) joined with delaycause (partitioned by fid) on
// a bound fid. Its plan fetches ontime by fid on every member and
// delaycause by fid on the fid's owner.
const causesSrc = `q(origin, dest, cause, mins) :- ontime(%d, origin, dest, al, m, delay), delaycause(%d, cause, mins)`

// noViews runs the whole analysis pipeline but never serves from a view,
// so an oracle report always carries the access count of its plan.
var noViews = core.Options{Minimize: true, Rewrite: true, FallbackToBaseline: true}

// causesFlights returns the fids of flights that have delay causes, in
// fid order, with each flight's ontime row.
func causesFlights(t *testing.T, eng *core.Engine) ([]int64, map[int64]value.Tuple) {
	t.Helper()
	causes, err := eng.DB().Rows("delaycause")
	if err != nil {
		t.Fatal(err)
	}
	flights, err := eng.DB().Rows("ontime")
	if err != nil {
		t.Fatal(err)
	}
	byFid := map[int64]value.Tuple{}
	for _, f := range flights {
		byFid[f[0].I] = f
	}
	seen := map[int64]bool{}
	var fids []int64
	for _, c := range causes {
		if fid := c[0].I; !seen[fid] && byFid[fid] != nil {
			seen[fid] = true
			fids = append(fids, fid)
		}
	}
	if len(fids) == 0 {
		t.Fatal("no flight with delay causes in the instance")
	}
	return fids, byFid
}

// TestRoutedPlanConstraintChurn races the constraints the causes plan
// fetches through against readers of that plan. A constraint change fans
// out member by member outside the read fence, so a routed plan can meet a
// member whose index was just dropped or is not built yet; Execute must
// route such a query again instead of surfacing the store error, and every
// answer must still be the single engine's.
func TestRoutedPlanConstraintChurn(t *testing.T) {
	eng, router, _ := buildPair(t, "AIRCA", 4)
	fids, _ := causesFlights(t, eng)
	if len(fids) > 16 {
		fids = fids[:16]
	}
	want := map[int64]*exec.Table{}
	for _, fid := range fids {
		q, err := eng.Parse(fmt.Sprintf(causesSrc, fid, fid))
		if err != nil {
			t.Fatal(err)
		}
		if want[fid], _, err = eng.Execute(q, core.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	churned := []access.Constraint{
		{Rel: "delaycause", X: []string{"fid"}, Y: []string{"cause"}, N: 5},
		{Rel: "ontime", X: []string{"fid"}, Y: []string{"origin", "dest", "airline", "month", "delay"}, N: 1},
	}
	const rounds = 40

	stop := make(chan struct{})
	var churners, readers sync.WaitGroup
	for _, c := range churned {
		churners.Add(1)
		go func() {
			defer churners.Done()
			for i := 0; i < rounds; i++ {
				if !router.RemoveConstraint(c) {
					t.Errorf("round %d: %s was not installed", i, c)
					return
				}
				if err := router.AddConstraints(c); err != nil {
					t.Errorf("round %d: re-adding %s: %v", i, c, err)
					return
				}
			}
		}()
	}
	reads := make([]int, 2)
	for w := range reads {
		readers.Add(1)
		go func() {
			defer readers.Done()
			n := 0
			for i := w; ; i++ {
				select {
				case <-stop:
					reads[w] = n
					return
				default:
				}
				fid := fids[i%len(fids)]
				q, err := router.Parse(fmt.Sprintf(causesSrc, fid, fid))
				if err != nil {
					t.Error(err)
					return
				}
				got, _, err := router.Execute(q, core.DefaultOptions())
				if err != nil {
					t.Errorf("causes(%d) under constraint churn: %v", fid, err)
					continue
				}
				if !got.Equal(want[fid]) {
					t.Errorf("causes(%d) under constraint churn: %d rows, single engine %d", fid, got.Len(), want[fid].Len())
				}
				n++
			}
		}()
	}
	churners.Wait()
	close(stop)
	readers.Wait()
	for w, n := range reads {
		if n == 0 {
			t.Errorf("reader %d answered nothing while the constraints churned", w)
		}
	}
}

// TestRoutedPlanMidMove freezes a 2 → 4 Reshard once in its copy phase and
// once in its cleanup phase, and runs the causes plan for a flight whose
// origin and fid both change owner and for one whose owners both stay.
// The routed fetches must read the snapshot the move keeps complete: the
// old ring while copying, the new one (surplus copies not yet swept) while
// cleaning up. Answers must be the single engine's and so must the access
// count, so a surplus copy the union failed to drop would show. In both
// phases an uncovered residue probe runs the baseline over routed scans;
// its scanned count must be the single engine's too, so a surplus copy the
// owner filter failed to drop would show.
func TestRoutedPlanMidMove(t *testing.T) {
	eng, router, _ := buildPair(t, "AIRCA", 2)
	fids, byFid := causesFlights(t, eng)

	frozen := make(chan int32)
	resume := make(chan struct{})
	calls := 0
	held := map[int32]bool{}
	router.hookMigBatch = func() {
		calls++
		ph := router.move.Load().phase.Load()
		if held[ph] || (ph == phaseCopy && calls <= 2) {
			return
		}
		held[ph] = true
		frozen <- ph
		<-resume
	}
	done := make(chan error, 1)
	go func() {
		_, err := router.Reshard(context.Background(), 4)
		done <- err
	}()

	var moved, stayed int64 = -1, -1
	for _, phase := range []int32{phaseCopy, phaseCleanup} {
		if got := <-frozen; got != phase {
			t.Fatalf("move froze in phase %s, want %s", phaseNames[got], phaseNames[phase])
		}
		if phase == phaseCopy {
			mv := router.move.Load()
			owners := func(v value.Value) (old, new *member) {
				return mv.old.st.members[mv.old.st.ring.OwnerOf(v)], mv.new.st.members[mv.new.st.ring.OwnerOf(v)]
			}
			for _, fid := range fids {
				oo, no := owners(byFid[fid][1])
				of, nf := owners(value.NewInt(fid))
				switch {
				case moved < 0 && oo != no && of != nf:
					moved = fid
				case stayed < 0 && oo == no && of == nf:
					stayed = fid
				}
			}
			if moved < 0 || stayed < 0 {
				t.Fatal("could not find both a moving and a staying flight with delay causes")
			}
		}
		for _, fid := range []int64{moved, stayed} {
			src := fmt.Sprintf(causesSrc, fid, fid)
			q, err := eng.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			want, wantRep, err := eng.Execute(q, noViews)
			if err != nil {
				t.Fatal(err)
			}
			if kind, err := router.RouteKind(q); err != nil || kind != "residue" {
				t.Fatalf("causes(%d) routes %q (%v), want residue", fid, kind, err)
			}
			got, gotRep, err := router.Execute(q, core.DefaultOptions())
			if err != nil {
				t.Fatalf("%s causes(%d): %v", phaseNames[phase], fid, err)
			}
			if !want.Equal(got) {
				t.Errorf("%s causes(%d): %d rows sharded vs %d oracle", phaseNames[phase], fid, got.Len(), want.Len())
			}
			if !gotRep.Bounded || gotRep.Stats.Accessed != wantRep.Stats.Accessed {
				t.Errorf("%s causes(%d): bounded %v, accessed %d; single engine accessed %d",
					phaseNames[phase], fid, gotRep.Bounded, gotRep.Stats.Accessed, wantRep.Stats.Accessed)
			}
		}
		if err := uncoveredProbe(eng, router); err != nil {
			t.Errorf("%s: %v", phaseNames[phase], err)
		}
		resume <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatalf("unfrozen reshard failed: %v", err)
	}
	router.hookMigBatch = nil
}

// uncoveredSrc joins ontime (partitioned by origin) with delaycause
// (partitioned by fid) on an unbound fid: a residue route no access
// constraint covers, answered by the baseline over routed scans.
const uncoveredSrc = `q(origin, cause) :- ontime(f, origin, dest, al, m, delay), delaycause(f, cause, mins)`

// uncoveredProbe runs uncoveredSrc on the single engine and the router and
// reports any difference in route, verdict, answer or tuples read.
func uncoveredProbe(eng *core.Engine, router *Router) error {
	q, err := eng.Parse(uncoveredSrc)
	if err != nil {
		return err
	}
	want, wantRep, err := eng.Execute(q, noViews)
	if err != nil {
		return err
	}
	if kind, err := router.RouteKind(q); err != nil || kind != "residue" || wantRep.Covered {
		return fmt.Errorf("uncovered probe routes %q (%v), covered %v; want an uncovered residue route", kind, err, wantRep.Covered)
	}
	got, gotRep, err := router.Execute(q, core.DefaultOptions())
	if err != nil {
		return fmt.Errorf("uncovered probe: %v", err)
	}
	if !want.Equal(got) {
		return fmt.Errorf("uncovered probe: %d rows sharded vs %d oracle", got.Len(), want.Len())
	}
	return routedParity("residue", wantRep, gotRep)
}
