package core

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/ivm"
	"repro/internal/store"
	"repro/internal/value"
)

// viewKey derives the serving key of a materialized answer. The answer of
// a query is independent of the engine version (tuple writes are
// maintained, schema changes purge), but the compile artifact stored with
// the view is shaped by the Minimize/Rewrite options, and error semantics
// differ too (an uncovered query with Rewrite off must keep failing under
// FallbackToBaseline=false) — so views are keyed per option shape, like
// plan-cache entries minus the version prefix.
func viewKey(fp string, opts Options) string {
	return fmt.Sprintf("m%t|r%t|%s", opts.Minimize, opts.Rewrite, fp)
}

// SetIVMConfig replaces the materialization policy, dropping every live
// view. A config with Budget <= 0 disables incremental answer maintenance
// entirely — reads always execute plans, writes skip delta dispatch.
// Engines start with ivm.DefaultConfig.
func (e *Engine) SetIVMConfig(cfg ivm.Config) {
	e.ivmMu.Lock()
	defer e.ivmMu.Unlock()
	if !cfg.Enabled() {
		e.views.Store(nil)
		return
	}
	e.views.Store(ivm.NewManager(cfg))
}

// IVMStats returns a snapshot of the materialization counters; the zero
// Stats when IVM is disabled.
func (e *Engine) IVMStats() ivm.Stats {
	if mgr := e.views.Load(); mgr != nil {
		return mgr.Stats()
	}
	return ivm.Stats{}
}

// PurgeMaterializations drops every live materialized answer. Version
// bumps do it automatically; it is exposed for cluster events that move
// rows between engines behind the fingerprints' backs (reshard,
// repartition).
func (e *Engine) PurgeMaterializations() {
	if mgr := e.views.Load(); mgr != nil {
		mgr.PurgeAll()
	}
}

// materialize builds and admits a view for a fingerprint that passed the
// admission check. Compiling the view (pushdown, validation, operator tree)
// reads no data and runs unfenced; only seeding it from the store and
// registering it hold the materialization fence exclusively: with every
// writer excluded from [store apply + delta dispatch], the initial read and
// the registration are one atomic step of the delta stream, so the view
// misses no write and double-counts none. Called with e.mu held shared;
// seed is the just-executed answer whose column labels the published
// snapshots adopt, and cost its measured execution cost, the view's worth
// per read to the admission gate.
func (e *Engine) materialize(mgr *ivm.Manager, key string, c *compiled, seed *exec.Table, cost float64) {
	v, err := ivm.Build(c.norm, e.schema, seed.Cols, mgr.Config().MaxViewRows)
	if err != nil {
		mgr.Deny(key)
		return
	}
	e.ivmMu.Lock()
	defer e.ivmMu.Unlock()
	if e.views.Load() != mgr {
		// SetIVMConfig swapped the manager while we waited on the fence.
		return
	}
	if mgr.Has(key) || mgr.Denied(key) {
		return
	}
	// A failed seeding is recorded as a denial by Install itself.
	_ = mgr.Install(key, v, e.db, c, cost)
}

// trackedWrite is the non-durable write path of an IVM-enabled engine:
// when any live view depends on rel, the store apply and the view delta
// dispatch happen under one per-tuple stripe lock, so store order and
// view order agree for every tuple.
func (e *Engine) trackedWrite(rel string, t value.Tuple, del bool) (bool, error) {
	e.ivmMu.RLock()
	defer e.ivmMu.RUnlock()
	mgr := e.views.Load()
	if mgr == nil || !mgr.Tracks(rel) {
		// No view depends on rel, and holding the fence shared means no
		// view over rel can be mid-build either — write plainly.
		if del {
			return e.db.Delete(rel, t)
		}
		return e.db.Insert(rel, t)
	}
	mu := &e.wstripes[writeStripe(rel, t)]
	mu.Lock()
	defer mu.Unlock()
	var (
		changed bool
		err     error
	)
	if del {
		changed, err = e.db.Delete(rel, t)
	} else {
		changed, err = e.db.Insert(rel, t)
	}
	if err == nil && changed {
		mgr.OnWrite([]store.TupleOp{{Rel: rel, T: t, Del: del}})
	}
	return changed, err
}

// trackedApplyBatch is ApplyBatch for an IVM-enabled engine: when a view
// depends on any batched relation, the batch holds its stripe locks
// across apply+dispatch (like the durable path) and forwards exactly the
// ops that changed the store.
func (e *Engine) trackedApplyBatch(ops []store.TupleOp) error {
	e.ivmMu.RLock()
	defer e.ivmMu.RUnlock()
	mgr := e.views.Load()
	track := false
	if mgr != nil {
		for _, op := range ops {
			if mgr.Tracks(op.Rel) {
				track = true
				break
			}
		}
	}
	if !track {
		return e.db.ApplyBatch(ops)
	}
	var stripes [64]bool
	for _, op := range ops {
		stripes[writeStripe(op.Rel, op.T)] = true
	}
	for i := range stripes {
		if stripes[i] {
			e.wstripes[i].Lock()
			defer e.wstripes[i].Unlock()
		}
	}
	changed, err := e.db.ApplyBatchReport(ops)
	var delta []store.TupleOp
	for i, op := range ops {
		if changed[i] {
			delta = append(delta, op)
		}
	}
	if len(delta) > 0 {
		mgr.OnWrite(delta)
	}
	return err
}
