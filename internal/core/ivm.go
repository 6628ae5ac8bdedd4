package core

import (
	"repro/internal/exec"
	"repro/internal/ivm"
	"repro/internal/ra"
)

// viewKey derives the serving key of a materialized answer. The answer of
// a query is independent of the engine version (tuple writes are
// maintained, schema changes purge), but the compile artifact stored with
// the view is shaped by the Minimize/Rewrite options, and error semantics
// differ too (an uncovered query with Rewrite off must keep failing under
// FallbackToBaseline=false) — so views are keyed per option shape, like
// plan-cache entries minus the version.
func viewKey(fp ra.Key, opts Options) ivm.Key {
	return ivm.Key{Query: fp, Shape: shapeOf(opts)}
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
func (e *Engine) materialize(mgr *ivm.Manager, key ivm.Key, c *compiled, seed *exec.Table, cost float64) {
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
