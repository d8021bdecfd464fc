//! Compiled evaluation plans: the *Play* button, amortized.
//!
//! [`Sheet::play`] re-derives both dependency graphs, re-resolves every
//! element path, and deep-clones model state on every call. That is
//! fine for one press of Play, but what-if exploration (sweeps,
//! sensitivities, Monte-Carlo) evaluates the same design hundreds of
//! times with only a few global values changing. [`CompiledSheet`]
//! splits the work:
//!
//! * **compile** (once): globals toposorted, row `P_`/`A_` reference
//!   edges resolved in linear time, elements resolved to shared
//!   [`Arc<LibraryElement>`] handles, per-row binding lists and
//!   reference names flattened, sub-sheets compiled recursively;
//! * **play** (many): [`CompiledSheet::play_with`] evaluates the plan
//!   against a set of global overrides without cloning the sheet or
//!   touching the registry.
//!
//! The compiled form is faithful to [`Sheet::play`] *bit for bit*,
//! including every error case and error precedence: structural errors
//! discovered at compile time (duplicate idents, row cycles, unknown
//! elements) are deferred and surface at exactly the point in the
//! evaluation sequence where the uncompiled engine would have found
//! them. Global overrides are literals, which can change the *global*
//! dependency graph (an override can break a cycle, and overriding an
//! undefined name can introduce edges into it), so every set of override
//! names gets its own small [`OverridePlan`] (hoisted once per sweep);
//! the expensive row plan never depends on overrides and is always
//! reused. Rows always run as the sheet's register program (see
//! [`crate::bytecode`]); the scope-chain tree walker is kept only as the
//! oracle behind [`CompiledSheet::play_with_tree`].
//!
//! A plan snapshots the sheet and registry at compile time: recompile
//! after editing rows, bindings, global *formulas*, or library
//! contents. Changing global *values* is what [`CompiledSheet::play_with`]
//! is for.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use powerplay_expr::{Expr, Scope};
use powerplay_library::{LibraryElement, Registry};
use powerplay_telemetry::{profile, Counter, Histogram};
use powerplay_units::Power;

use crate::bytecode::{bytecode_metrics, Lanes, Program, TrapHit, WIDTH};
use crate::engine::{toposort, EvaluateSheetError};
use crate::report::{RowReport, SheetReport};
use crate::row::{Row, RowModel};
use crate::sheet::Sheet;

/// Engine-layer metrics, registered once in the process-global registry.
/// Only the *top-level* compile/play entry points record here; sub-sheet
/// compilation goes through [`CompiledSheet::compile_impl`] and sub-sheet
/// rows run inside their parent's program, so a hierarchical design
/// counts as one compile and one play (rows are counted at every level).
pub(crate) struct PlanMetrics {
    compile_seconds: Histogram,
    replay_seconds: Histogram,
    plays_total: Counter,
    pub(crate) rows_evaluated_total: Counter,
    delta_replay_seconds: Histogram,
    delta_replays_total: Counter,
    delta_fallbacks_total: Counter,
    delta_memo_hits_total: Counter,
    delta_dirty_rows: Histogram,
}

pub(crate) fn plan_metrics() -> &'static PlanMetrics {
    static METRICS: OnceLock<PlanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = powerplay_telemetry::global();
        PlanMetrics {
            compile_seconds: g.histogram(
                "powerplay_sheet_compile_seconds",
                "Time to compile a sheet into an evaluation plan",
            ),
            replay_seconds: g.histogram(
                "powerplay_sheet_replay_seconds",
                "Time to replay a compiled plan (one top-level play)",
            ),
            plays_total: g.counter(
                "powerplay_sheet_plays_total",
                "Top-level plays of compiled plans",
            ),
            rows_evaluated_total: g.counter(
                "powerplay_sheet_rows_evaluated_total",
                "Rows evaluated, sub-sheet rows included",
            ),
            delta_replay_seconds: g.histogram(
                "powerplay_sheet_delta_replay_seconds",
                "Time per incremental delta replay (memo hits included)",
            ),
            delta_replays_total: g.counter(
                "powerplay_sheet_delta_replays_total",
                "Incremental delta replays of compiled plans",
            ),
            delta_fallbacks_total: g.counter(
                "powerplay_sheet_delta_fallbacks_total",
                "Delta replays that fell back to a full replay (dirty frontier over threshold)",
            ),
            delta_memo_hits_total: g.counter(
                "powerplay_sheet_delta_memo_hits_total",
                "Delta replays answered from the previous report (no global changed)",
            ),
            delta_dirty_rows: g.value_histogram(
                "powerplay_sheet_delta_dirty_rows",
                "Top-level rows re-evaluated per delta replay",
            ),
        }
    })
}

/// Process-unique plan identities, so an [`OverridePlan`] is only ever
/// played against the sheet it was built for.
static PLAN_IDS: AtomicU64 = AtomicU64::new(1);

/// Resolved global values: the declared globals in declaration order,
/// then the names an override plan appends.
type Resolved = Vec<(String, f64)>;

/// Per-thread scratch register file for bytecode replays, so repeated
/// plays on one thread reuse a single allocation.
fn with_scratch_regs<T>(f: impl FnOnce(&mut Vec<f64>) -> T) -> T {
    thread_local! {
        static REGS: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    REGS.with(|cell| f(&mut cell.borrow_mut()))
}

/// A sheet compiled against a registry, ready for repeated evaluation.
///
/// ```
/// use powerplay_library::builtin::ucb_library;
/// use powerplay_sheet::{CompiledSheet, Sheet};
///
/// let mut sheet = Sheet::new("demo");
/// sheet.set_global("vdd", "1.5").unwrap();
/// sheet.set_global("f", "2MHz").unwrap();
/// sheet.add_element_row("Reg", "ucb/register", [("bits", "16")]).unwrap();
///
/// let lib = ucb_library();
/// let plan = CompiledSheet::compile(&sheet, &lib);
/// let base = plan.play().unwrap().total_power();
/// let doubled = plan.play_with(&[("vdd", 3.0)]).unwrap().total_power();
/// assert!((doubled / base - 4.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSheet {
    /// Process-unique identity (clones share it — same content).
    id: u64,
    pub(crate) name: Arc<str>,
    pub(crate) globals: Vec<CompiledGlobal>,
    /// The plan of the un-overridden sheet. Its program cell holds the
    /// sheet's register program, shared by every plan that appends no
    /// name (see [`OverridePlan::program`]).
    base: OverridePlan,
    /// Row plan, or the structural error the engine would report.
    pub(crate) structure: Result<RowsPlan, EvaluateSheetError>,
}

#[derive(Debug, Clone)]
pub(crate) struct CompiledGlobal {
    pub(crate) name: Arc<str>,
    pub(crate) expr: Expr,
    /// Free variables of `expr`, precomputed so per-play graph repair
    /// under overrides never re-walks the AST.
    pub(crate) free: BTreeSet<String>,
}

#[derive(Debug, Clone)]
pub(crate) struct RowsPlan {
    pub(crate) rows: Vec<CompiledRow>,
    /// Dependency-respecting evaluation order over `rows` indices.
    pub(crate) order: Vec<usize>,
    /// Per-row *watched* name sets: every name whose value in the
    /// enclosing scope can influence the row's report. An
    /// over-approximation (union of binding free variables, element
    /// model free variables minus declared parameters, the reserved `f`
    /// rate, or a sub-sheet's external frees) — extra names only cause
    /// extra re-evaluation, never a stale result.
    watched: Vec<BTreeSet<String>>,
    /// Inverted watch index: name → rows watching it (dirty seeding).
    pub(crate) watchers: BTreeMap<String, Vec<usize>>,
    /// Forward `P_`/`A_` edges: row → rows watching its outputs
    /// (dirty propagation when a re-evaluated row's output changes).
    pub(crate) dependents: Vec<Vec<usize>>,
}

/// Every name a play touches is interned here as a shared `Arc<str>`, so
/// per-play scope bindings and report fields are reference-count bumps,
/// not string allocations.
#[derive(Debug, Clone)]
pub(crate) struct CompiledRow {
    pub(crate) name: Arc<str>,
    pub(crate) ident: Arc<str>,
    pub(crate) doc_link: Option<Arc<str>>,
    pub(crate) bindings: Vec<(Arc<str>, Expr)>,
    /// `P_<ident>` / `A_<ident>`, formatted once at compile time.
    pub(crate) power_ref: Option<Arc<str>>,
    pub(crate) area_ref: Option<Arc<str>>,
    /// Element parameter defaults, prebuilt so each play seeds the row's
    /// scope with one table copy instead of per-parameter inserts.
    pub(crate) defaults: Scope<'static>,
    /// `(name, default)` pairs sorted by name, precomputed so the
    /// diagnostics path ([`RowView::param_defaults`]) never re-sorts.
    defaults_sorted: Vec<(Arc<str>, f64)>,
    /// Element parameter names in declaration order (report column).
    pub(crate) param_names: Vec<Arc<str>>,
    /// The element's display name, interned for the report.
    pub(crate) element_name: Option<Arc<str>>,
    pub(crate) kind: CompiledRowKind,
}

#[derive(Debug, Clone)]
pub(crate) enum CompiledRowKind {
    /// A resolved library or inline element, shared with the registry.
    Element(Arc<LibraryElement>),
    /// A path the registry could not resolve; erroring is deferred to
    /// evaluation so error precedence matches the uncompiled engine.
    Missing { path: String },
    /// A nested design, itself compiled.
    SubSheet(Box<CompiledSheet>),
}

impl CompiledSheet {
    /// Compiles `sheet` against `registry`.
    ///
    /// Never fails: errors the uncompiled engine would raise (circular
    /// globals, duplicate idents, row cycles, unknown elements) are
    /// recorded in the plan and returned by the play methods at the
    /// point evaluation would have reached them.
    pub fn compile(sheet: &Sheet, registry: &Registry) -> CompiledSheet {
        let _timer = plan_metrics().compile_seconds.start_timer();
        let plan = Self::compile_impl(sheet, registry);
        // Lower the whole hierarchy (sub-sheets inlined) into one flat
        // register-machine program now, so compiling pays for it rather
        // than the first play. A sub-plan's rows are spans inside its
        // parent's program; played on its own, it lowers on first play.
        if let Ok(rows) = &plan.structure {
            plan.base.program(&plan, rows);
        }
        plan
    }

    /// [`CompiledSheet::compile`] minus the metrics, so sub-sheet
    /// recursion inside `compile_rows` doesn't count extra compiles.
    pub(crate) fn compile_impl(sheet: &Sheet, registry: &Registry) -> CompiledSheet {
        let _span = profile::span_lazy(|| format!("compile {}", sheet.name()));
        let globals: Vec<CompiledGlobal> = sheet
            .globals()
            .iter()
            .map(|(name, expr)| CompiledGlobal {
                name: Arc::from(name.as_str()),
                free: expr.free_variables(),
                expr: expr.clone(),
            })
            .collect();
        let id = PLAN_IDS.fetch_add(1, Ordering::Relaxed);
        CompiledSheet {
            id,
            name: Arc::from(sheet.name()),
            base: OverridePlan::new(id, Vec::new(), &globals),
            structure: compile_rows(sheet, registry),
            globals,
        }
    }

    /// Number of top-level rows (0 when the sheet has a structural
    /// error). Useful to compare against [`ReplayState::last_dirty_rows`].
    pub fn row_count(&self) -> usize {
        self.structure.as_ref().map(|p| p.rows.len()).unwrap_or(0)
    }

    /// Names this sheet may read from an enclosing scope when played as
    /// a sub-sheet: global formula frees and row watched names, minus
    /// the sheet's own global names and its internal `P_`/`A_` refs
    /// (both always shadow the parent). Over-approximate by design.
    fn external_free(&self) -> BTreeSet<String> {
        let global_names: BTreeSet<&str> = self.globals.iter().map(|g| &*g.name).collect();
        let mut out = BTreeSet::new();
        for g in &self.globals {
            out.extend(
                g.free
                    .iter()
                    .filter(|v| !global_names.contains(v.as_str()))
                    .cloned(),
            );
        }
        if let Ok(plan) = &self.structure {
            let internal_refs: BTreeSet<&str> = plan
                .rows
                .iter()
                .flat_map(|r| [r.power_ref.as_deref(), r.area_ref.as_deref()])
                .flatten()
                .collect();
            for w in &plan.watched {
                out.extend(
                    w.iter()
                        .filter(|v| {
                            !global_names.contains(v.as_str())
                                && !internal_refs.contains(v.as_str())
                        })
                        .cloned(),
                );
            }
        }
        out
    }

    /// Evaluates the plan with no overrides — equivalent to
    /// [`Sheet::play`] on the compiled sheet.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Sheet::play`].
    pub fn play(&self) -> Result<SheetReport, EvaluateSheetError> {
        self.play_with_plan(&self.base, &[])
    }

    /// Evaluates the plan with the given global value overrides —
    /// equivalent to cloning the sheet, calling
    /// [`Sheet::set_global_value`] for each pair in order, and playing,
    /// but with no clone and no dependency re-analysis of the rows.
    ///
    /// Overriding a name not currently a global appends it, exactly as
    /// [`Sheet::set_global_value`] would.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Sheet::play`] on the overridden sheet.
    pub fn play_with(&self, overrides: &[(&str, f64)]) -> Result<SheetReport, EvaluateSheetError> {
        let (names, values) = dedup_overrides(overrides);
        self.play_with_plan(&self.override_plan(&names), &values)
    }

    /// Like [`CompiledSheet::play_with`] but through the scope-chain tree
    /// walker instead of the register program — the reference oracle the
    /// parity test suite (and its timing gate) compare the program
    /// against.
    ///
    /// # Errors
    ///
    /// Exactly those of [`CompiledSheet::play_with`].
    pub fn play_with_tree(
        &self,
        overrides: &[(&str, f64)],
    ) -> Result<SheetReport, EvaluateSheetError> {
        let metrics = plan_metrics();
        metrics.plays_total.inc();
        let _timer = metrics.replay_seconds.start_timer();
        let (names, values) = dedup_overrides(overrides);
        self.play_tree(&Scope::new(), &self.override_plan(&names), &values)
    }

    /// The tree walker: globals resolved through `plan` in a child of
    /// `parent`, then every row through the scope chain. A nested
    /// sub-sheet plays its base plan with the row's parameter scope as
    /// `parent`.
    fn play_tree(
        &self,
        parent: &Scope<'_>,
        plan: &OverridePlan,
        values: &[f64],
    ) -> Result<SheetReport, EvaluateSheetError> {
        let _span = profile::span_lazy(|| format!("play {}", self.name));
        let inner = plan.inner.as_ref().map_err(Clone::clone)?;
        let mut globals_scope = parent.child();
        let resolved = self.eval_globals_with_plan(&mut globals_scope, plan, inner, values)?;
        let rows_plan = self.structure.as_ref().map_err(Clone::clone)?;
        let rows = eval_rows_full(rows_plan, &globals_scope)?;
        Ok(SheetReport::new(self.name.clone(), resolved, rows))
    }

    /// Precomputes everything about a set of override *names* that every
    /// play with those names shares: name → global-slot resolution, the
    /// reshaped global dependency graph, and its toposort (or the
    /// `CircularGlobals` error every play with these names would raise).
    /// The graph shape depends only on the names, never the values, so a
    /// sweep resolves it once and plays each point with
    /// [`CompiledSheet::play_with_plan`].
    ///
    /// Duplicate names collapse to one slot (later values win, matching
    /// [`Sheet::set_global_value`] applied in sequence).
    pub fn override_plan(&self, names: &[&str]) -> OverridePlan {
        let mut uniq: Vec<String> = Vec::new();
        for &n in names {
            if !uniq.iter().any(|u| u == n) {
                uniq.push(n.to_owned());
            }
        }
        OverridePlan::new(self.id, uniq, &self.globals)
    }

    /// Resolves globals through a precomputed [`OverridePlan`], setting
    /// each into `globals_scope` as it goes.
    fn eval_globals_with_plan(
        &self,
        globals_scope: &mut Scope<'_>,
        plan: &OverridePlan,
        inner: &OverridePlanInner,
        values: &[f64],
    ) -> Result<Resolved, EvaluateSheetError> {
        let node_count = self.globals.len() + inner.appended.len();
        let mut resolved: Vec<Option<(String, f64)>> = vec![None; node_count];
        for &k in &inner.order {
            let (name, value) = if k < self.globals.len() {
                let g = &self.globals[k];
                let value =
                    match inner.global_slot[k] {
                        Some(slot) => values[slot],
                        None => g.expr.eval(globals_scope).map_err(|source| {
                            EvaluateSheetError::Global {
                                name: g.name.to_string(),
                                source,
                            }
                        })?,
                    };
                globals_scope.set(g.name.clone(), value);
                (g.name.to_string(), value)
            } else {
                let slot = inner.appended[k - self.globals.len()];
                let name = plan.names[slot].clone();
                globals_scope.set(Arc::<str>::from(name.as_str()), values[slot]);
                (name, values[slot])
            };
            resolved[k] = Some((name, value));
        }
        Ok(resolved
            .into_iter()
            .map(|slot| slot.expect("every global evaluated"))
            .collect())
    }

    /// Everything a play does before any row runs, in the engine's
    /// error order: the global errors of `plan`, then the structural
    /// error of the rows. Returns the resolved globals, the row plan and
    /// the register program for `plan`'s names.
    fn prepare<'a>(
        &'a self,
        plan: &'a OverridePlan,
        values: &[f64],
    ) -> Result<(Resolved, &'a RowsPlan, &'a Arc<Program>), EvaluateSheetError> {
        assert_eq!(
            plan.plan_id, self.id,
            "override plan built for a different compiled sheet"
        );
        assert_eq!(
            values.len(),
            plan.names.len(),
            "one value per planned override name"
        );
        let inner = plan.inner.as_ref().map_err(Clone::clone)?;
        let resolved = self.eval_globals_with_plan(&mut Scope::new(), plan, inner, values)?;
        let rows_plan = self.structure.as_ref().map_err(Clone::clone)?;
        Ok((resolved, rows_plan, plan.program(self, rows_plan)))
    }

    /// A full (non-incremental) play through a precomputed
    /// [`OverridePlan`]. `values` align with [`OverridePlan::names`].
    ///
    /// # Errors
    ///
    /// Exactly those of [`CompiledSheet::play_with`] on the
    /// corresponding `(name, value)` pairs.
    pub fn play_with_plan(
        &self,
        plan: &OverridePlan,
        values: &[f64],
    ) -> Result<SheetReport, EvaluateSheetError> {
        let metrics = plan_metrics();
        metrics.plays_total.inc();
        let _timer = metrics.replay_seconds.start_timer();
        let _span = profile::span_lazy(|| format!("play {}", self.name));
        let (resolved, _, prog) = self.prepare(plan, values)?;
        with_scratch_regs(|regs| prog.replay_full(self.name.clone(), resolved, regs))
    }

    /// Incremental replay: re-evaluates only the rows whose watched
    /// names changed since the last successful replay recorded in
    /// `state`, reusing the previous report for clean rows. Falls back
    /// to a full replay when the potential dirty frontier exceeds
    /// [`DELTA_FALLBACK_NUM`]/[`DELTA_FALLBACK_DEN`] of the rows.
    ///
    /// The result is bit-for-bit identical to
    /// [`CompiledSheet::play_with`] with the same overrides. A global or
    /// structural error leaves `state` as it was; an error while rows
    /// run drops its baseline, so the next replay through it is a full
    /// one. Sub-sheet rows are macro-lumped — a dirty sub-sheet row
    /// replays its whole subtree.
    ///
    /// # Errors
    ///
    /// Exactly those of [`CompiledSheet::play_with`].
    pub fn replay_delta(
        &self,
        state: &mut ReplayState,
        overrides: &[(&str, f64)],
    ) -> Result<SheetReport, EvaluateSheetError> {
        let (names, values) = dedup_overrides(overrides);
        let cached = state.override_plan.as_ref().filter(|p| {
            p.plan_id == self.id && p.names.iter().map(String::as_str).eq(names.iter().copied())
        });
        let plan = match cached {
            Some(p) => p.clone(),
            None => {
                let p = Arc::new(self.override_plan(&names));
                state.override_plan = Some(p.clone());
                p
            }
        };
        self.replay_delta_with_plan(&plan, state, &values)
    }

    /// [`CompiledSheet::replay_delta`] with the override-name resolution
    /// already hoisted into `plan` (see [`CompiledSheet::override_plan`]).
    /// `values` align with [`OverridePlan::names`].
    ///
    /// # Errors
    ///
    /// Exactly those of [`CompiledSheet::play_with`].
    pub fn replay_delta_with_plan(
        &self,
        plan: &OverridePlan,
        state: &mut ReplayState,
        values: &[f64],
    ) -> Result<SheetReport, EvaluateSheetError> {
        let metrics = plan_metrics();
        metrics.delta_replays_total.inc();
        let _timer = metrics.delta_replay_seconds.start_timer();
        let _span = profile::span_lazy(|| format!("delta-play {}", self.name));
        let (resolved, rows_plan, prog) = self.prepare(plan, values)?;

        // A usable baseline is the last report of this same program with
        // the register image it left. Anything else (a first play,
        // another program, an image an error left half-written) replays
        // in full. The baseline is taken out while rows run, so an error
        // leaves none behind.
        let prev = match state.baseline.take() {
            Some((p, report)) if Arc::ptr_eq(&p, prog) => report,
            _ => return self.full_replay_for_delta(prog, resolved, state, DeltaOutcome::Full),
        };

        // Same program, so the same global names in the same positions.
        let changed: Vec<&str> = resolved
            .iter()
            .zip(prev.globals())
            .filter(|((_, value), (_, pv))| value.to_bits() != pv.to_bits())
            .map(|((name, _), _)| name.as_str())
            .collect();

        // Memoized point: nothing changed, so the previous rows stand
        // verbatim (the globals vector is rebuilt — its order follows
        // this call's override plan, as a fresh play's would).
        if changed.is_empty() {
            metrics.delta_memo_hits_total.inc();
            metrics.delta_dirty_rows.observe_value(0);
            let report = SheetReport::new(self.name.clone(), resolved, prev.rows().to_vec());
            state.commit(prog, &report, 0, DeltaOutcome::Memo);
            return Ok(report);
        }

        // Seed the dirty set from the watch index.
        state.dirty.clear();
        state.dirty.resize(rows_plan.rows.len(), false);
        for name in &changed {
            if let Some(watchers) = rows_plan.watchers.get(*name) {
                for &i in watchers {
                    state.dirty[i] = true;
                }
            }
        }

        // Threshold decision on the transitive closure (an upper bound:
        // the targeted walk below stops propagating when a re-evaluated
        // row's outputs come back bit-identical).
        let mut closure = state.dirty.clone();
        let mut stack: Vec<usize> = closure
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(i))
            .collect();
        let mut potential = stack.len();
        while let Some(i) = stack.pop() {
            for &d in &rows_plan.dependents[i] {
                if !closure[d] {
                    closure[d] = true;
                    potential += 1;
                    stack.push(d);
                }
            }
        }
        if potential * DELTA_FALLBACK_DEN > rows_plan.rows.len() * DELTA_FALLBACK_NUM {
            metrics.delta_fallbacks_total.inc();
            return self.full_replay_for_delta(prog, resolved, state, DeltaOutcome::Fallback);
        }

        // Targeted walk in plan order over the baseline's register image
        // (clean rows cannot error — identical inputs ran successfully
        // last time).
        let (rows, evaluated) = delta_walk(
            prog,
            rows_plan,
            &resolved,
            &prev,
            &mut state.dirty,
            &mut state.regs,
        )?;
        metrics.rows_evaluated_total.add(evaluated as u64);
        metrics.delta_dirty_rows.observe_value(evaluated as u64);
        let report = SheetReport::new(self.name.clone(), resolved, rows);
        state.commit(prog, &report, evaluated, DeltaOutcome::Incremental);
        Ok(report)
    }

    /// The full replay shared by the no-baseline and over-threshold
    /// branches of [`CompiledSheet::replay_delta_with_plan`]: runs the
    /// whole program into the state's register file, which then mirrors
    /// the new baseline.
    fn full_replay_for_delta(
        &self,
        prog: &Arc<Program>,
        resolved: Resolved,
        state: &mut ReplayState,
        outcome: DeltaOutcome,
    ) -> Result<SheetReport, EvaluateSheetError> {
        let metrics = plan_metrics();
        metrics.plays_total.inc();
        let report = prog.replay_full(self.name.clone(), resolved, &mut state.regs)?;
        let rows = self.row_count();
        state.commit(prog, &report, rows, outcome);
        metrics.delta_dirty_rows.observe_value(rows as u64);
        Ok(report)
    }
}

/// Collapses `(name, value)` override pairs to one value per name, in
/// order of first appearance; later values win, as
/// [`Sheet::set_global_value`] applied in sequence would.
fn dedup_overrides<'a>(overrides: &[(&'a str, f64)]) -> (Vec<&'a str>, Vec<f64>) {
    let mut names: Vec<&str> = Vec::with_capacity(overrides.len());
    let mut values: Vec<f64> = Vec::with_capacity(overrides.len());
    for &(name, value) in overrides {
        if let Some(p) = names.iter().position(|&n| n == name) {
            values[p] = value;
        } else {
            names.push(name);
            values.push(value);
        }
    }
    (names, values)
}

/// Fall back to a full replay when the potential dirty frontier exceeds
/// `DELTA_FALLBACK_NUM / DELTA_FALLBACK_DEN` of the top-level rows: past
/// that point the targeted walk re-evaluates nearly everything anyway
/// and the bookkeeping is pure overhead.
pub const DELTA_FALLBACK_NUM: usize = 3;
/// See [`DELTA_FALLBACK_NUM`].
pub const DELTA_FALLBACK_DEN: usize = 4;

/// The override-name resolution and reshaped global plan shared by every
/// point of a sweep — built once by [`CompiledSheet::override_plan`].
#[derive(Debug, Clone)]
pub struct OverridePlan {
    plan_id: u64,
    names: Vec<String>,
    inner: Result<OverridePlanInner, EvaluateSheetError>,
    /// This plan's register program, lowered on first use. A plan that
    /// appends no name leaves it empty, except the sheet's base plan,
    /// whose cell holds the program all such plans share (see
    /// [`OverridePlan::program`]).
    program: OnceLock<Arc<Program>>,
}

impl OverridePlan {
    fn new(plan_id: u64, names: Vec<String>, globals: &[CompiledGlobal]) -> OverridePlan {
        OverridePlan {
            plan_id,
            inner: build_override_inner(globals, &names),
            names,
            program: OnceLock::new(),
        }
    }

    /// The de-duplicated override names; values passed to
    /// [`CompiledSheet::play_with_plan`] and
    /// [`CompiledSheet::replay_delta_with_plan`] align with this order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The global evaluation order under these override names, as node
    /// indices: nodes below the sheet's global count are its declared
    /// globals (indices into [`CompiledSheet::globals_view`]), the rest
    /// are the names this plan appends, in [`OverridePlan::names`] order.
    ///
    /// # Errors
    ///
    /// The `CircularGlobals` error every play with these names raises.
    pub fn global_order(&self) -> Result<&[usize], &EvaluateSheetError> {
        match &self.inner {
            Ok(inner) => Ok(&inner.order),
            Err(err) => Err(err),
        }
    }

    /// `names` slots that append new globals (none when the plan errors).
    fn appended(&self) -> &[usize] {
        self.inner.as_ref().map_or(&[], |inner| &inner.appended)
    }

    /// The register program plays through this plan run. A plan that
    /// appends no name shares the sheet's program, held by its base
    /// plan. One that does gets its own, with a global register per
    /// appended name after the declared ones, lowered on its first play:
    /// building a plan lowers nothing, so the oracle and the analyzer
    /// can build plans they never play.
    fn program<'a>(&'a self, sheet: &'a CompiledSheet, rows: &RowsPlan) -> &'a Arc<Program> {
        let appended = self.appended();
        let cell = if appended.is_empty() {
            &sheet.base.program
        } else {
            &self.program
        };
        cell.get_or_init(|| {
            let names: Vec<&str> = appended
                .iter()
                .map(|&slot| self.names[slot].as_str())
                .collect();
            Arc::new(Program::lower(sheet, rows, &names))
        })
    }
}

#[derive(Debug, Clone)]
struct OverridePlanInner {
    /// Per compiled global: the `names` slot overriding it, if any.
    global_slot: Vec<Option<usize>>,
    /// `names` slots that append new globals, in append order.
    appended: Vec<usize>,
    /// Toposorted node order (nodes: globals, then appended).
    order: Vec<usize>,
}

/// Orders the globals under a set of override names — the one place the
/// engine does. Overridden globals become literals, which removes their
/// outgoing dependency edges (and can dissolve cycles); a name that is
/// not a global appends a literal node that formulas may now read. Error
/// precedence: a self-referential formula errors first (lowest
/// declaration index), then cycles surface from the toposort.
fn build_override_inner(
    globals: &[CompiledGlobal],
    names: &[String],
) -> Result<OverridePlanInner, EvaluateSheetError> {
    let mut global_slot: Vec<Option<usize>> = vec![None; globals.len()];
    let mut appended: Vec<usize> = Vec::new();
    for (slot, name) in names.iter().enumerate() {
        if let Some(i) = globals.iter().position(|g| &*g.name == name.as_str()) {
            global_slot[i] = Some(slot);
        } else {
            appended.push(slot);
        }
    }
    let node_count = globals.len() + appended.len();
    let name_of = |k: usize| -> &str {
        if k < globals.len() {
            &globals[k].name
        } else {
            &names[appended[k - globals.len()]]
        }
    };
    let index_of: BTreeMap<&str, usize> = (0..node_count).map(|k| (name_of(k), k)).collect();
    let mut deps: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for k in 0..node_count {
        deps.entry(k).or_default();
    }
    for (k, (slot, g)) in global_slot.iter().zip(globals).enumerate() {
        if slot.is_some() {
            continue; // overridden: a constant, no formula deps
        }
        if g.free.contains(&*g.name) {
            return Err(EvaluateSheetError::CircularGlobals(vec![g
                .name
                .to_string()]));
        }
        let entry = deps.entry(k).or_default();
        for var in &g.free {
            if let Some(&j) = index_of.get(var.as_str()) {
                if j != k {
                    entry.insert(j);
                }
            }
        }
    }
    let order = toposort(node_count, &deps).map_err(|cycle| {
        EvaluateSheetError::CircularGlobals(
            cycle.into_iter().map(|k| name_of(k).to_owned()).collect(),
        )
    })?;
    Ok(OverridePlanInner {
        global_slot,
        appended,
        order,
    })
}

/// How the last [`CompiledSheet::replay_delta`] answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaOutcome {
    /// No replay recorded yet.
    #[default]
    None,
    /// No usable baseline (first play into this state, a different
    /// program, or an error in the last replay): full evaluation.
    Full,
    /// Dirty frontier over threshold: full evaluation.
    Fallback,
    /// No global changed: previous rows reused verbatim.
    Memo,
    /// Targeted walk: only dirty rows re-evaluated.
    Incremental,
}

/// Mutable baseline for [`CompiledSheet::replay_delta`]: the last
/// successful report plus reusable scratch. One per study; reuse across
/// its probes is what makes delta replay allocation-free on the
/// clean-row path.
#[derive(Debug, Clone, Default)]
pub struct ReplayState {
    /// The last successful report and the program whose register image
    /// `regs` holds for it. Keyed by program identity: a plan that
    /// appends names has its own register layout.
    baseline: Option<(Arc<Program>, SheetReport)>,
    override_plan: Option<Arc<OverridePlan>>,
    dirty: Vec<bool>,
    last_dirty_rows: Option<usize>,
    last_outcome: DeltaOutcome,
    /// Persistent register file; mirrors the baseline report.
    regs: Vec<f64>,
}

impl ReplayState {
    /// An empty state; the first replay through it is a full one.
    pub fn new() -> ReplayState {
        ReplayState::default()
    }

    /// Top-level rows re-evaluated by the most recent replay (the full
    /// row count on `Full`/`Fallback`, 0 on `Memo`).
    pub fn last_dirty_rows(&self) -> Option<usize> {
        self.last_dirty_rows
    }

    /// How the most recent replay answered.
    pub fn last_outcome(&self) -> DeltaOutcome {
        self.last_outcome
    }

    fn commit(
        &mut self,
        prog: &Arc<Program>,
        report: &SheetReport,
        dirty: usize,
        outcome: DeltaOutcome,
    ) {
        self.baseline = Some((prog.clone(), report.clone()));
        self.last_dirty_rows = Some(dirty);
        self.last_outcome = outcome;
    }
}

/// A batched bytecode sweep kernel: evaluates up to
/// [`BatchKernel::WIDTH`] override points per instruction-dispatch pass
/// and answers each point's total power.
///
/// Built once per sweep by [`CompiledSheet::batch_kernel`], it replays a
/// baseline (un-overridden) play, then derives a *value-independent*
/// dirty superset — every row whose inputs can depend on any override
/// name, directly or through non-overridden global formulas or
/// `P_`/`A_` chains. Without a usable baseline (the plan appends a name,
/// or the un-overridden play fails) every row is dirty and lanes start
/// from the program's initial register image.
///
/// The kernel owns one lane image for the whole sweep: a
/// `[f64; WIDTH]` array per register, every lane holding the baseline's
/// value when the kernel is built. Each [`BatchKernel::replay_chunk`]
/// call resolves globals per lane with the scalar path (which owns
/// override graph repair and global error precedence), writes only the
/// lanes of the global registers, and executes only the dirty rows'
/// code spans across all lanes at once. Clean rows' registers are never
/// written, so they keep the baseline's values — which cannot differ,
/// because none of their watched inputs can change — and the program is
/// SSA, so every register a dirty span reads is a constant, a global, a
/// clean row's, or one written earlier in the same pass. Every
/// top-level power register then holds the point's value and a lane's
/// total is their fold.
///
/// Results are bit-for-bit `total_power` of
/// [`CompiledSheet::play_with_plan`] per point, including which error
/// surfaces first.
pub struct BatchKernel<'a> {
    plan: &'a CompiledSheet,
    oplan: &'a OverridePlan,
    /// Plan-order traversal of the value-independent dirty superset of
    /// top-level rows.
    dirty_order: Vec<usize>,
    /// The lane image: the baseline play's registers, or the program's
    /// initial image when there is no baseline, in every lane; dirty
    /// rows' registers are rewritten by each chunk.
    lanes: Vec<Lanes>,
}

impl CompiledSheet {
    /// Builds a batched sweep kernel for the override names in `plan`.
    /// Every sweep batches: points that fail before any row runs
    /// (globals, then structure) are answered per lane.
    pub fn batch_kernel<'a>(&'a self, plan: &'a OverridePlan) -> BatchKernel<'a> {
        assert_eq!(
            plan.plan_id, self.id,
            "override plan built for a different compiled sheet"
        );
        let mut kernel = BatchKernel {
            plan: self,
            oplan: plan,
            dirty_order: Vec::new(),
            lanes: Vec::new(),
        };
        // Without rows every lane fails in `prepare`, and nothing runs.
        let Ok(rows_plan) = &self.structure else {
            return kernel;
        };
        let prog = plan.program(self, rows_plan);

        // Baseline: the un-overridden play through the same program, so
        // its register image can seed the lanes. A plan that appends a
        // name has another register layout and no un-overridden value.
        let dirty = with_scratch_regs(|regs| {
            let baseline = plan.appended().is_empty()
                && self
                    .prepare(&self.base, &[])
                    .is_ok_and(|(resolved, _, _)| prog.run_full(&resolved, regs).is_ok());
            let (image, dirty) = match &plan.inner {
                Ok(inner) if baseline => (&regs[..], self.sweep_dirty(plan, inner, rows_plan)),
                _ => (prog.init(), vec![true; rows_plan.rows.len()]),
            };
            kernel.lanes = image.iter().map(|&value| [value; WIDTH]).collect();
            dirty
        });
        kernel.dirty_order = rows_plan
            .order
            .iter()
            .copied()
            .filter(|&i| dirty[i])
            .collect();
        kernel
    }

    /// The rows a sweep over `plan`'s names can change: watchers of the
    /// override names and of the non-overridden global formulas reading
    /// them (to a fixpoint), closed over `P_`/`A_` dependents. Value
    /// independent, so no bitwise pruning — extra rows only cost
    /// execution.
    fn sweep_dirty(
        &self,
        plan: &OverridePlan,
        inner: &OverridePlanInner,
        rows_plan: &RowsPlan,
    ) -> Vec<bool> {
        let mut changed: BTreeSet<&str> = plan.names.iter().map(String::as_str).collect();
        loop {
            let mut grew = false;
            for (i, g) in self.globals.iter().enumerate() {
                if inner.global_slot[i].is_some() || changed.contains(&*g.name) {
                    continue;
                }
                if g.free.iter().any(|v| changed.contains(v.as_str())) {
                    changed.insert(&g.name);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        let mut dirty = vec![false; rows_plan.rows.len()];
        let mut stack: Vec<usize> = Vec::new();
        for name in &changed {
            if let Some(watchers) = rows_plan.watchers.get(*name) {
                for &i in watchers {
                    if !dirty[i] {
                        dirty[i] = true;
                        stack.push(i);
                    }
                }
            }
        }
        while let Some(i) = stack.pop() {
            for &d in &rows_plan.dependents[i] {
                if !dirty[d] {
                    dirty[d] = true;
                    stack.push(d);
                }
            }
        }
        dirty
    }
}

impl BatchKernel<'_> {
    /// Points per [`BatchKernel::replay_chunk`] call at most: the lanes
    /// of one dispatch pass.
    pub const WIDTH: usize = WIDTH;

    /// Plays one point per element of `points` (each a values slice
    /// aligned with the kernel's override-plan names, at most
    /// [`BatchKernel::WIDTH`] of them), batching all lanes through each
    /// dirty row's code span in one dispatch pass over the kernel's lane
    /// image, and answers each point's total power or error. A short
    /// chunk fills its spare lanes with its last live lane, whose
    /// results they repeat and which nobody reads.
    ///
    /// # Panics
    ///
    /// Panics if `points` holds more than [`BatchKernel::WIDTH`] points.
    pub fn replay_chunk<P: AsRef<[f64]>>(
        &mut self,
        points: &[P],
    ) -> Vec<Result<Power, EvaluateSheetError>> {
        assert!(
            points.len() <= WIDTH,
            "a chunk holds at most {WIDTH} points"
        );
        let metrics = plan_metrics();
        let mut out: Vec<Option<Result<Power, EvaluateSheetError>>> = vec![None; points.len()];

        // Scalar global resolution and structure check per lane; a point
        // that errors there is answered immediately and gets no lane.
        let mut live: Vec<(usize, Resolved)> = Vec::with_capacity(points.len());
        let mut prog = None;
        for (idx, point) in points.iter().enumerate() {
            match self.plan.prepare(self.oplan, point.as_ref()) {
                Ok((resolved, _, p)) => {
                    prog = Some(p);
                    live.push((idx, resolved));
                }
                Err(err) => out[idx] = Some(Err(err)),
            }
        }

        if let Some(prog) = prog {
            let m = live.len();
            metrics.plays_total.add(m as u64);
            metrics
                .rows_evaluated_total
                .add((self.dirty_order.len() * m) as u64);
            bytecode_metrics().batch_width.observe_value(m as u64);

            // Each lane's own global values; spare lanes repeat the
            // last live lane.
            for l in 0..WIDTH {
                let (_, resolved) = &live[l.min(m - 1)];
                prog.seed_lane_globals(l, resolved.iter().map(|(_, v)| *v), &mut self.lanes);
            }

            let mut errs: [Option<TrapHit>; WIDTH] = [None; WIDTH];
            let mut instrs = 0u64;
            for &i in &self.dirty_order {
                let (start, end) = prog.row_span(i);
                instrs += u64::from(end - start) * m as u64;
                prog.exec_batch(start, end, &mut self.lanes, &mut errs);
                if errs[..m].iter().all(Option::is_some) {
                    break;
                }
            }
            bytecode_metrics().instrs_total.add(instrs);

            for (l, (idx, _)) in live.into_iter().enumerate() {
                out[idx] = Some(match errs[l] {
                    Some(hit) => Err(prog.materialize(hit)),
                    None => Ok(prog.total_power(|slot| self.lanes[slot as usize][l])),
                });
            }
        }

        out.into_iter()
            .map(|o| o.expect("every lane answered"))
            .collect()
    }
}

/// The row loop shared by full plays: evaluates every row in plan order,
/// threading `P_`/`A_` outputs through the power layer.
fn eval_rows_full(
    plan: &RowsPlan,
    globals_scope: &Scope<'_>,
) -> Result<Vec<RowReport>, EvaluateSheetError> {
    plan_metrics()
        .rows_evaluated_total
        .add(plan.order.len() as u64);
    let mut power_layer = globals_scope.child();
    let mut reports: Vec<Option<RowReport>> = vec![None; plan.rows.len()];
    for &i in &plan.order {
        let row = &plan.rows[i];
        let report = evaluate_compiled_row(row, &power_layer)?;
        set_row_outputs(row, &report, &mut power_layer);
        reports[i] = Some(report);
    }
    Ok(reports
        .into_iter()
        .map(|r| r.expect("every row evaluated"))
        .collect())
}

/// Publishes a row's `P_`/`A_` values into the power layer.
fn set_row_outputs(row: &CompiledRow, report: &RowReport, power_layer: &mut Scope<'_>) {
    if let Some(power_ref) = &row.power_ref {
        power_layer.set(power_ref.clone(), report.power().value());
        if let Some(area) = report.area() {
            let area_ref = row.area_ref.clone().expect("paired with power_ref");
            power_layer.set(area_ref, area.value());
        }
    }
}

/// The targeted walk of an incremental replay: dirty rows re-execute
/// their code spans against the persistent register file (`regs`, a
/// valid image of `prev`), clean rows reuse the previous report
/// verbatim. A dirty row propagates to its dependents only when its
/// power or area bits actually change. Registers seen by executed rows
/// are identical to a full replay's by induction, so the result is
/// bit-for-bit the same. On success `regs` mirrors the returned rows; on
/// error it holds partial writes and must not be reused as a baseline.
fn delta_walk(
    prog: &Program,
    plan: &RowsPlan,
    resolved: &[(String, f64)],
    prev: &SheetReport,
    dirty: &mut [bool],
    regs: &mut [f64],
) -> Result<(Vec<RowReport>, usize), EvaluateSheetError> {
    prog.seed_globals(resolved.iter().map(|(_, v)| *v), regs);
    let mut reports: Vec<Option<RowReport>> = vec![None; plan.rows.len()];
    let mut evaluated = 0usize;
    let mut instrs = 0u64;
    for &i in &plan.order {
        let prev_row = &prev.rows()[i];
        if !dirty[i] {
            reports[i] = Some(prev_row.clone());
            continue;
        }
        evaluated += 1;
        let (start, end) = prog.row_span(i);
        instrs += u64::from(end - start);
        if let Err(hit) = prog.exec(start, end, regs) {
            bytecode_metrics().instrs_total.add(instrs);
            return Err(prog.materialize(hit));
        }
        let fresh = prog.build_row_report(i, &|slot: u32| regs[slot as usize]);
        let power_changed = fresh.power().value().to_bits() != prev_row.power().value().to_bits();
        let area_changed = fresh.area().map(|a| a.value().to_bits())
            != prev_row.area().map(|a| a.value().to_bits());
        if power_changed || area_changed {
            for &d in &plan.dependents[i] {
                dirty[d] = true;
            }
        }
        reports[i] = Some(fresh);
    }
    bytecode_metrics().instrs_total.add(instrs);
    Ok((
        reports
            .into_iter()
            .map(|r| r.expect("every row evaluated"))
            .collect(),
        evaluated,
    ))
}

/// Compiles the row layer: duplicate-ident check, then the `P_`/`A_`
/// reference graph in one linear pass over precomputed free variables
/// (the engine's original scan formatted two candidate names per row
/// *pair* — quadratic in rows), then element resolution to shared
/// handles.
fn compile_rows(sheet: &Sheet, registry: &Registry) -> Result<RowsPlan, EvaluateSheetError> {
    let idents: Vec<String> = sheet.rows().iter().map(Row::ident).collect();
    {
        let mut seen = BTreeSet::new();
        for ident in &idents {
            if !ident.is_empty() && !seen.insert(ident.clone()) {
                return Err(EvaluateSheetError::DuplicateRowIdent(ident.clone()));
            }
        }
    }

    let index_of: BTreeMap<&str, usize> = idents
        .iter()
        .enumerate()
        .filter(|(_, ident)| !ident.is_empty())
        .map(|(i, ident)| (ident.as_str(), i))
        .collect();
    let mut deps: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (i, row) in sheet.rows().iter().enumerate() {
        let mut wanted = BTreeSet::new();
        for (_, expr) in row.bindings() {
            wanted.extend(expr.free_variables());
        }
        let entry = deps.entry(i).or_default();
        for var in &wanted {
            // Rows may reference other rows' power (`P_x`, the converter
            // load of EQ 19) and area (`A_x`: interconnect dissipation as
            // a function of the active area of the composing modules).
            let target = var.strip_prefix("P_").or_else(|| var.strip_prefix("A_"));
            let Some(&j) = target.and_then(|t| index_of.get(t)) else {
                continue;
            };
            if i == j {
                return Err(EvaluateSheetError::CircularRows(vec![row
                    .name()
                    .to_owned()]));
            }
            entry.insert(j);
        }
    }
    let order = toposort(sheet.rows().len(), &deps).map_err(|cycle| {
        EvaluateSheetError::CircularRows(
            cycle
                .into_iter()
                .map(|i| sheet.rows()[i].name().to_owned())
                .collect(),
        )
    })?;

    let rows: Vec<CompiledRow> = sheet
        .rows()
        .iter()
        .zip(&idents)
        .map(|(row, ident)| {
            let kind = match row.model() {
                RowModel::Element(path) => match registry.get_shared(path) {
                    Some(element) => CompiledRowKind::Element(element),
                    None => CompiledRowKind::Missing { path: path.clone() },
                },
                RowModel::Inline(element) => CompiledRowKind::Element(Arc::new(element.clone())),
                RowModel::SubSheet(sub) => {
                    CompiledRowKind::SubSheet(Box::new(CompiledSheet::compile_impl(sub, registry)))
                }
            };
            let mut defaults = Scope::new();
            let mut param_names = Vec::new();
            let mut element_name = None;
            if let CompiledRowKind::Element(element) = &kind {
                param_names.reserve_exact(element.params().len());
                for p in element.params() {
                    let name: Arc<str> = Arc::from(p.name.as_str());
                    defaults.set(name.clone(), p.default);
                    param_names.push(name);
                }
                element_name = Some(Arc::from(element.name()));
            }
            let mut defaults_sorted: Vec<(Arc<str>, f64)> = param_names
                .iter()
                .map(|n| (n.clone(), defaults.get(n).expect("default just set")))
                .collect();
            defaults_sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            CompiledRow {
                name: Arc::from(row.name()),
                power_ref: (!ident.is_empty()).then(|| Arc::from(format!("P_{ident}"))),
                area_ref: (!ident.is_empty()).then(|| Arc::from(format!("A_{ident}"))),
                ident: Arc::from(ident.as_str()),
                doc_link: row.doc_link().map(Arc::from),
                bindings: row
                    .bindings()
                    .iter()
                    .map(|(param, expr)| (Arc::from(param.as_str()), expr.clone()))
                    .collect(),
                defaults,
                defaults_sorted,
                param_names,
                element_name,
                kind,
            }
        })
        .collect();
    let WatchIndex {
        watched,
        watchers,
        dependents,
    } = build_watch_index(&rows, &index_of);
    Ok(RowsPlan {
        rows,
        order,
        watched,
        watchers,
        dependents,
    })
}

/// The compile-time dirtiness machinery of a [`RowsPlan`], built by
/// [`build_watch_index`].
struct WatchIndex {
    watched: Vec<BTreeSet<String>>,
    watchers: BTreeMap<String, Vec<usize>>,
    dependents: Vec<Vec<usize>>,
}

/// Per-row watched name sets, their inverted index, and the forward
/// `P_`/`A_` dependency edges — the compile-time half of delta replay.
///
/// A row's watched set over-approximates every name it can read from the
/// enclosing scope: free variables of its bindings, its element model's
/// free variables (minus declared parameters — always shadowed by the
/// seeded defaults) plus the reserved `f` rate the report captures, or a
/// sub-sheet's external frees. Extra names cost extra re-evaluation;
/// missing ones would cost correctness, so nothing else is subtracted.
fn build_watch_index(rows: &[CompiledRow], index_of: &BTreeMap<&str, usize>) -> WatchIndex {
    let watched: Vec<BTreeSet<String>> = rows
        .iter()
        .map(|row| {
            let mut w = BTreeSet::new();
            for (_, expr) in &row.bindings {
                w.extend(expr.free_variables());
            }
            match &row.kind {
                CompiledRowKind::Element(element) => {
                    w.extend(element_model_free(element));
                    w.retain(|v| !element.params().iter().any(|p| p.name == *v));
                    // The report records the access rate from scope.
                    w.insert("f".to_owned());
                }
                CompiledRowKind::SubSheet(sub) => {
                    w.extend(sub.external_free());
                }
                // Evaluation always errors; dirtiness is irrelevant.
                CompiledRowKind::Missing { .. } => {}
            }
            w
        })
        .collect();
    let mut watchers: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); rows.len()];
    for (i, w) in watched.iter().enumerate() {
        for name in w {
            watchers.entry(name.clone()).or_default().push(i);
            let target = name.strip_prefix("P_").or_else(|| name.strip_prefix("A_"));
            if let Some(&j) = target.and_then(|t| index_of.get(t)) {
                if j != i {
                    dependents[j].push(i);
                }
            }
        }
    }
    for d in &mut dependents {
        d.sort_unstable();
        d.dedup();
    }
    WatchIndex {
        watched,
        watchers,
        dependents,
    }
}

/// Union of the free variables of every formula in an element's model.
fn element_model_free(element: &LibraryElement) -> BTreeSet<String> {
    let model = element.model();
    let mut vars = BTreeSet::new();
    for expr in [
        model.cap_full.as_ref(),
        model.static_current.as_ref(),
        model.power_direct.as_ref(),
        model.area.as_ref(),
        model.delay.as_ref(),
    ]
    .into_iter()
    .flatten()
    {
        vars.extend(expr.free_variables());
    }
    if let Some((cap, swing)) = &model.cap_partial {
        vars.extend(cap.free_variables());
        vars.extend(swing.free_variables());
    }
    vars
}

/// Evaluates one compiled row against the scope holding globals and the
/// already-evaluated rows' `P_`/`A_` values.
fn evaluate_compiled_row(
    row: &CompiledRow,
    outer: &Scope<'_>,
) -> Result<RowReport, EvaluateSheetError> {
    let _span = profile::span_lazy(|| format!("row {}", row.name));
    // Element resolution errors precede binding errors, matching the
    // uncompiled engine.
    if let CompiledRowKind::Missing { path } = &row.kind {
        return Err(EvaluateSheetError::UnknownElement {
            row: row.name.to_string(),
            element: path.clone(),
        });
    }

    // Element parameter defaults first (pre-flattened into the row's
    // template at compile time), so bindings can shadow them and
    // reference them (e.g. `bits = words / 4`).
    let mut param_scope = outer.child_seeded(&row.defaults);
    for (param, expr) in &row.bindings {
        let value = expr
            .eval(&param_scope)
            .map_err(|source| EvaluateSheetError::Binding {
                row: row.name.to_string(),
                param: param.to_string(),
                source,
            })?;
        param_scope.set(param.clone(), value);
    }

    match &row.kind {
        CompiledRowKind::SubSheet(sub) => {
            let sub_report = sub
                .play_tree(&param_scope, &sub.base, &[])
                .map_err(|source| EvaluateSheetError::Nested {
                    row: row.name.to_string(),
                    source: Box::new(source),
                })?;
            let params: Vec<(Arc<str>, f64)> = row
                .bindings
                .iter()
                .filter_map(|(name, _)| param_scope.get(name).map(|v| (name.clone(), v)))
                .collect();
            Ok(RowReport::for_subsheet(
                row.name.clone(),
                row.ident.clone(),
                params,
                row.doc_link.clone(),
                sub_report,
            ))
        }
        CompiledRowKind::Element(element) => {
            let eval =
                element
                    .evaluate(&param_scope)
                    .map_err(|source| EvaluateSheetError::Element {
                        row: row.name.to_string(),
                        source,
                    })?;
            let params: Vec<(Arc<str>, f64)> = row
                .param_names
                .iter()
                .filter_map(|name| param_scope.get(name).map(|v| (name.clone(), v)))
                .collect();
            Ok(RowReport::for_element(
                row.name.clone(),
                row.ident.clone(),
                row.element_name.clone().expect("element rows have a name"),
                params,
                param_scope.get("f"),
                row.doc_link.clone(),
                eval,
            ))
        }
        CompiledRowKind::Missing { .. } => unreachable!("rejected above"),
    }
}

// ---------------------------------------------------------------------------
// Read-only structural views.
//
// The compiled plan's internals stay private (the replay machinery owns
// them), but external analyzers — notably the abstract interpreter in
// `powerplay-analysis` — need to walk the *same* toposorted structure
// the replay loop walks, so their verdicts line up with what a play
// would actually compute. These views expose the structure without
// exposing any mutability.
// ---------------------------------------------------------------------------

/// One compiled global: its name and formula.
#[derive(Debug, Clone, Copy)]
pub struct GlobalView<'a> {
    name: &'a str,
    expr: &'a Expr,
}

impl<'a> GlobalView<'a> {
    /// The global's name.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// The global's formula.
    pub fn expr(&self) -> &'a Expr {
        self.expr
    }
}

/// The compiled row structure: rows in declaration order plus the
/// dependency-respecting evaluation order the replay loop uses.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    plan: &'a RowsPlan,
}

impl<'a> RowsView<'a> {
    /// Number of top-level rows.
    pub fn len(&self) -> usize {
        self.plan.rows.len()
    }

    /// True when the sheet has no rows.
    pub fn is_empty(&self) -> bool {
        self.plan.rows.is_empty()
    }

    /// Row indices in the evaluation (toposort) order a play uses.
    pub fn order(&self) -> &'a [usize] {
        &self.plan.order
    }

    /// The row at declaration index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> RowView<'a> {
        RowView {
            row: &self.plan.rows[i],
        }
    }

    /// Rows in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = RowView<'a>> + '_ {
        self.plan.rows.iter().map(|row| RowView { row })
    }
}

/// One compiled row: bindings, output references, and its element or
/// sub-sheet.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    row: &'a CompiledRow,
}

/// What a row instantiates.
#[derive(Debug, Clone, Copy)]
pub enum RowKindView<'a> {
    /// A resolved library (or inline) element.
    Element(&'a LibraryElement),
    /// An element path the registry could not resolve.
    Missing(&'a str),
    /// A nested compiled design.
    SubSheet(&'a CompiledSheet),
}

impl<'a> RowView<'a> {
    /// The row's display name.
    pub fn name(&self) -> &'a str {
        &self.row.name
    }

    /// The row's folded identifier (the `<ident>` of `P_<ident>`).
    pub fn ident(&self) -> &'a str {
        &self.row.ident
    }

    /// Parameter bindings in declaration order (evaluated in order,
    /// later bindings may read earlier ones).
    pub fn bindings(&self) -> impl Iterator<Item = (&'a str, &'a Expr)> + '_ {
        self.row.bindings.iter().map(|(name, expr)| (&**name, expr))
    }

    /// The `P_<ident>` power reference this row publishes, if any.
    pub fn power_ref(&self) -> Option<&'a str> {
        self.row.power_ref.as_deref()
    }

    /// The `A_<ident>` area reference this row publishes, if any.
    pub fn area_ref(&self) -> Option<&'a str> {
        self.row.area_ref.as_deref()
    }

    /// Element parameter defaults seeded before bindings run, as
    /// `(name, default)` pairs sorted by name.
    pub fn param_defaults(&self) -> Vec<(&'a str, f64)> {
        // Sorted once at compile time — no per-call allocation of a
        // fresh name table and re-sort (this runs on diagnostics paths
        // for every row of every lint pass).
        self.row
            .defaults_sorted
            .iter()
            .map(|(name, value)| (&**name, *value))
            .collect()
    }

    /// What the row instantiates.
    pub fn kind(&self) -> RowKindView<'a> {
        match &self.row.kind {
            CompiledRowKind::Element(element) => RowKindView::Element(element),
            CompiledRowKind::Missing { path } => RowKindView::Missing(path),
            CompiledRowKind::SubSheet(sub) => RowKindView::SubSheet(sub),
        }
    }
}

impl CompiledSheet {
    /// The compiled sheet's name.
    pub fn plan_name(&self) -> &str {
        &self.name
    }

    /// The compiled globals in declaration order.
    pub fn globals_view(&self) -> impl Iterator<Item = GlobalView<'_>> + '_ {
        self.globals.iter().map(|g| GlobalView {
            name: &g.name,
            expr: &g.expr,
        })
    }

    /// Global evaluation order for the un-overridden sheet, as indices
    /// into [`CompiledSheet::globals_view`].
    ///
    /// # Errors
    ///
    /// The `CircularGlobals` error every play would raise.
    pub fn global_order(&self) -> Result<&[usize], &EvaluateSheetError> {
        self.base.global_order()
    }

    /// The compiled row structure.
    ///
    /// # Errors
    ///
    /// The structural error every play would raise.
    pub fn rows_view(&self) -> Result<RowsView<'_>, &EvaluateSheetError> {
        match &self.structure {
            Ok(plan) => Ok(RowsView { plan }),
            Err(err) => Err(err),
        }
    }

    /// Human-readable listing of the lowered bytecode program: register
    /// file with slot names, constants pool, per-row code spans, and the
    /// instruction stream. Returns a one-line notice when the sheet has
    /// no program (top-level structural error).
    pub fn disassemble(&self) -> String {
        match &self.structure {
            Ok(rows) => self.base.program(self, rows).disassemble(),
            Err(_) => "no bytecode program: top-level structure failed to compile\n".to_owned(),
        }
    }
}
