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
//! reused. Production evaluates formulas only as register code (see
//! [`crate::bytecode`]): each plan lowers its globals into a short
//! prologue, and rows run as the sheet's register program. That code is
//! also the only record of what depends on what: a sweep's
//! [`BatchKernel`] runs its plan's prologue and just the slice of the
//! program that the globals the prologue changes reach. The scope-chain
//! tree walker is kept only as the oracle behind
//! [`CompiledSheet::play_with_tree`].
//!
//! A plan snapshots the sheet and registry at compile time: recompile
//! after editing rows, bindings, global *formulas*, or library
//! contents. Changing global *values* is what [`CompiledSheet::play_with`]
//! is for. A recompile after an edit goes through
//! [`CompiledSheet::compile_from`] with the previous revision's plan:
//! top-level rows whose content did not change are shared with it, each
//! with the register-program fragment it was lowered to once, and only
//! the changed rows are compiled and lowered again before the link joins
//! every row's fragment into the new program (see [`crate::bytecode`]).
//! A fresh compile is the same path with nothing to reuse.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use powerplay_expr::{Expr, Scope};
use powerplay_library::{LibraryElement, Registry};
use powerplay_telemetry::{profile, Counter, Histogram};
use powerplay_units::Power;

use crate::bytecode::{
    bytecode_metrics, Fragment, Instr, Lanes, Program, Prologue, TrapHit, WIDTH,
};
use crate::engine::{toposort, EvaluateSheetError};
use crate::report::{RowReport, SheetReport};
use crate::row::{Row, RowModel};
use crate::sheet::Sheet;

/// Engine-layer metrics, registered once in the process-global registry.
/// Only the *top-level* compile/play entry points record here; sub-sheet
/// compilation goes through `CompiledSheet::compile_with` and sub-sheet
/// rows run inside their parent's program, so a hierarchical design
/// counts as one compile and one play (rows are counted at every level).
pub(crate) struct PlanMetrics {
    compile_seconds: Histogram,
    replay_seconds: Histogram,
    plays_total: Counter,
    pub(crate) rows_evaluated_total: Counter,
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
        }
    })
}

/// Process-unique plan identities, so an [`OverridePlan`] is only ever
/// played against the sheet it was built for.
static PLAN_IDS: AtomicU64 = AtomicU64::new(1);

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
    pub(crate) id: u64,
    /// The registry generation the rows resolved their elements in.
    generation: u64,
    pub(crate) name: Arc<str>,
    pub(crate) globals: Vec<CompiledGlobal>,
    /// The plan of the un-overridden sheet. Its program cell holds the
    /// sheet's register program, shared by every plan that appends no
    /// name (see [`OverridePlan::program`]).
    pub(crate) base: OverridePlan,
    /// Row plan, with the structural findings that fail it.
    pub(crate) structure: RowsPlan,
    /// The register image of the un-overridden play through the base
    /// program, run on first use by a sweep kernel; `None` when that
    /// play fails.
    baseline: OnceLock<Option<Box<[f64]>>>,
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
    /// Rows in declaration order, shared with the plan of the revision
    /// they were compiled for when their content has not changed since.
    pub(crate) rows: Vec<Arc<CompiledRow>>,
    /// Dependency-respecting evaluation order over `rows` indices;
    /// declaration order when the rows form a cycle.
    pub(crate) order: Vec<usize>,
    /// Every structural finding, in the order the engine meets them:
    /// each duplicated ident, each row that reads its own result, then a
    /// cycle. A play raises the first; the lowering walk traps each.
    pub(crate) errors: Vec<EvaluateSheetError>,
}

impl RowsPlan {
    /// The plan, or the structural error every play raises.
    pub(crate) fn checked(&self) -> Result<&RowsPlan, &EvaluateSheetError> {
        self.errors.first().map_or(Ok(self), Err)
    }
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
    /// Element parameters in declaration order with their defaults:
    /// seeded before the bindings run, and the report's columns.
    pub(crate) params: Vec<(Arc<str>, f64)>,
    /// The element's display name, interned for the report.
    pub(crate) element_name: Option<Arc<str>>,
    /// The row carries its element inline rather than naming one in the
    /// registry.
    pub(crate) inline: bool,
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
        Self::compile_from(None, sheet, registry)
    }

    /// [`CompiledSheet::compile`] that reuses what `prev`, the plan of an
    /// earlier revision, already compiled. A top-level row whose content
    /// (name, bindings, element path or inline element, sub-sheet
    /// contents) is exactly what `prev` compiled for a row of the same
    /// name or position, numbers compared by bit pattern, is shared with
    /// `prev`, and so is the register-program fragment it was lowered
    /// to, unless a name the fragment resolves outside the row resolves
    /// differently now. Nothing is reused from a plan compiled against
    /// another registry generation. The result is the plan a fresh
    /// compile builds, bit for bit; `compile` is `compile_from(None, …)`.
    pub fn compile_from(
        prev: Option<&CompiledSheet>,
        sheet: &Sheet,
        registry: &Registry,
    ) -> CompiledSheet {
        let _timer = plan_metrics().compile_seconds.start_timer();
        let prev = prev.filter(|p| p.generation == registry.generation());
        let (plan, reused) = Self::compile_with(
            sheet,
            registry,
            prev.and_then(|p| p.structure.checked().ok()),
        );
        // Link the whole hierarchy (sub-sheets inlined) into one flat
        // register-machine program now, so compiling pays for it rather
        // than the first play. A sub-plan's rows are spans inside its
        // parent's program; played on its own, it links on first play.
        if let Ok(rows) = plan.structure.checked() {
            let prev_fragments: Vec<&Arc<Fragment>> = prev
                .and_then(|p| p.base.program.get())
                .map(|program| program.fragments().collect())
                .unwrap_or_default();
            let seeds: Vec<Option<Arc<Fragment>>> = reused
                .iter()
                .map(|from| {
                    from.and_then(|j| prev_fragments.get(j))
                        .map(|f| Arc::clone(f))
                })
                .collect();
            let program = Program::link(&plan, rows, &[], &seeds);
            plan.base
                .program
                .set(Arc::new(program))
                .expect("a new plan has no program yet");
        }
        plan
    }

    /// The plan of `sheet`, sharing each row of `prev` whose content is
    /// unchanged; also returns, per row, the index in `prev` of the row
    /// it shares. Outside the compile metrics, so a nested sheet's
    /// compile does not count as one.
    fn compile_with(
        sheet: &Sheet,
        registry: &Registry,
        prev: Option<&RowsPlan>,
    ) -> (CompiledSheet, Vec<Option<usize>>) {
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
        let (structure, reused) = compile_rows(sheet, registry, prev);
        let plan = CompiledSheet {
            id,
            generation: registry.generation(),
            name: Arc::from(sheet.name()),
            base: OverridePlan::new(id, Vec::new(), &globals),
            structure,
            globals,
            baseline: OnceLock::new(),
        };
        (plan, reused)
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
        let inner = plan.checked().map_err(Clone::clone)?;
        let mut globals_scope = parent.child();
        let resolved = self.eval_globals_with_plan(&mut globals_scope, plan, inner, values)?;
        let rows_plan = self.structure.checked().map_err(Clone::clone)?;
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

    /// The oracle's global resolution: tree-walks the globals through a
    /// precomputed [`OverridePlan`], setting each into `globals_scope`
    /// as it goes.
    fn eval_globals_with_plan(
        &self,
        globals_scope: &mut Scope<'_>,
        plan: &OverridePlan,
        inner: &OverridePlanInner,
        values: &[f64],
    ) -> Result<Vec<(String, f64)>, EvaluateSheetError> {
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
    /// error order, for every point alike: the global errors of `plan`
    /// (a cycle, then a formula's), then the structural error of the
    /// rows. Returns `plan`'s prologue and the register program for its
    /// names.
    fn prepare<'a>(
        &'a self,
        plan: &'a OverridePlan,
    ) -> Result<(&'a Prologue, &'a Arc<Program>), EvaluateSheetError> {
        assert_eq!(
            plan.plan_id, self.id,
            "override plan built for a different compiled sheet"
        );
        let prologue = plan.prologue(self).as_ref().map_err(Clone::clone)?;
        let rows_plan = self.structure.checked().map_err(Clone::clone)?;
        Ok((prologue, plan.program(self, rows_plan)))
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
        let (prologue, prog) = self.prepare(plan)?;
        with_scratch_regs(|regs| prog.replay_full(self.name.clone(), prologue, values, regs))
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

/// The override-name resolution and reshaped global plan shared by every
/// point of a sweep — built once by [`CompiledSheet::override_plan`] —
/// and, lowered on the first play through it, its globals' prologue.
#[derive(Debug, Clone)]
pub struct OverridePlan {
    pub(crate) plan_id: u64,
    pub(crate) names: Vec<String>,
    pub(crate) inner: OverridePlanInner,
    /// The plan's globals as register code, lowered on first use (the
    /// oracle never uses it), or the global error every play raises.
    prologue: OnceLock<Result<Prologue, EvaluateSheetError>>,
    /// This plan's register program, linked on first use. A plan that
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
            prologue: OnceLock::new(),
            program: OnceLock::new(),
        }
    }

    /// The de-duplicated override names; values passed to
    /// [`CompiledSheet::play_with_plan`] and points passed to
    /// [`BatchKernel::replay_chunk`] align with this order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// `names` slots that append new globals.
    fn appended(&self) -> &[usize] {
        &self.inner.appended
    }

    /// The plan's global order, or the global error every play through
    /// it raises.
    fn checked(&self) -> Result<&OverridePlanInner, &EvaluateSheetError> {
        self.inner.errors.first().map_or(Ok(&self.inner), Err)
    }

    /// The prologue plays through this plan run, lowered on first use:
    /// `sheet`'s globals from the override values. Or the error every
    /// such play raises first: a cycle, then the first failing formula.
    fn prologue(&self, sheet: &CompiledSheet) -> &Result<Prologue, EvaluateSheetError> {
        self.prologue.get_or_init(|| {
            let inner = self.checked().map_err(Clone::clone)?;
            Prologue::lower(&sheet.globals, &self.names, inner)
        })
    }

    /// The register program plays through this plan run. A plan that
    /// appends no name shares the sheet's program, held by its base
    /// plan. One that does gets its own, with a global register per
    /// appended name after the declared ones, linked on its first play
    /// from the base program's fragments (a row whose fragment looked up
    /// an appended name, and found it absent, is lowered again): building
    /// a plan links nothing, so the oracle and the analyzer can build
    /// plans they never play.
    fn program<'a>(&'a self, sheet: &'a CompiledSheet, rows: &RowsPlan) -> &'a Arc<Program> {
        let appended = self.appended();
        if appended.is_empty() {
            return sheet
                .base
                .program
                .get_or_init(|| Arc::new(Program::link(sheet, rows, &[], &[])));
        }
        self.program.get_or_init(|| {
            let names: Vec<&str> = appended
                .iter()
                .map(|&slot| self.names[slot].as_str())
                .collect();
            let seeds: Vec<Option<Arc<Fragment>>> = sheet
                .base
                .program
                .get()
                .map(|base| base.fragments().map(|f| Some(Arc::clone(f))).collect())
                .unwrap_or_default();
            Arc::new(Program::link(sheet, rows, &names, &seeds))
        })
    }
}

#[derive(Debug, Clone)]
pub(crate) struct OverridePlanInner {
    /// Per compiled global: the `names` slot overriding it, if any.
    pub(crate) global_slot: Vec<Option<usize>>,
    /// `names` slots that append new globals, in append order.
    pub(crate) appended: Vec<usize>,
    /// Toposorted node order (nodes: globals, then appended);
    /// declaration order when the formulas form a cycle.
    pub(crate) order: Vec<usize>,
    /// Every finding that fails the globals: each self-referential
    /// formula in declaration order, then a cycle. A play raises the
    /// first; the lowering walk traps each.
    pub(crate) errors: Vec<EvaluateSheetError>,
}

/// Orders the globals under a set of override names — the one place the
/// engine does. Overridden globals become literals, which removes their
/// outgoing dependency edges (and can dissolve cycles); a name that is
/// not a global appends a literal node that formulas may now read. Error
/// precedence: a self-referential formula errors first (lowest
/// declaration index), then cycles surface from the toposort.
fn build_override_inner(globals: &[CompiledGlobal], names: &[String]) -> OverridePlanInner {
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
    let mut errors = Vec::new();
    for (k, (slot, g)) in global_slot.iter().zip(globals).enumerate() {
        if slot.is_some() {
            continue; // overridden: a constant, no formula deps
        }
        if g.free.contains(&*g.name) {
            errors.push(EvaluateSheetError::CircularGlobals(vec![g
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
    let order = toposort(node_count, &deps).unwrap_or_else(|cycle| {
        let cycle = cycle.into_iter().map(|k| name_of(k).to_owned());
        errors.push(EvaluateSheetError::CircularGlobals(cycle.collect()));
        (0..node_count).collect()
    });
    OverridePlanInner {
        global_slot,
        appended,
        order,
        errors,
    }
}

/// A batched bytecode sweep kernel: evaluates up to
/// [`BatchKernel::WIDTH`] override points per instruction-dispatch pass
/// and answers each point's total power.
///
/// Built once per sweep by [`CompiledSheet::batch_kernel`], it starts
/// from the un-overridden play's register image, which the plan plays
/// once and keeps, and runs only the *slice* of the register
/// program that the sweep's changed globals reach: the globals its
/// plan's prologue reaches from the override inputs. The slice holds, in
/// program order, every instruction that reads a changed global's
/// register or a register a kept instruction writes. Without a usable
/// baseline (the plan appends a name, or the un-overridden play fails)
/// the slice is the whole program, lanes start from the program's
/// initial register image, and every global is written.
///
/// The kernel owns one lane image for the whole sweep: a
/// `[f64; WIDTH]` array per register, every lane holding the baseline's
/// value when the kernel is built. Each [`BatchKernel::replay_chunk`]
/// call writes each lane's override values into the prologue's own lane
/// image, runs the whole prologue, writes the lanes of the changed
/// global registers, and runs the slice across all lanes at once. The
/// program is SSA, so a register outside the slice is a function of
/// constants and unchanged globals only and holds the baseline's value
/// in every lane, and a register inside it is written in the same pass
/// before any kept instruction reads it. Every top-level power register
/// then holds the point's value and a lane's total is their fold.
///
/// Results are bit-for-bit `total_power` of
/// [`CompiledSheet::play_with_plan`] per point, including which error
/// surfaces first. An error raised before any row runs (the plan's
/// globals', then the rows' structure) depends on the override names
/// alone, so every point answers it. Otherwise a baseline play that
/// succeeded ran every instruction, so the program holds no `Trap` and
/// every check outside the slice read values that passed; the first
/// check to fail in slice order is the first in program order.
pub struct BatchKernel<'a> {
    /// The plan's prologue and program, or the error every point raises
    /// before any row runs.
    code: Result<(&'a Prologue, &'a Arc<Program>), EvaluateSheetError>,
    /// The prologue's lane image; each chunk writes its points into the
    /// input registers.
    inputs: Vec<Lanes>,
    /// The global registers each chunk writes from the prologue.
    seeds: Vec<usize>,
    /// The instructions each chunk runs, in program order.
    slice: Vec<Instr>,
    /// Top-level rows whose code span holds a slice instruction, for
    /// the rows-evaluated counter.
    rows: u64,
    /// The lane image: the baseline play's registers, or the program's
    /// initial image when there is no baseline, in every lane; the
    /// slice rewrites its registers in each chunk.
    lanes: Vec<Lanes>,
}

impl CompiledSheet {
    /// Builds a batched sweep kernel for the override names in `plan`.
    /// Every sweep batches: when the names fail before any row runs
    /// (globals, then structure), every point answers that error.
    pub fn batch_kernel<'a>(&'a self, plan: &'a OverridePlan) -> BatchKernel<'a> {
        let mut kernel = BatchKernel {
            code: self.prepare(plan),
            inputs: Vec::new(),
            seeds: Vec::new(),
            slice: Vec::new(),
            rows: 0,
            lanes: Vec::new(),
        };
        let (prologue, prog) = match &kernel.code {
            Ok(code) => *code,
            Err(_) => return kernel,
        };
        // Baseline: the un-overridden play's register image, kept once
        // per plan, seeds the lanes. A plan that appends a name has
        // another register layout and no un-overridden value.
        let baseline = if plan.appended().is_empty() {
            self.baseline()
        } else {
            None
        };
        let reached = prologue.reached();
        let changed = baseline.map(|_| &reached[..]);
        kernel.inputs = prologue.init.iter().map(|&value| [value; WIDTH]).collect();
        kernel.seeds = (0..reached.len())
            .filter(|&g| baseline.is_none() || reached[g])
            .collect();
        let image = baseline.unwrap_or(prog.init());
        kernel.lanes = image.iter().map(|&value| [value; WIDTH]).collect();
        (kernel.slice, kernel.rows) = prog.sweep_slice(changed);
        kernel
    }

    /// The register image of the un-overridden play through the base
    /// program, played on first use and kept with the plan; `None` when
    /// that play fails.
    fn baseline(&self) -> Option<&[f64]> {
        self.baseline
            .get_or_init(|| {
                let (prologue, prog) = self.prepare(&self.base).ok()?;
                with_scratch_regs(|regs| {
                    prog.run_full(prologue, &[], regs).ok()?;
                    Some(regs.as_slice().into())
                })
            })
            .as_deref()
    }
}

impl BatchKernel<'_> {
    /// Points per [`BatchKernel::replay_chunk`] call at most: the lanes
    /// of one dispatch pass.
    pub const WIDTH: usize = WIDTH;

    /// Plays one point per element of `points` (each a values slice
    /// aligned with the kernel's override-plan names, at most
    /// [`BatchKernel::WIDTH`] of them), running the kernel's prologue and
    /// slice across all lanes in one dispatch pass each over their lane
    /// images, and answers each point's total power or error. A short
    /// chunk fills its spare lanes with its last point, whose results
    /// they repeat and which nobody reads.
    ///
    /// # Panics
    ///
    /// Panics if `points` holds more than [`BatchKernel::WIDTH`] points.
    pub fn replay_chunk<P: AsRef<[f64]>>(
        &mut self,
        points: &[P],
    ) -> Vec<Result<Power, EvaluateSheetError>> {
        let m = points.len();
        assert!(m <= WIDTH, "a chunk holds at most {WIDTH} points");
        let (prologue, prog) = match &self.code {
            Ok(code) if m > 0 => *code,
            Ok(_) => return Vec::new(),
            Err(err) => return vec![Err(err.clone()); m],
        };
        let metrics = plan_metrics();
        metrics.plays_total.add(m as u64);
        metrics.rows_evaluated_total.add(self.rows * m as u64);
        bytecode_metrics().batch_width.observe_value(m as u64);

        // Each lane's override values into the prologue's inputs (spare
        // lanes repeat the last point), then the changed globals.
        for l in 0..WIDTH {
            let point = points[l.min(m - 1)].as_ref();
            assert_eq!(point.len(), prologue.inputs, "one value per override name");
            for (input, &value) in self.inputs.iter_mut().zip(point) {
                input[l] = value;
            }
        }
        let mut errs: [Option<TrapHit>; WIDTH] = [None; WIDTH];
        Program::exec_batch(&prologue.code, &mut self.inputs, &mut errs);
        for &g in &self.seeds {
            self.lanes[g] = self.inputs[prologue.outputs[g] as usize];
        }
        Program::exec_batch(&self.slice, &mut self.lanes, &mut errs);
        let instrs = prologue.code.len() + self.slice.len();
        bytecode_metrics().instrs_total.add((instrs * m) as u64);

        (0..m)
            .map(|l| match errs[l] {
                Some(hit) => Err(prog.materialize(hit)),
                None => Ok(prog.total_power(|slot| self.lanes[slot as usize][l])),
            })
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

/// Compiles the row layer: duplicate-ident check, then the `P_`/`A_`
/// reference graph in one linear pass over precomputed free variables
/// (the engine's original scan formatted two candidate names per row
/// *pair* — quadratic in rows), then element resolution to shared
/// handles. Every row is compiled, in declaration order, also when the
/// structure fails; the plan lists every finding. A row of `prev` at the
/// same position, or else of the same name, whose content is unchanged
/// is shared instead of compiled; the second result names, per row, the
/// index in `prev` it shares.
fn compile_rows(
    sheet: &Sheet,
    registry: &Registry,
    prev: Option<&RowsPlan>,
) -> (RowsPlan, Vec<Option<usize>>) {
    let idents: Vec<String> = sheet.rows().iter().map(Row::ident).collect();
    let mut errors = Vec::new();
    {
        let mut seen = BTreeSet::new();
        let mut duplicated = BTreeSet::new();
        for ident in &idents {
            if !ident.is_empty() && !seen.insert(ident) && duplicated.insert(ident) {
                errors.push(EvaluateSheetError::DuplicateRowIdent(ident.clone()));
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
        let mut reads_itself = false;
        for var in &wanted {
            // Rows may reference other rows' power (`P_x`, the converter
            // load of EQ 19) and area (`A_x`: interconnect dissipation as
            // a function of the active area of the composing modules).
            let target = var.strip_prefix("P_").or_else(|| var.strip_prefix("A_"));
            let Some(&j) = target.and_then(|t| index_of.get(t)) else {
                continue;
            };
            reads_itself |= i == j;
            if i != j {
                entry.insert(j);
            }
        }
        if reads_itself {
            errors.push(EvaluateSheetError::CircularRows(vec![row
                .name()
                .to_owned()]));
        }
    }
    let order = toposort(sheet.rows().len(), &deps).unwrap_or_else(|cycle| {
        let cycle = cycle.into_iter().map(|i| sheet.rows()[i].name().to_owned());
        errors.push(EvaluateSheetError::CircularRows(cycle.collect()));
        (0..sheet.rows().len()).collect()
    });

    let mut by_name: Option<BTreeMap<&str, usize>> = None;
    let mut reused: Vec<Option<usize>> = Vec::with_capacity(sheet.rows().len());
    let rows: Vec<Arc<CompiledRow>> = sheet
        .rows()
        .iter()
        .zip(&idents)
        .enumerate()
        .map(|(i, (row, ident))| {
            if let Some(prev) = prev {
                let at = |j: usize| Some(j).filter(|&j| same_row(&prev.rows[j], row, registry));
                let found = (i < prev.rows.len()).then(|| at(i)).flatten().or_else(|| {
                    let names = by_name.get_or_insert_with(|| {
                        prev.rows
                            .iter()
                            .enumerate()
                            .map(|(j, r)| (&*r.name, j))
                            .collect()
                    });
                    names
                        .get(row.name())
                        .copied()
                        .filter(|&j| j != i)
                        .and_then(at)
                });
                reused.push(found);
                if let Some(j) = found {
                    return Arc::clone(&prev.rows[j]);
                }
            } else {
                reused.push(None);
            }
            let kind = match row.model() {
                RowModel::Element(path) => match registry.get_shared(path) {
                    Some(element) => CompiledRowKind::Element(element),
                    None => CompiledRowKind::Missing { path: path.clone() },
                },
                RowModel::Inline(element) => CompiledRowKind::Element(Arc::new(element.clone())),
                RowModel::SubSheet(sub) => CompiledRowKind::SubSheet(Box::new(
                    CompiledSheet::compile_with(sub, registry, None).0,
                )),
            };
            let (params, element_name) = match &kind {
                CompiledRowKind::Element(element) => (
                    element
                        .params()
                        .iter()
                        .map(|p| (Arc::from(p.name.as_str()), p.default))
                        .collect(),
                    Some(Arc::from(element.name())),
                ),
                _ => (Vec::new(), None),
            };
            Arc::new(CompiledRow {
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
                params,
                element_name,
                inline: matches!(row.model(), RowModel::Inline(_)),
                kind,
            })
        })
        .collect();
    let plan = RowsPlan {
        rows,
        order,
        errors,
    };
    (plan, reused)
}

/// Whether `compiled` is exactly what compiling `row` against `registry`
/// builds: the same name, link and bindings, numbers compared by bit
/// pattern, and the same element or sub-sheet. A path row compiled to
/// the very element the registry holds there now; an inline row to an
/// identical element.
fn same_row(compiled: &CompiledRow, row: &Row, registry: &Registry) -> bool {
    *compiled.name == *row.name()
        && compiled.doc_link.as_deref() == row.doc_link()
        && compiled.bindings.len() == row.bindings().len()
        && compiled
            .bindings
            .iter()
            .zip(row.bindings())
            .all(|((param, expr), (name, formula))| **param == **name && expr.identical(formula))
        && match (&compiled.kind, row.model()) {
            (CompiledRowKind::Element(element), RowModel::Element(path)) => registry
                .get_shared(path)
                .is_some_and(|current| Arc::ptr_eq(&current, element)),
            (CompiledRowKind::Missing { path: missing }, RowModel::Element(path)) => {
                missing == path && registry.get(path).is_none()
            }
            (CompiledRowKind::Element(element), RowModel::Inline(inline)) => {
                element.identical(inline)
            }
            (CompiledRowKind::SubSheet(sub), RowModel::SubSheet(sheet)) => {
                same_sheet(sub, sheet, registry)
            }
            _ => false,
        }
}

/// [`same_row`] for a nested sheet: name, globals and every row.
fn same_sheet(compiled: &CompiledSheet, sheet: &Sheet, registry: &Registry) -> bool {
    *compiled.name == *sheet.name()
        && compiled.globals.len() == sheet.globals().len()
        && compiled
            .globals
            .iter()
            .zip(sheet.globals())
            .all(|(g, (name, expr))| *g.name == **name && g.expr.identical(expr))
        && compiled.structure.checked().is_ok_and(|plan| {
            plan.rows.len() == sheet.rows().len()
                && plan
                    .rows
                    .iter()
                    .zip(sheet.rows())
                    .all(|(compiled, row)| same_row(compiled, row, registry))
        })
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

    // Element parameter defaults first, so bindings can shadow them and
    // reference them (e.g. `bits = words / 4`).
    let mut param_scope = outer.child();
    for (name, default) in &row.params {
        param_scope.set(name.clone(), *default);
    }
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
                .params
                .iter()
                .filter_map(|(name, _)| param_scope.get(name).map(|v| (name.clone(), v)))
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
// them). An analysis that needs a play's semantics runs the lowering walk
// itself ([`CompiledSheet::walk`]); these views only list what a plan
// holds: its name, its globals' formulas and its rows.
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

/// The compiled row structure: rows in declaration order.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    plan: &'a RowsPlan,
}

impl<'a> RowsView<'a> {
    /// Rows in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = RowView<'a>> + 'a {
        self.plan.rows.iter().map(|row| RowView { row })
    }
}

/// One compiled row: its names, bindings and element or sub-sheet.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    pub(crate) row: &'a CompiledRow,
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

    /// The identifier its `P_`/`A_` names fold to (empty for none).
    pub fn ident(&self) -> &'a str {
        &self.row.ident
    }

    /// The row's bindings, in order.
    pub fn bindings(&self) -> impl Iterator<Item = (&'a str, &'a Expr)> + 'a {
        self.row
            .bindings
            .iter()
            .map(|(param, expr)| (&**param, expr))
    }

    /// Whether the row carries its element inline.
    pub fn is_inline(&self) -> bool {
        self.row.inline
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

    /// The compiled rows, also when the structure fails to compile.
    pub fn rows_view(&self) -> RowsView<'_> {
        RowsView {
            plan: &self.structure,
        }
    }

    /// Human-readable listing of the lowered bytecode program: register
    /// file with slot names, constants pool, per-row code spans, the
    /// globals' prologue (each global's formula and the register holding
    /// its value), and the instruction stream. Returns a one-line notice
    /// when the sheet has no program (top-level structural error).
    pub fn disassemble(&self) -> String {
        match self.base_program() {
            Some(program) => program.disassemble(self.base.prologue(self).as_ref(), &self.globals),
            None => "no bytecode program: top-level structure failed to compile\n".to_owned(),
        }
    }

    /// The register program of the un-overridden sheet, linked on first
    /// use; `None` when the top-level structure failed to compile.
    pub(crate) fn base_program(&self) -> Option<&Arc<Program>> {
        let rows = self.structure.checked().ok()?;
        Some(self.base.program(self, rows))
    }
}

#[cfg(test)]
mod tests {
    use powerplay_library::builtin::ucb_library;

    use super::*;

    #[test]
    fn a_sweep_slice_runs_only_the_rows_its_global_reaches() {
        // `duty` feeds Amp, whose power feeds Conv; Load never reads it,
        // and Conv reads Load's power from the baseline image.
        let mut sheet = Sheet::new("chained");
        sheet.set_global_value("vdd", 1.5);
        sheet.set_global_value("f", 1e6);
        sheet.set_global_value("duty", 0.5);
        sheet
            .add_element_row("Load", "ucb/register", [("bits", "16")])
            .unwrap();
        sheet
            .add_element_row("Amp", "ucb/dcdc", [("p_load", "duty * 2")])
            .unwrap();
        sheet
            .add_element_row("Conv", "ucb/dcdc", [("p_load", "P_amp + P_load")])
            .unwrap();
        let plan = CompiledSheet::compile(&sheet, &ucb_library());

        // An appended name has no baseline: its kernel runs everything.
        let appended = plan.override_plan(&["x_new"]);
        let whole = plan.batch_kernel(&appended);
        assert_eq!(whole.rows, 3);

        let duty = plan.override_plan(&["duty"]);
        let mut kernel = plan.batch_kernel(&duty);
        assert_eq!(kernel.rows, 2);
        assert!(kernel.slice.len() < whole.slice.len());

        // A lane that traps leaves nothing stale for the next chunk.
        let total = |d: f64| plan.play_with(&[("duty", d)]).map(|r| r.total_power());
        assert!(total(-1.0).is_err());
        assert_eq!(kernel.replay_chunk(&[[-1.0]]), vec![total(-1.0)]);
        assert_eq!(kernel.replay_chunk(&[[0.8]]), vec![total(0.8)]);
    }

    #[test]
    fn a_prologue_reaches_the_globals_derived_from_its_inputs() {
        let sheet = derived_globals_sheet();
        let plan = CompiledSheet::compile(&sheet, &ucb_library());
        let reached = |names: &[&str]| {
            let prologue = plan.override_plan(names).prologue(&plan).clone();
            prologue.map(|prologue| (prologue.reached(), prologue.code.len()))
        };
        // Globals: vdd, f, f_rf = f / 4, v_io = vdd.
        assert_eq!(reached(&[]), Ok((vec![false; 4], 0)));
        assert_eq!(reached(&["f"]), Ok((vec![false, true, true, false], 1)));
        assert_eq!(reached(&["vdd"]), Ok((vec![true, false, false, true], 0)));
        // Overriding `f_rf` cuts it off from `f`; an appended name reaches
        // no declared global.
        assert_eq!(
            reached(&["f_rf", "f"]),
            Ok((vec![false, true, true, false], 0))
        );
        let appended = vec![false, false, false, false, true];
        assert_eq!(reached(&["x_new"]), Ok((appended, 0)));
    }

    /// `vdd` and `f` literals, the derived `f_rf = f / 4` and the alias
    /// `v_io = vdd`, read by one register row.
    fn derived_globals_sheet() -> Sheet {
        let mut sheet = Sheet::new("derived");
        for (global, formula) in [
            ("vdd", "1.5"),
            ("f", "2MHz"),
            ("f_rf", "f / 4"),
            ("v_io", "vdd"),
        ] {
            sheet.set_global(global, formula).unwrap();
        }
        sheet
            .add_element_row("Reg", "ucb/register", [("f", "f_rf"), ("vdd", "v_io")])
            .unwrap();
        sheet
    }

    #[test]
    fn the_listing_shows_the_prologue_before_the_code() {
        let plan = CompiledSheet::compile(&derived_globals_sheet(), &ucb_library());
        let listing = plan.disassemble();
        let prologue: Vec<&str> = listing
            .lines()
            .skip_while(|line| !line.starts_with("prologue:"))
            .take_while(|line| *line != "code:")
            .collect();
        // Without overrides every global folds to a constant: a literal
        // is one, `f_rf` folds, and the alias shares `vdd`'s register.
        assert_eq!(
            prologue,
            [
                "prologue: 0 instrs, 4 regs",
                "  vdd              = 1.5                      r0=1.5",
                "  f                = 2000000                  r1=2000000",
                "  f_rf             = (f / 4)                  r3=500000",
                "  v_io             = vdd                      r0=1.5",
            ]
        );
    }
}
