//! Whole-sheet lint: a back end of the engine's lowering walk.
//!
//! [`lint_sheet`] runs [`CompiledSheet::walk`], the walk the register
//! program and the interval analyzer come from, with a back end that
//! turns each trap into a diagnostic at the path of the formula being
//! lowered and goes on past it with a stand-in. Scopes, global and row
//! order, sub-sheets, the EQ 1 template's `vdd`/`f` and the structural
//! findings are the walk's, so a sheet with zero `Error` diagnostics
//! evaluates without structural errors; what is left depends on runtime
//! *values* (a formula producing a negative capacitance).
//!
//! This module keeps what the walk does not decide: the wording of an
//! unknown `P_x`/`A_x` (E008/E009, from the plan's row idents), the
//! references only evaluation order makes work (W111) or a dependency
//! edge reorders (I202), dimension inference, and the syntactic checks:
//! dead globals and bindings (W105, W106), shadowing (I201),
//! plausibility (W107–W110) and constant folds (E011).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use powerplay_expr::{EvalError, Expr};
use powerplay_library::{ElementClass, EvaluateElementError};
use powerplay_sheet::{
    Backend, CompiledSheet, EvaluateSheetError, Formula, GlobalView, Names, Pure, RowKindView,
    RowView,
};
use powerplay_units::dim::Dim;

use crate::diag::{codes, Diagnostic, LintReport};
use crate::dims::{check_constant_folds, convention_dim, infer_dims, DimInfo};
use crate::element::{check_slot, slots};
use crate::{diagnostic_for_play_error, formula_path, slot_name, unnest};

/// Lints a compiled sheet. See the module docs for what the passes
/// guarantee.
pub fn lint_sheet(plan: &CompiledSheet) -> LintReport {
    let metrics = crate::obs::lint_metrics();
    metrics.reports_total.inc();
    let _timer = metrics.sheet_pass_seconds.start_timer();
    let _span = powerplay_telemetry::profile::span_lazy(|| format!("lint {}", plan.plan_name()));
    let mut lint = Lint::default();
    let walked = plan.walk(&plan.override_plan(&[]), &mut lint);
    walked.expect("lint goes on past every trap");
    lint.report
}

/// The handle of every value whose dimension lint does not track:
/// constants, operations and stand-ins.
const ANY: u32 = 0;

/// The lint back end. A global or a binding gets a handle of its own,
/// `k + 1` for its dimension `dims[k]`, so a name the walk resolves
/// reads the dimension of whatever it is bound to.
#[derive(Default)]
struct Lint<'p> {
    report: LintReport,
    dims: Vec<DimInfo>,
    /// The sheet levels the walk is inside, outermost first.
    levels: Vec<Level<'p>>,
}

/// A sheet level the walk is inside.
struct Level<'p> {
    sheet: &'p CompiledSheet,
    /// `rows/<row>/` for each enclosing sub-sheet row.
    prefix: String,
    rows: Vec<RowView<'p>>,
    /// Row ident → the row the engine indexes it to (the last one).
    idents: HashMap<&'p str, usize>,
    /// The row being lowered.
    row: usize,
}

/// Which kind of formula a name is read from.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Global,
    Binding,
    Model,
}

impl Level<'_> {
    /// The row `var` names as `P_<ident>` or `A_<ident>`, and whether it
    /// names an area.
    fn target(&self, var: &str) -> Option<(usize, bool)> {
        let (ident, area) = match (var.strip_prefix("P_"), var.strip_prefix("A_")) {
            (Some(ident), _) => (ident, false),
            (_, Some(ident)) => (ident, true),
            _ => return None,
        };
        self.idents.get(ident).map(|&j| (j, area))
    }

    /// The other row whose published value `var` names: its power, or
    /// an area it has.
    fn other_row(&self, var: &str) -> Option<usize> {
        let (j, area) = self.target(var)?;
        (j != self.row && (!area || has_area(self.rows[j]))).then_some(j)
    }

    /// The value of the level's global `name`, when it is a finite
    /// constant.
    fn constant(&self, name: &str) -> Option<f64> {
        let global = self.sheet.globals_view().find(|g| g.name() == name)?;
        global.expr().constant_value().filter(|v| v.is_finite())
    }
}

/// Whether a row publishes an `A_<ident>` value. A missing element
/// answers `true`, so it (already an E004) does not cascade.
fn has_area(row: RowView<'_>) -> bool {
    match row.kind() {
        RowKindView::Element(element) => element.model().area.is_some(),
        RowKindView::Missing(_) => true,
        RowKindView::SubSheet(sub) => sub.rows_view().iter().any(has_area),
    }
}

/// Every name the formulas of `rows` read.
fn rows_read<'a>(rows: impl IntoIterator<Item = RowView<'a>>, used: &mut BTreeSet<String>) {
    for row in rows {
        for (_, expr) in row.bindings() {
            used.extend(expr.free_variables());
        }
        model_reads(row, used);
    }
}

/// Every name a row's element formulas, or its sub-sheet's globals and
/// rows, read: what its bindings and the globals above it feed.
fn model_reads(row: RowView<'_>, used: &mut BTreeSet<String>) {
    match row.kind() {
        RowKindView::Element(element) => {
            for (_, expr, _) in slots(element) {
                used.extend(expr.free_variables());
            }
        }
        RowKindView::Missing(_) => {}
        RowKindView::SubSheet(sub) => {
            for g in sub.globals_view() {
                used.extend(g.expr().free_variables());
            }
            rows_read(sub.rows_view().iter(), used);
        }
    }
}

/// W105: the globals of `level` nothing in its subtree reads. `vdd`/`f`
/// are exempt: elements read them implicitly through the scope chain.
fn dead_globals(level: &Level<'_>, out: &mut LintReport) {
    let mut used = BTreeSet::new();
    rows_read(level.rows.iter().copied(), &mut used);
    let globals = || level.sheet.globals_view();
    for name in globals().map(|g| g.name()) {
        // Its own formula does not count as a use.
        let read = |g: GlobalView<'_>| g.name() != name && g.expr().free_variables().contains(name);
        if ["vdd", "f"].contains(&name) || used.contains(name) || globals().any(read) {
            continue;
        }
        let path = format!("{}globals/{name}", level.prefix);
        let message = format!("global `{name}` is never read");
        let d = Diagnostic::warning(codes::DEAD_GLOBAL, path, message);
        out.push(d.with_suggestion("remove it, or reference it from a formula"));
    }
}

/// The checks that read a row but not its evaluation: shadowed globals
/// (I201), dead bindings (W106), a clocked element at 0 Hz (W107), swing
/// above the rail (W108) and converter efficiency (W109).
fn row_checks(level: &Level<'_>, row: RowView<'_>, out: &mut LintReport) {
    let rpath = format!("{}rows/{}", level.prefix, row.name());
    let element = match row.kind() {
        RowKindView::Element(element) => Some(element),
        _ => None,
    };
    let params: Vec<&str> = element
        .iter()
        .flat_map(|e| e.params())
        .map(|p| p.name.as_str())
        .collect();
    let mut read = BTreeSet::from(["vdd".to_owned(), "f".to_owned()]);
    read.extend(params.iter().map(|p| p.to_string()));
    model_reads(row, &mut read);
    let bindings: Vec<(&str, &Expr)> = row.bindings().collect();
    for (k, &(param, _)) in bindings.iter().enumerate() {
        let path = format!("{rpath}/bindings/{param}");
        if level.sheet.globals_view().any(|g| g.name() == param) {
            let message =
                format!("binding `{param}` shadows the sheet global of the same name for this row");
            out.push(Diagnostic::info(codes::SHADOWED_GLOBAL, &path, message));
        }
        let read_later = bindings[k + 1..]
            .iter()
            .any(|(_, e)| e.free_variables().contains(param));
        if !read.contains(param) && !read_later {
            let message = format!("binding `{param}` matches no parameter and is never read");
            let d = Diagnostic::warning(codes::DEAD_BINDING, &path, message);
            out.push(match element.filter(|_| !params.is_empty()) {
                Some(e) => {
                    d.with_suggestion(format!("`{}` declares: {}", e.name(), params.join(", ")))
                }
                None => d,
            });
        }
    }
    let Some(e) = element else { return };
    let bound = |name: &str| bindings.iter().find(|b| b.0 == name)?.1.constant_value();
    let param =
        |name: &str| bound(name).or(Some(e.params().iter().find(|p| p.name == name)?.default));
    let rail = |name: &str| bound(name).or_else(|| level.constant(name));
    let mut warn = |code, message: String| out.push(Diagnostic::warning(code, &rpath, message));
    let clocked = e.model().cap_full.is_some() || e.model().cap_partial.is_some();
    if clocked && rail("f") == Some(0.0) {
        let message =
            "clocked element evaluated at a constant 0 Hz; its dynamic power will be zero";
        warn(codes::ZERO_FREQUENCY, message.to_owned());
    }
    let swing = param("swing").filter(|_| params.contains(&"swing"));
    if let Some((s, v)) = swing.zip(rail("vdd")).filter(|(s, v)| s > v) {
        warn(
            codes::SWING_EXCEEDS_VDD,
            format!("reduced swing {s} V exceeds the supply vdd = {v} V"),
        );
    }
    let converter = e.class() == ElementClass::Converter;
    if let Some(eta) = param("eta").filter(|eta| converter && !(*eta > 0.0 && *eta <= 1.0)) {
        warn(
            codes::ETA_OUT_OF_RANGE,
            format!("converter efficiency eta = {eta} is outside (0, 1]"),
        );
    }
}

/// The dimension of `var` where a formula inside `levels[..=depth]`
/// reads it: a row's published value is a power or an area, and a global
/// or a binding has its formula's (handle `k + 1` is `dims[k]`).
fn dim_of(
    levels: &[Level<'_>],
    dims: &[DimInfo],
    depth: usize,
    var: &str,
    names: Names<'_>,
) -> DimInfo {
    let Some(handle) = names(var) else {
        return DimInfo::Any;
    };
    if levels[..=depth].iter().any(|l| l.target(var).is_some()) {
        let area = var.starts_with("A_");
        return DimInfo::Known(if area { Dim::SQ_METRE } else { Dim::WATT });
    }
    handle
        .checked_sub(1)
        .map_or(DimInfo::Any, |k| dims[k as usize])
}

impl Lint<'_> {
    /// The row references of a formula of `kind` at `path` that resolve,
    /// and how: through a dependency edge to a later row (I202), or only
    /// through evaluation order (W111).
    fn row_references(&mut self, depth: usize, kind: Kind, path: &str, expr: &Expr, names: Names) {
        let level = &self.levels[depth];
        for var in expr.free_variables() {
            let resolves = names(&var).is_some();
            let owner = match level.other_row(&var).filter(|_| kind != Kind::Global) {
                Some(j) if kind == Kind::Binding && j > level.row => {
                    let message = format!(
                        "`{var}` refers to row `{}`, defined later in the sheet \
                         (dependency analysis reorders evaluation, so this works)",
                        level.rows[j].name()
                    );
                    self.report
                        .push(Diagnostic::info(codes::FORWARD_REF, path, message));
                    continue;
                }
                Some(j) if kind == Kind::Model && resolves => {
                    format!("row `{}`", level.rows[j].name())
                }
                None if resolves
                    && (kind == Kind::Global || level.target(&var).is_none())
                    && self.levels[..depth]
                        .iter()
                        .any(|l| l.target(&var).is_some()) =>
                {
                    "a parent sheet's row".to_owned()
                }
                _ => continue,
            };
            let message = format!(
                "`{var}` resolves to {owner}, but only because of the current \
                 evaluation order; no dependency is tracked for this reference"
            );
            let d = Diagnostic::warning(codes::ORDER_DEPENDENT_REF, path, message);
            self.report.push(d.with_suggestion(
                "reference it from a row binding at the same sheet level so the \
                 engine orders evaluation explicitly",
            ));
        }
    }

    /// The diagnostic for a name the walk found unbound in a formula of
    /// `kind` at `depth`; `found` is the play's. An unknown `P_x` or
    /// `A_x` is worded by what the plan's row idents say of it, and one a
    /// dependency edge or a cycle accounts for is none.
    fn unbound(&self, depth: usize, kind: Kind, var: &str, d: Diagnostic) -> Option<Diagnostic> {
        let ident = var.strip_prefix("P_").or_else(|| var.strip_prefix("A_"));
        let Some(ident) = ident.filter(|ident| !ident.is_empty()) else {
            return Some(d);
        };
        let level = &self.levels[depth];
        let target = level.target(var).map(|(j, area)| (j, area, level.rows[j]));
        let (code, message, help) = match (target, kind) {
            (None, Kind::Global) => return Some(d),
            (None, _) => (
                codes::REF_UNKNOWN_ROW,
                format!("`{var}` references a row result, but no row folds to identifier `{ident}`"),
                None,
            ),
            (Some(_), Kind::Global) => (
                codes::REF_UNKNOWN_ROW,
                format!(
                    "`{var}` references row `{ident}`, but globals are evaluated \
                     before any row; row results are not visible here"
                ),
                None,
            ),
            (Some((j, ..)), Kind::Binding) if j == level.row => return None,
            (Some((j, ..)), Kind::Model) if j == level.row => (
                codes::REF_UNKNOWN_ROW,
                format!("`{var}` is this row's own result, which does not exist while the row is being evaluated"),
                None,
            ),
            (Some((_, true, row)), _) if !has_area(row) => (
                codes::AREA_REF_NO_AREA,
                format!("`{var}` refers to row `{}`, whose model has no area", row.name()),
                Some("give that row's model an `area` formula"),
            ),
            (Some(_), Kind::Binding) => return None,
            (Some((_, _, row)), Kind::Model) => (
                codes::REF_UNKNOWN_ROW,
                format!(
                    "`{var}` refers to row `{}`, which is evaluated after this row; \
                     model formulas do not create dependency edges",
                    row.name()
                ),
                Some("bind the value through a row parameter instead"),
            ),
        };
        let found = Diagnostic::error(code, d.path, message);
        Some(match help {
            Some(help) => found.with_suggestion(help),
            None => found,
        })
    }

    /// Reports a trap the walk met: the play's diagnostic, worded with
    /// what the plan says of the rows where it knows more.
    fn report_trap(&mut self, err: &EvaluateSheetError) {
        let (nest, inner) = unnest(err);
        let level = &self.levels[nest.len()];
        let rpath = |row: &str| format!("{}rows/{row}", level.prefix);
        let mut found = diagnostic_for_play_error(err);
        let (kind, var) = match inner {
            EvaluateSheetError::Global {
                source: EvalError::UnknownVariable(var),
                ..
            } => (Kind::Global, var),
            EvaluateSheetError::Binding {
                source: EvalError::UnknownVariable(var),
                ..
            } => (Kind::Binding, var),
            EvaluateSheetError::Element { source, .. } => match source {
                EvaluateElementError::Eval {
                    source: EvalError::UnknownVariable(var),
                    ..
                } => (Kind::Model, var),
                EvaluateElementError::MissingOperatingPoint(var) => {
                    let element = match level.rows[level.row].kind() {
                        RowKindView::Element(element) => element.name(),
                        _ => "",
                    };
                    let (needs, global) = match *var {
                        "f" => ("is clocked and needs `f`", "an `f`"),
                        _ => ("needs `vdd`", "a `vdd`"),
                    };
                    found.message = format!(
                        "element `{element}` {needs}, but no global, binding, or parent defines it"
                    );
                    let help = format!("add {global} global to the sheet");
                    return self.report.push(found.with_suggestion(help));
                }
                _ => return self.report.push(found),
            },
            EvaluateSheetError::CircularRows(names) if names.len() == 1 => {
                // Each of its own names the row's bindings read.
                let (i, row) = (level.rows.iter().enumerate())
                    .find(|(_, row)| row.name() == names[0])
                    .expect("the plan names its own row");
                let own = |var: &String| level.target(var).is_some_and(|(j, _)| j == i);
                let read = row.bindings().flat_map(|(_, e)| e.free_variables());
                for var in read.filter(own).collect::<BTreeSet<_>>() {
                    let message = format!("row `{}` references its own result `{var}`", row.name());
                    let d = Diagnostic::error(codes::CIRCULAR_ROWS, rpath(row.name()), message);
                    self.report.push(d);
                }
                return;
            }
            EvaluateSheetError::DuplicateRowIdent(ident) => {
                let mut twins = level.rows.iter().filter(|row| row.ident() == ident);
                let first = twins.next().map_or("", |row| row.name());
                for row in twins {
                    let message = format!(
                        "rows `{first}` and `{}` both fold to identifier `{ident}`",
                        row.name()
                    );
                    let d =
                        Diagnostic::error(codes::DUPLICATE_ROW_IDENT, rpath(row.name()), message);
                    self.report.push(d);
                }
                return;
            }
            _ => return self.report.push(found),
        };
        // A name is reported once per formula, however often it occurs.
        let found = self.unbound(nest.len(), kind, var, found);
        if let Some(d) = found.filter(|d| !self.report.diagnostics().contains(d)) {
            self.report.push(d);
        }
    }
}

impl<'p> Backend<'p> for Lint<'p> {
    fn konst(&mut self, _: f64) -> u32 {
        ANY
    }

    /// Lint walks the un-overridden sheet: no name is an input.
    fn input(&mut self, _: &str) -> Option<u32> {
        None
    }

    fn pure(&mut self, _: Pure, _: Option<&Expr>) -> u32 {
        ANY
    }

    fn check(&mut self, value: u32, _: &[Arc<str>], _: &Arc<str>, _: &'static str) -> u32 {
        value
    }

    /// A missing `vdd` is an error even where a play needs it only for
    /// a nonzero current.
    fn trap_if(&mut self, _: u32, err: &EvaluateSheetError) -> bool {
        self.report_trap(err);
        true
    }

    fn trap(&mut self, err: &EvaluateSheetError) -> Option<u32> {
        self.report_trap(err);
        Some(ANY)
    }

    fn sheet(&mut self, nest: &[Arc<str>], sheet: &'p CompiledSheet) {
        let rows: Vec<RowView<'p>> = sheet.rows_view().iter().collect();
        let idents = (rows.iter().enumerate())
            .filter(|(_, row)| !row.ident().is_empty())
            .map(|(i, row)| (row.ident(), i))
            .collect();
        let prefix = nest.iter().flat_map(|row| ["rows/", row, "/"]).collect();
        let level = Level {
            sheet,
            prefix,
            rows,
            idents,
            row: 0,
        };
        dead_globals(&level, &mut self.report);
        self.levels.truncate(nest.len());
        self.levels.push(level);
    }

    fn enter_row(&mut self, nest: &[Arc<str>], index: usize, row: RowView<'p>) {
        let level = &mut self.levels[nest.len()];
        level.row = index;
        row_checks(level, row, &mut self.report);
    }

    fn formula(
        &mut self,
        nest: &[Arc<str>],
        formula: Formula<'_>,
        expr: &Expr,
        names: Names<'_>,
    ) -> Option<u32> {
        let depth = nest.len();
        let mut path = String::new();
        formula_path(&mut path, nest, formula);
        let (kind, name) = match formula {
            Formula::Global(name) => (Kind::Global, name),
            Formula::Binding { param, .. } => (Kind::Binding, param),
            Formula::Model { formula, .. } => (Kind::Model, formula),
        };
        self.row_references(depth, kind, &path, expr, names);
        let (levels, dims, out) = (&self.levels, &self.dims, &mut self.report);
        let lookup = |var: &str| dim_of(levels, dims, depth, var, names);
        if kind == Kind::Model {
            // A registry element's formulas are checked by the registry
            // lint, at upload; an inline one's only here.
            let row = levels[depth].rows[levels[depth].row];
            if let (RowKindView::Element(e), true) = (row.kind(), row.is_inline()) {
                let slot = slots(e).into_iter().find(|slot| slot.0 == slot_name(name));
                if let Some((_, _, expected)) = slot {
                    check_slot(expr, &path, expected, &lookup, out);
                }
            }
            return None;
        }
        check_constant_folds(expr, &path, out);
        let inferred = infer_dims(expr, &path, &lookup, out).known();
        let conv = convention_dim(name);
        let mut warn = |code, message| out.push(Diagnostic::warning(code, &path, message));
        if let (Some(c), Some(d)) = (conv, inferred.filter(|d| Some(*d) != conv)) {
            let what = match kind {
                Kind::Global => "its formula",
                _ => "the bound formula",
            };
            warn(
                codes::BINDING_TARGET_DIM,
                format!("`{name}` is conventionally {c}, but {what} has dimension {d}"),
            );
        }
        let negative = expr.constant_value().filter(|v| v.is_finite() && *v < 0.0);
        if let (Some(c), Some(v)) = (conv, negative) {
            warn(
                codes::NEGATIVE_CONSTANT_BINDING,
                format!("`{name}` is the physical quantity {c} and is always {v}"),
            );
        }
        self.dims
            .push(inferred.or(conv).map_or(DimInfo::Any, DimInfo::Known));
        Some(self.dims.len() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerplay_library::builtin::ucb_library;
    use powerplay_library::{ElementModel, LibraryElement, Registry};
    use powerplay_sheet::Sheet;

    fn lint(sheet: &Sheet, registry: &Registry) -> LintReport {
        lint_sheet(&CompiledSheet::compile(sheet, registry))
    }

    fn codes_of(report: &LintReport) -> Vec<&str> {
        report
            .diagnostics()
            .iter()
            .map(|d| d.code.as_str())
            .collect()
    }

    fn find<'a>(report: &'a LintReport, code: &str) -> Option<&'a Diagnostic> {
        report.diagnostics().iter().find(|d| d.code == code)
    }

    #[test]
    fn clean_sheet_has_no_errors_and_plays() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("clean");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [("bits", "16")])
            .unwrap();
        let report = lint(&sheet, &lib);
        assert!(!report.has_errors(), "{}", report.render_text());
        sheet.play(&lib).expect("zero-error sheet must play");
    }

    #[test]
    fn unbound_variable_is_e001_with_binding_path() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [("bits", "word_width")])
            .unwrap();
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::UNBOUND_VARIABLE).expect("E001");
        assert_eq!(d.path, "rows/Adder/bindings/bits");
        assert!(d.message.contains("word_width"));
    }

    #[test]
    fn power_plus_capacitance_is_e010() {
        // The acceptance scenario: adding a power to a capacitance.
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.set_global("c_load", "100f").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [("bits", "16")])
            .unwrap();
        sheet
            .add_element_row("Pads", "ucb/pads", [("c_pad", "P_adder + c_load")])
            .unwrap();
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::DIM_MISMATCH).expect("E010");
        assert_eq!(d.path, "rows/Pads/bindings/c_pad");
        assert!(report.has_errors());
    }

    #[test]
    fn p_ref_to_missing_row_is_e008() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("DC", "ucb/dcdc", [("p_load", "P_nonexistent_row")])
            .unwrap();
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::REF_UNKNOWN_ROW).expect("E008");
        assert_eq!(d.path, "rows/DC/bindings/p_load");
        assert!(d.message.contains("nonexistent_row"));
    }

    #[test]
    fn a_ref_to_area_less_row_is_e009() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        // ucb/wire has no area formula.
        sheet
            .add_element_row("Wire", "ucb/wire", [("length_mm", "2")])
            .unwrap();
        sheet
            .add_element_row("Clock", "ucb/clock_net", [("area_mm2", "A_wire * 1e6")])
            .unwrap();
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::AREA_REF_NO_AREA).expect("E009");
        assert_eq!(d.path, "rows/Clock/bindings/area_mm2");
    }

    #[test]
    fn circular_globals_report_the_path() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("a", "b * 2").unwrap();
        sheet.set_global("b", "a / 2").unwrap();
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::CIRCULAR_GLOBALS).expect("E006");
        assert!(d.message.contains("->"), "{}", d.message);
        assert!(d.message.contains('a') && d.message.contains('b'));
    }

    #[test]
    fn self_referential_global_is_e006() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "vdd + 0.1").unwrap();
        let report = lint(&sheet, &lib);
        assert_eq!(
            find(&report, codes::CIRCULAR_GLOBALS).expect("E006").path,
            "globals/vdd"
        );
    }

    #[test]
    fn circular_rows_report_the_path() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("One", "ucb/dcdc", [("p_load", "P_two")])
            .unwrap();
        sheet
            .add_element_row("Two", "ucb/dcdc", [("p_load", "P_one")])
            .unwrap();
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::CIRCULAR_ROWS).expect("E007");
        assert!(d.message.contains("->"), "{}", d.message);
    }

    #[test]
    fn row_self_reference_is_e007() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet
            .add_element_row("Loop", "ucb/dcdc", [("p_load", "P_loop * 0.1")])
            .unwrap();
        let report = lint(&sheet, &lib);
        assert!(find(&report, codes::CIRCULAR_ROWS).is_some());
    }

    #[test]
    fn duplicate_row_idents_are_e005() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.add_element_row("Read Bank", "ucb/sram", []).unwrap();
        sheet.add_element_row("read bank", "ucb/sram", []).unwrap();
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::DUPLICATE_ROW_IDENT).expect("E005");
        assert!(d.message.contains("read_bank"));
    }

    #[test]
    fn unknown_element_is_e004() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet
            .add_element_row("Mystery", "ucb/does_not_exist", [])
            .unwrap();
        let report = lint(&sheet, &lib);
        assert_eq!(
            find(&report, codes::UNKNOWN_ELEMENT).expect("E004").path,
            "rows/Mystery"
        );
    }

    #[test]
    fn shadowing_global_is_i201_and_not_an_error() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Slow Adder", "ucb/ripple_adder", [("f", "f / 16")])
            .unwrap();
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::SHADOWED_GLOBAL).expect("I201");
        assert_eq!(d.path, "rows/Slow Adder/bindings/f");
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn forward_reference_is_i202_and_plays() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("DC", "ucb/dcdc", [("p_load", "P_adder")])
            .unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::FORWARD_REF).expect("I202");
        assert_eq!(d.path, "rows/DC/bindings/p_load");
        assert!(!report.has_errors(), "{}", report.render_text());
        sheet.play(&lib).expect("dependency analysis reorders this");
    }

    #[test]
    fn missing_operating_point_is_e014() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let report = lint(&sheet, &lib);
        let hits: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == codes::MISSING_OPERATING_POINT)
            .collect();
        assert_eq!(
            hits.len(),
            2,
            "vdd and f both missing: {:?}",
            codes_of(&report)
        );
        assert!(sheet.play(&lib).is_err());
    }

    #[test]
    fn zero_frequency_under_clocked_template_is_w107() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "0").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let report = lint(&sheet, &lib);
        assert!(find(&report, codes::ZERO_FREQUENCY).is_some());
    }

    #[test]
    fn swing_above_vdd_is_w108() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.1").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("SRAM", "ucb/sram_lowswing", [("swing", "1.8")])
            .unwrap();
        let report = lint(&sheet, &lib);
        assert!(find(&report, codes::SWING_EXCEEDS_VDD).is_some());
    }

    #[test]
    fn converter_eta_out_of_range_is_w109() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet
            .add_element_row("DC", "ucb/dcdc", [("p_load", "1"), ("eta", "1.4")])
            .unwrap();
        let report = lint(&sheet, &lib);
        assert!(find(&report, codes::ETA_OUT_OF_RANGE).is_some());
    }

    #[test]
    fn dead_global_is_w105_but_vdd_f_exempt() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.set_global("scratch", "42").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let report = lint(&sheet, &lib);
        let dead: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == codes::DEAD_GLOBAL)
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].path, "globals/scratch");
    }

    #[test]
    fn dead_binding_is_w106_with_param_list() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [("bitz", "16")])
            .unwrap();
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::DEAD_BINDING).expect("W106");
        assert_eq!(d.path, "rows/Adder/bindings/bitz");
        assert!(d.suggestion.as_deref().unwrap_or("").contains("bits"));
    }

    #[test]
    fn model_formula_reading_parent_row_is_w111() {
        // An inline model reading another row's P_ works only because of
        // evaluation order — no dependency edge exists for model slots.
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let monitor = LibraryElement::new(
            "inline/monitor",
            ElementClass::System,
            "",
            vec![],
            ElementModel {
                power_direct: Some(Expr::parse("P_adder * 0.01").unwrap()),
                ..ElementModel::default()
            },
        );
        sheet.add_inline_row("Monitor", monitor);
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::ORDER_DEPENDENT_REF).expect("W111");
        assert_eq!(d.path, "rows/Monitor/model/power_direct");
    }

    #[test]
    fn model_formula_reading_later_row_is_e008() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        let monitor = LibraryElement::new(
            "inline/monitor",
            ElementClass::System,
            "",
            vec![],
            ElementModel {
                power_direct: Some(Expr::parse("P_adder * 0.01").unwrap()),
                ..ElementModel::default()
            },
        );
        sheet.add_inline_row("Monitor", monitor);
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::REF_UNKNOWN_ROW).expect("E008");
        assert_eq!(d.path, "rows/Monitor/model/power_direct");
        assert!(sheet.play(&lib).is_err());
    }

    #[test]
    fn global_referencing_row_power_is_e008() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.set_global("budget", "P_adder * 2").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::REF_UNKNOWN_ROW).expect("E008");
        assert_eq!(d.path, "globals/budget");
        assert!(d.message.contains("before any row"));
    }

    #[test]
    fn subsheet_diagnostics_are_prefixed_and_globals_inherited() {
        let lib = ucb_library();
        let mut inner = Sheet::new("inner");
        // Inherits vdd/f from the parent; references something unbound.
        inner
            .add_element_row("Core", "ucb/ripple_adder", [("bits", "missing_width")])
            .unwrap();
        let mut sheet = Sheet::new("outer");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.add_subsheet_row("Custom Hardware", inner);
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::UNBOUND_VARIABLE).expect("E001");
        assert_eq!(d.path, "rows/Custom Hardware/rows/Core/bindings/bits");
        // No E014: vdd/f resolve through the parent's globals.
        assert!(find(&report, codes::MISSING_OPERATING_POINT).is_none());
    }

    #[test]
    fn subsheet_reading_parent_row_power_is_w111() {
        let lib = ucb_library();
        let mut inner = Sheet::new("inner");
        inner
            .add_element_row("DC", "ucb/dcdc", [("p_load", "P_adder")])
            .unwrap();
        let mut sheet = Sheet::new("outer");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        sheet.add_subsheet_row("Converters", inner);
        let report = lint(&sheet, &lib);
        let d = find(&report, codes::ORDER_DEPENDENT_REF).expect("W111");
        assert_eq!(d.path, "rows/Converters/rows/DC/bindings/p_load");
        assert!(!report.has_errors(), "{}", report.render_text());
        sheet
            .play(&lib)
            .expect("order-dependent but evaluates today");
    }

    #[test]
    fn allow_suppresses_codes() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.set_global("scratch", "42").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let report = lint(&sheet, &lib).allow(&[codes::DEAD_GLOBAL]);
        assert!(find(&report, codes::DEAD_GLOBAL).is_none());
    }
}
