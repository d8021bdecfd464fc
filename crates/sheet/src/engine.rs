//! Sheet evaluation: the *Play* button and its error type.
//!
//! The actual dependency analysis and evaluation live in
//! [`crate::plan`]; [`Sheet::play`] compiles a throwaway plan and runs
//! it once. Repeated evaluation (sweeps, sensitivities) should compile
//! a [`crate::CompiledSheet`] once and replay it instead.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use powerplay_expr::EvalError;
use powerplay_library::{EvaluateElementError, Registry};

use crate::plan::CompiledSheet;
use crate::report::SheetReport;
use crate::sheet::Sheet;

/// Error produced by [`Sheet::play`].
#[derive(Debug, Clone, PartialEq)]
pub enum EvaluateSheetError {
    /// A row references an element path missing from the registry.
    UnknownElement {
        /// The offending row.
        row: String,
        /// The unresolved path.
        element: String,
    },
    /// Global parameter definitions form a cycle.
    CircularGlobals(Vec<String>),
    /// Rows reference each other's power (`P_<row>`) cyclically.
    CircularRows(Vec<String>),
    /// Two rows fold to the same `P_<ident>` reference name.
    DuplicateRowIdent(String),
    /// A global's formula failed to evaluate.
    Global {
        /// The global's name.
        name: String,
        /// The underlying error.
        source: EvalError,
    },
    /// A row binding's formula failed to evaluate.
    Binding {
        /// The row holding the binding.
        row: String,
        /// The bound parameter.
        param: String,
        /// The underlying error.
        source: EvalError,
    },
    /// The row's element failed to evaluate.
    Element {
        /// The offending row.
        row: String,
        /// The underlying error.
        source: EvaluateElementError,
    },
    /// A nested sub-sheet failed.
    Nested {
        /// The row holding the sub-sheet.
        row: String,
        /// The sub-sheet's error.
        source: Box<EvaluateSheetError>,
    },
}

impl fmt::Display for EvaluateSheetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvaluateSheetError::UnknownElement { row, element } => {
                write!(f, "row `{row}`: element `{element}` not in library")
            }
            EvaluateSheetError::CircularGlobals(names) => {
                write!(f, "circular global definitions: {}", names.join(" -> "))
            }
            EvaluateSheetError::CircularRows(names) => {
                write!(f, "circular row power references: {}", names.join(" -> "))
            }
            EvaluateSheetError::DuplicateRowIdent(ident) => {
                write!(f, "two rows share the identifier `{ident}`")
            }
            EvaluateSheetError::Global { name, source } => {
                write!(f, "global `{name}`: {source}")
            }
            EvaluateSheetError::Binding { row, param, source } => {
                write!(f, "row `{row}`, binding `{param}`: {source}")
            }
            EvaluateSheetError::Element { row, source } => {
                write!(f, "row `{row}`: {source}")
            }
            EvaluateSheetError::Nested { row, source } => {
                write!(f, "in sub-sheet `{row}`: {source}")
            }
        }
    }
}

impl Error for EvaluateSheetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EvaluateSheetError::Global { source, .. }
            | EvaluateSheetError::Binding { source, .. } => Some(source),
            EvaluateSheetError::Element { source, .. } => Some(source),
            EvaluateSheetError::Nested { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl Sheet {
    /// Evaluates the whole design against `registry` — the paper's *Play*
    /// button.
    ///
    /// # Errors
    ///
    /// Returns [`EvaluateSheetError`] for unknown elements, circular
    /// definitions, or formula failures anywhere in the hierarchy.
    pub fn play(&self, registry: &Registry) -> Result<SheetReport, EvaluateSheetError> {
        CompiledSheet::compile(self, registry).play()
    }
}

/// Topological sort of `0..n` given `deps[i] = set of nodes that must
/// come before i`. Returns the evaluation order, or the members of a
/// cycle.
///
/// Iterative with an explicit frame stack, so deeply chained designs
/// (row N feeding row N-1 feeding ...) cannot overflow the call stack.
/// The frame stack mirrors the recursion stack of the obvious DFS
/// exactly, so cycle membership is reported identically: the stack
/// suffix starting at the first occurrence of the re-entered node.
pub fn toposort(
    n: usize,
    deps: &BTreeMap<usize, BTreeSet<usize>>,
) -> Result<Vec<usize>, Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Unvisited,
        InProgress,
        Done,
    }
    let mut state = vec![State::Unvisited; n];
    let mut order = Vec::with_capacity(n);
    let empty = BTreeSet::new();
    let preds_of = |node: usize| deps.get(&node).unwrap_or(&empty).iter();

    let mut frames: Vec<(usize, std::collections::btree_set::Iter<'_, usize>)> = Vec::new();
    for root in 0..n {
        if state[root] == State::Done {
            continue;
        }
        state[root] = State::InProgress;
        frames.push((root, preds_of(root)));
        while !frames.is_empty() {
            let next = frames.last_mut().expect("loop guard").1.next().copied();
            match next {
                Some(p) => match state[p] {
                    State::Done => {}
                    State::InProgress => {
                        // Found a cycle: report the stack suffix from the
                        // repeat.
                        let start = frames.iter().position(|(f, _)| *f == p).unwrap_or(0);
                        return Err(frames[start..].iter().map(|(f, _)| *f).collect());
                    }
                    State::Unvisited => {
                        state[p] = State::InProgress;
                        frames.push((p, preds_of(p)));
                    }
                },
                None => {
                    let (node, _) = frames.pop().expect("loop guard");
                    state[node] = State::Done;
                    order.push(node);
                }
            }
        }
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RowReport;
    use powerplay_library::builtin::ucb_library;
    use powerplay_units::Power;

    fn lib() -> Registry {
        ucb_library()
    }

    fn luminance_like() -> Sheet {
        let mut sheet = Sheet::new("Luminance");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row(
                "Read Bank",
                "ucb/sram",
                [("words", "2048"), ("bits", "8"), ("f", "f / 16")],
            )
            .unwrap();
        sheet
            .add_element_row(
                "Write Bank",
                "ucb/sram",
                [("words", "2048"), ("bits", "8"), ("f", "f / 32")],
            )
            .unwrap();
        sheet
            .add_element_row(
                "Look Up Table",
                "ucb/sram",
                [("words", "4096"), ("bits", "6")],
            )
            .unwrap();
        sheet
            .add_element_row("Output Register", "ucb/register", [("bits", "6")])
            .unwrap();
        sheet
    }

    #[test]
    fn play_produces_per_row_powers() {
        let report = luminance_like().play(&lib()).unwrap();
        assert_eq!(report.rows().len(), 4);
        // The LUT runs at full pixel rate and dominates.
        let lut = report.row("Look Up Table").unwrap();
        for row in report.rows() {
            assert!(row.power().value() > 0.0, "{} has no power", row.name());
        }
        assert!(lut.power() > report.row("Read Bank").unwrap().power());
        let sum: Power = report.rows().iter().map(RowReport::power).sum();
        assert!((sum.value() - report.total_power().value()).abs() < 1e-15);
    }

    #[test]
    fn row_rate_binding_divides_global() {
        let report = luminance_like().play(&lib()).unwrap();
        let read = report.row("Read Bank").unwrap();
        assert_eq!(read.rate(), Some(125e3));
        let lut = report.row("Look Up Table").unwrap();
        assert_eq!(lut.rate(), Some(2e6)); // inherits the global
    }

    #[test]
    fn changing_a_global_changes_everything() {
        let mut sheet = luminance_like();
        let p_15 = sheet.play(&lib()).unwrap().total_power();
        sheet.set_global("vdd", "3.0").unwrap();
        let p_30 = sheet.play(&lib()).unwrap().total_power();
        // Full-rail design: quadrupled power at doubled supply.
        assert!((p_30 / p_15 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn globals_may_reference_each_other() {
        let mut sheet = Sheet::new("s");
        sheet.set_global("pixels", "256 * 128").unwrap();
        sheet.set_global("refresh", "60").unwrap();
        // f defined in terms of later-declared globals: order-independent.
        sheet.set_global("f", "pixels * refresh / 983.04").unwrap();
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.add_element_row("R", "ucb/register", []).unwrap();
        let report = sheet.play(&lib()).unwrap();
        let f = report.global("f").unwrap();
        assert!((f - 2000.0).abs() < 1.0);
    }

    #[test]
    fn circular_globals_detected() {
        let mut sheet = Sheet::new("s");
        sheet.set_global("a", "b + 1").unwrap();
        sheet.set_global("b", "a + 1").unwrap();
        let err = sheet.play(&lib()).unwrap_err();
        assert!(matches!(err, EvaluateSheetError::CircularGlobals(_)));
        assert!(err.to_string().contains("circular"));
    }

    #[test]
    fn self_referential_global_detected() {
        let mut sheet = Sheet::new("s");
        sheet.set_global("a", "a * 2").unwrap();
        assert!(matches!(
            sheet.play(&lib()).unwrap_err(),
            EvaluateSheetError::CircularGlobals(_)
        ));
    }

    #[test]
    fn converter_row_references_other_rows_power() {
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Core", "ucb/multiplier", [("bw_a", "16"), ("bw_b", "16")])
            .unwrap();
        // EQ 19 intermodel interaction: the converter feeds the core.
        sheet
            .add_element_row(
                "Converter",
                "ucb/dcdc",
                [("p_load", "P_core"), ("eta", "0.8")],
            )
            .unwrap();
        let report = sheet.play(&lib()).unwrap();
        let core = report.row("Core").unwrap().power();
        let conv = report.row("Converter").unwrap().power();
        assert!((conv.value() - core.value() * 0.25).abs() < 1e-15);
    }

    #[test]
    fn converter_dependency_order_is_independent_of_row_order() {
        // Converter listed FIRST still sees the core's power.
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row(
                "Converter",
                "ucb/dcdc",
                [("p_load", "P_core"), ("eta", "0.8")],
            )
            .unwrap();
        sheet
            .add_element_row("Core", "ucb/multiplier", [("bw_a", "16"), ("bw_b", "16")])
            .unwrap();
        let report = sheet.play(&lib()).unwrap();
        let core = report.row("Core").unwrap().power();
        let conv = report.row("Converter").unwrap().power();
        assert!((conv.value() - core.value() * 0.25).abs() < 1e-15);
    }

    #[test]
    fn circular_row_powers_detected() {
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet
            .add_element_row("A", "ucb/dcdc", [("p_load", "P_b")])
            .unwrap();
        sheet
            .add_element_row("B", "ucb/dcdc", [("p_load", "P_a")])
            .unwrap();
        assert!(matches!(
            sheet.play(&lib()).unwrap_err(),
            EvaluateSheetError::CircularRows(_)
        ));
    }

    #[test]
    fn self_power_reference_detected() {
        let mut sheet = Sheet::new("s");
        sheet
            .add_element_row("A", "ucb/dcdc", [("p_load", "P_a")])
            .unwrap();
        assert!(matches!(
            sheet.play(&lib()).unwrap_err(),
            EvaluateSheetError::CircularRows(_)
        ));
    }

    #[test]
    fn duplicate_row_idents_rejected() {
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "1MHz").unwrap();
        sheet
            .add_element_row("Read Bank", "ucb/register", [])
            .unwrap();
        sheet
            .add_element_row("read-bank", "ucb/register", [])
            .unwrap();
        assert!(matches!(
            sheet.play(&lib()).unwrap_err(),
            EvaluateSheetError::DuplicateRowIdent(_)
        ));
    }

    #[test]
    fn unknown_element_reported_with_row() {
        let mut sheet = Sheet::new("s");
        sheet
            .add_element_row("Mystery", "nowhere/nothing", [])
            .unwrap();
        match sheet.play(&lib()).unwrap_err() {
            EvaluateSheetError::UnknownElement { row, element } => {
                assert_eq!(row, "Mystery");
                assert_eq!(element, "nowhere/nothing");
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn subsheets_inherit_and_shadow_globals() {
        let mut sub = Sheet::new("sub");
        sub.add_element_row("M", "ucb/multiplier", []).unwrap();

        let mut top = Sheet::new("top");
        top.set_global("vdd", "1.5").unwrap();
        top.set_global("f", "2MHz").unwrap();
        top.add_subsheet_row("Inherits", sub.clone());
        top.add_subsheet_row("Shadows", sub)
            .bind("vdd", "3.0")
            .unwrap();

        let report = top.play(&lib()).unwrap();
        let inherited = report.row("Inherits").unwrap().power();
        let shadowed = report.row("Shadows").unwrap().power();
        assert!((shadowed / inherited - 4.0).abs() < 1e-9);
        // Sub-reports are attached for hyperlinked drill-down.
        assert!(report.row("Inherits").unwrap().sub_report().is_some());
    }

    #[test]
    fn binding_errors_name_the_row_and_param() {
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "1MHz").unwrap();
        sheet
            .add_element_row("R", "ucb/register", [("bits", "undefined_thing")])
            .unwrap();
        match sheet.play(&lib()).unwrap_err() {
            EvaluateSheetError::Binding { row, param, .. } => {
                assert_eq!(row, "R");
                assert_eq!(param, "bits");
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn bindings_may_reference_earlier_bindings_and_defaults() {
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row(
                "Mem",
                "ucb/sram",
                [("words", "1024"), ("bits", "words / 256")],
            )
            .unwrap();
        let report = sheet.play(&lib()).unwrap();
        let params = report.row("Mem").unwrap().params();
        assert!(params.contains(&("words".into(), 1024.0)));
        assert!(params.contains(&("bits".into(), 4.0)));
    }

    #[test]
    fn empty_sheet_is_zero_power() {
        let report = Sheet::new("empty").play(&lib()).unwrap();
        assert_eq!(report.total_power(), Power::ZERO);
        assert!(report.rows().is_empty());
    }
}

#[cfg(test)]
mod area_reference_tests {
    use super::*;
    use powerplay_library::builtin::ucb_library;

    #[test]
    fn interconnect_row_derives_from_module_areas() {
        // The paper: "the power dissipation of interconnect is a function
        // of the active area of the design (and thus of its composing
        // modules)". A wire row sized from the datapath's area.
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row(
                "Datapath",
                "ucb/multiplier",
                [("bw_a", "16"), ("bw_b", "16")],
            )
            .unwrap();
        // Wire length proportional to sqrt(area): A in m2, length in mm.
        sheet
            .add_element_row(
                "Wiring",
                "ucb/wire",
                [("length_mm", "sqrt(A_datapath) * 1000 * 4")],
            )
            .unwrap();
        let report = sheet.play(&lib).unwrap();
        let datapath_area = report.row("Datapath").unwrap().area().unwrap().value();
        let expected_len_mm = datapath_area.sqrt() * 1000.0 * 4.0;
        let expected_power = expected_len_mm * 0.2e-12 * 0.25 * 1.5 * 1.5 * 2e6;
        let wiring = report.row("Wiring").unwrap().power().value();
        assert!(
            (wiring - expected_power).abs() < 1e-9 * expected_power,
            "wiring {wiring} vs expected {expected_power}"
        );
    }

    #[test]
    fn area_reference_order_independent() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "1MHz").unwrap();
        // Wiring listed FIRST, referencing a later row's area.
        sheet
            .add_element_row("Wiring", "ucb/wire", [("length_mm", "A_mem * 1e6")])
            .unwrap();
        sheet
            .add_element_row("Mem", "ucb/sram", [("words", "1024"), ("bits", "8")])
            .unwrap();
        let report = sheet.play(&lib).unwrap();
        assert!(report.row("Wiring").unwrap().power().value() > 0.0);
    }

    #[test]
    fn missing_area_reference_is_an_error() {
        // Referencing the area of a row that models no area fails with an
        // unknown-variable binding error, not silence.
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "1MHz").unwrap();
        sheet
            .add_element_row("Panel", "ucb/lcd_display", [])
            .unwrap(); // no area model
        sheet
            .add_element_row("Wiring", "ucb/wire", [("length_mm", "A_panel * 1e6")])
            .unwrap();
        let err = sheet.play(&lib).unwrap_err();
        assert!(matches!(err, EvaluateSheetError::Binding { .. }), "{err}");
    }
}
