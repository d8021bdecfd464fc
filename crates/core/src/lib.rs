//! **PowerPlay** — early power exploration, after Lidsky & Rabaey,
//! *"Early Power Exploration — A World Wide Web Application"*, DAC 1996.
//!
//! Exploration at the earliest stages of design needs four enablers
//! (paper §1): a characterized model library, easy model authoring, a
//! spreadsheet-like worksheet with instant what-if recomputation, and a
//! universally accessible front end. This crate is the facade over the
//! workspace that provides all four:
//!
//! * models of every class in the paper (EQ 1–20) —
//!   `powerplay_models`;
//! * the shared, serializable library with the UCB built-ins —
//!   `powerplay_library`;
//! * the hierarchical design spreadsheet with macro lumping and
//!   sweeps — `powerplay_sheet`;
//! * the two reference designs the paper evaluates — [`designs`]: the VQ
//!   luminance decompression chip (Figures 1–3) and the InfoPad portable
//!   terminal (Figure 5);
//! * the silicon stand-in used to check the "within an octave" accuracy
//!   claim — `powerplay_vqsim` with [`accuracy`]
//!   helpers.
//!
//! (The WWW front end lives in `powerplay-web`, which depends on this
//! stack; run `cargo run --example webserver`.)
//!
//! # Quickstart
//!
//! ```
//! use powerplay::PowerPlay;
//! use powerplay::designs::luminance::{self, LuminanceArch};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pp = PowerPlay::new();
//! let report = pp.play(&luminance::sheet(LuminanceArch::DirectLut))?;
//! println!("{report}");
//! // The paper's Figure 1 architecture lands near 0.75 mW.
//! assert!(report.total_power().value() > 0.5e-3);
//! # Ok(())
//! # }
//! ```

pub mod accuracy;
pub mod backannotate;
pub mod designs;

pub use powerplay_expr::{Expr, Scope};
pub use powerplay_library::{builtin::ucb_library, LibraryElement, Registry};
pub use powerplay_lint::{Diagnostic, LintReport, Severity};
pub use powerplay_models::{OperatingPoint, PowerModel};
pub use powerplay_sheet::{whatif, CompiledSheet, Row, RowModel, Sheet, SheetReport};
pub use powerplay_units::{Capacitance, Current, Energy, Frequency, Power, Time, Voltage};

use powerplay_sheet::EvaluateSheetError;

/// A PowerPlay session: a model registry plus convenience entry points.
///
/// The 1996 tool kept this state on the server; library code keeps it in
/// a value you own.
#[derive(Debug, Clone, Default)]
pub struct PowerPlay {
    registry: Registry,
}

impl PowerPlay {
    /// A session preloaded with the built-in UC Berkeley-style library.
    pub fn new() -> PowerPlay {
        PowerPlay {
            registry: ucb_library(),
        }
    }

    /// A session over a caller-supplied registry.
    pub fn with_registry(registry: Registry) -> PowerPlay {
        PowerPlay { registry }
    }

    /// The model registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable registry access (register user models, merge remote
    /// libraries).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Evaluates a design — the *Play* button.
    ///
    /// # Errors
    ///
    /// Returns [`EvaluateSheetError`] for unknown elements, circular
    /// definitions, or formula failures.
    pub fn play(&self, sheet: &Sheet) -> Result<SheetReport, EvaluateSheetError> {
        sheet.play(&self.registry)
    }

    /// Compiles a design against this session's registry for repeated
    /// what-if evaluation: pay the dependency analysis once, then call
    /// [`CompiledSheet::play_with`] per point.
    pub fn compile(&self, sheet: &Sheet) -> CompiledSheet {
        CompiledSheet::compile(sheet, &self.registry)
    }

    /// Statically analyzes a design: unit-dimension inference, name
    /// analysis, and plausibility checks, without evaluating anything.
    pub fn lint(&self, sheet: &Sheet) -> LintReport {
        powerplay_lint::lint_sheet(&self.compile(sheet))
    }

    /// [`PowerPlay::compile`] plus the [`LintReport`] of the compiled
    /// plan, so callers can surface diagnostics alongside it.
    pub fn compile_with_diagnostics(&self, sheet: &Sheet) -> (CompiledSheet, LintReport) {
        let plan = self.compile(sheet);
        let report = powerplay_lint::lint_sheet(&plan);
        (plan, report)
    }

    /// Lumps a design into a reusable macro and registers it.
    ///
    /// # Errors
    ///
    /// Returns [`powerplay_sheet::Sheet::to_macro`]'s error on
    /// non-template-shaped designs.
    pub fn lump(
        &mut self,
        sheet: &Sheet,
        name: &str,
    ) -> Result<&LibraryElement, Box<dyn std::error::Error>> {
        let element = sheet.to_macro(name, &self.registry)?;
        self.registry.insert(element);
        Ok(self.registry.get(name).expect("just inserted"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_defaults_to_builtin_library() {
        let pp = PowerPlay::new();
        assert!(pp.registry().get("ucb/multiplier").is_some());
        assert_eq!(PowerPlay::default().registry().len(), 0);
    }

    #[test]
    fn play_and_lump_through_the_facade() {
        let mut pp = PowerPlay::new();
        let mut sheet = Sheet::new("demo");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "1MHz").unwrap();
        sheet.add_element_row("R", "ucb/register", []).unwrap();
        let report = pp.play(&sheet).unwrap();
        assert!(report.total_power().value() > 0.0);

        let lumped = pp.lump(&sheet, "macros/demo").unwrap();
        assert_eq!(lumped.name(), "macros/demo");
        assert!(pp.registry().get("macros/demo").is_some());
    }
}
