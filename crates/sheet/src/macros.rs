//! Macro lumping: collapsing a sub-design into a single reusable library
//! element.
//!
//! "It should be possible to lump a modeled design, such as the
//! video-decompression sub-system, into a single macro that can be used
//! at higher levels of the system design, or re-used in other designs."
//!
//! Every conforming sheet evaluates, as a function of the inherited
//! supply `v` and rate `f`, to the polynomial
//!
//! ```text
//! P(v, f) = (a·v² + b·v)·f + I·v + D
//! ```
//!
//! (`a` full-rail capacitance, `b` partial-swing charge, `I` static
//! current, `D` direct power) because each row is an EQ 1 instance and
//! row rates are formulas proportional to `f`. Four probe evaluations
//! recover the coefficients *exactly*; a fifth probe verifies the sheet
//! actually conforms and rejects lumping otherwise.

use std::error::Error;
use std::fmt;

use powerplay_expr::Expr;
use powerplay_library::{ElementClass, ElementModel, LibraryElement, Registry};

use crate::engine::EvaluateSheetError;
use crate::plan::CompiledSheet;
use crate::sheet::Sheet;

/// Error produced by [`Sheet::to_macro`].
#[derive(Debug, Clone, PartialEq)]
pub enum LumpMacroError {
    /// The sheet failed to evaluate at a probe point.
    Evaluate(EvaluateSheetError),
    /// The sheet's power is not of the EQ 1 template form (e.g. a row's
    /// rate is an absolute constant rather than proportional to `f`, or a
    /// direct-power formula depends non-linearly on `vdd`).
    NotTemplateShaped {
        /// Relative mismatch observed at the verification probe.
        relative_error: f64,
    },
}

impl fmt::Display for LumpMacroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LumpMacroError::Evaluate(e) => write!(f, "macro probe failed: {e}"),
            LumpMacroError::NotTemplateShaped { relative_error } => write!(
                f,
                "design does not reduce to the EQ 1 template (verification \
                 mismatch {relative_error:.2e}); lump sub-sheets instead"
            ),
        }
    }
}

impl Error for LumpMacroError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LumpMacroError::Evaluate(e) => Some(e),
            LumpMacroError::NotTemplateShaped { .. } => None,
        }
    }
}

impl From<EvaluateSheetError> for LumpMacroError {
    fn from(e: EvaluateSheetError) -> Self {
        LumpMacroError::Evaluate(e)
    }
}

impl Sheet {
    /// Lumps this design into a single [`LibraryElement`] of class
    /// [`ElementClass::Macro`] with the same `P(vdd, f)` behaviour.
    ///
    /// The sheet's own `vdd`/`f` globals (if any) are ignored — the macro
    /// takes its operating point from wherever it is instantiated, like
    /// any other library element.
    ///
    /// # Errors
    ///
    /// Returns [`LumpMacroError::Evaluate`] if a probe evaluation fails
    /// and [`LumpMacroError::NotTemplateShaped`] if the design's power is
    /// not of the template form (the extraction would be wrong).
    pub fn to_macro(
        &self,
        name: impl Into<String>,
        registry: &Registry,
    ) -> Result<LibraryElement, LumpMacroError> {
        // Strip vdd/f so the probes set the operating point: both become
        // appended globals of one override plan, compiled and lowered
        // once for all five probes.
        let mut probe_sheet = self.clone();
        probe_sheet.retain_globals(|n| n != "vdd" && n != "f");
        let plan = CompiledSheet::compile(&probe_sheet, registry);
        let operating_point = plan.override_plan(&["vdd", "f"]);

        let probe = |vdd: f64, f: f64| -> Result<f64, LumpMacroError> {
            Ok(plan
                .play_with_plan(&operating_point, &[vdd, f])?
                .total_power()
                .value())
        };

        // Static plane: P(v, 0) = I·v + D.
        let p10 = probe(1.0, 0.0)?;
        let p20 = probe(2.0, 0.0)?;
        let static_current = p20 - p10;
        let direct = 2.0 * p10 - p20;

        // Dynamic plane: P(v, 1) − P(v, 0) = a·v² + b·v.
        let d1 = probe(1.0, 1.0)? - p10;
        let d2 = probe(2.0, 1.0)? - p20;
        let cap_full = (d2 - 2.0 * d1) / 2.0;
        let q_partial = d1 - cap_full;

        // Verify at an unrelated operating point.
        let (v_check, f_check) = (1.5, 2.0e6);
        let predicted = (cap_full * v_check * v_check + q_partial * v_check) * f_check
            + static_current * v_check
            + direct;
        let actual = probe(v_check, f_check)?;
        let scale = actual.abs().max(1e-12);
        let relative_error = (predicted - actual).abs() / scale;
        let negatives = [cap_full, q_partial, static_current, direct]
            .into_iter()
            .any(|x| x < -1e-9 * scale);
        if relative_error > 1e-6 || negatives {
            return Err(LumpMacroError::NotTemplateShaped { relative_error });
        }

        let mut model = ElementModel::default();
        let eps = 1e-30;
        if cap_full > eps {
            model.cap_full = Some(Expr::Number(cap_full));
        }
        if q_partial > eps {
            // Represented as a partial-swing cap with a 1 V swing.
            model.cap_partial = Some((Expr::Number(q_partial), Expr::Number(1.0)));
        }
        if static_current > eps {
            model.static_current = Some(Expr::Number(static_current));
        }
        if direct > eps {
            model.power_direct = Some(Expr::Number(direct));
        }

        Ok(LibraryElement::new(
            name,
            ElementClass::Macro,
            format!(
                "Lumped macro of design `{}` ({} rows): P(vdd,f) = \
                 ({cap_full:.4e}*vdd^2 + {q_partial:.4e}*vdd)*f + \
                 {static_current:.4e}*vdd + {direct:.4e}",
                self.name(),
                self.rows().len(),
            ),
            vec![],
            model,
        ))
    }

    /// Keeps only the globals whose name satisfies `keep`.
    pub(crate) fn retain_globals(&mut self, keep: impl Fn(&str) -> bool) {
        let kept: Vec<(String, Expr)> = self
            .globals()
            .iter()
            .filter(|(n, _)| keep(n))
            .cloned()
            .collect();
        self.replace_globals(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvaluateSheetError as _E;
    use crate::row::RowModel;
    use crate::Row;
    use powerplay_library::builtin::ucb_library;

    fn decoder_sheet() -> Sheet {
        let mut sheet = Sheet::new("decoder");
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
            .add_element_row("LUT", "ucb/sram", [("words", "4096"), ("bits", "6")])
            .unwrap();
        sheet
            .add_element_row("Out", "ucb/register", [("bits", "6")])
            .unwrap();
        sheet
    }

    #[test]
    fn lumped_macro_matches_inline_sheet() {
        let lib = ucb_library();
        let sheet = decoder_sheet();
        let lumped = sheet.to_macro("macros/decoder", &lib).unwrap();

        // Instantiate both in a parent design at several operating points.
        for (vdd, f) in [(1.5, 2e6), (3.3, 2e6), (1.1, 10e6), (2.0, 0.5e6)] {
            let mut inline_parent = Sheet::new("p1");
            inline_parent.set_global("vdd", &vdd.to_string()).unwrap();
            inline_parent.set_global("f", &f.to_string()).unwrap();
            let mut inner = sheet.clone();
            inner.retain_globals(|n| n != "vdd" && n != "f");
            inline_parent.add_subsheet_row("D", inner);

            let mut lumped_parent = Sheet::new("p2");
            lumped_parent.set_global("vdd", &vdd.to_string()).unwrap();
            lumped_parent.set_global("f", &f.to_string()).unwrap();
            lumped_parent.add_row(Row::new("D", RowModel::Inline(lumped.clone())));

            let a = inline_parent.play(&lib).unwrap().total_power().value();
            let b = lumped_parent.play(&lib).unwrap().total_power().value();
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1e-12),
                "mismatch at vdd={vdd} f={f}: inline {a}, lumped {b}"
            );
        }
    }

    #[test]
    fn macro_with_static_and_direct_terms() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("mixed");
        sheet
            .add_element_row("Amp", "ucb/analog_bias", [("i_bias", "2e-3")])
            .unwrap();
        sheet
            .add_element_row("Panel", "ucb/lcd_display", [("p_panel", "0.5")])
            .unwrap();
        sheet
            .add_element_row("Logic", "ucb/register", [("bits", "16")])
            .unwrap();
        let lumped = sheet.to_macro("macros/mixed", &lib).unwrap();
        let model = lumped.model();
        assert!(model.cap_full.is_some(), "dynamic term expected");
        assert!(model.static_current.is_some(), "static term expected");
        assert!(model.power_direct.is_some(), "direct term expected");
        assert!(lumped.doc().contains("Lumped macro"));
        assert_eq!(lumped.class(), ElementClass::Macro);
    }

    #[test]
    fn non_template_sheet_is_rejected() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("odd");
        // Absolute (f-independent) rate: P no longer factors as
        // (a v^2 + b v) f + I v + D.
        sheet
            .add_element_row("Fixed rate", "ucb/register", [("bits", "16"), ("f", "1e6")])
            .unwrap();
        let err = sheet.to_macro("macros/odd", &lib).unwrap_err();
        assert!(matches!(err, LumpMacroError::NotTemplateShaped { .. }));
        assert!(err.to_string().contains("template"));
    }

    #[test]
    fn probe_failures_surface() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("broken");
        sheet.add_element_row("X", "missing/element", []).unwrap();
        let err = sheet.to_macro("macros/broken", &lib).unwrap_err();
        assert!(matches!(
            err,
            LumpMacroError::Evaluate(_E::UnknownElement { .. })
        ));
    }

    #[test]
    fn macro_of_hierarchical_design() {
        // Lumping composes: a sheet containing a sub-sheet still lumps.
        let lib = ucb_library();
        let mut inner = Sheet::new("inner");
        inner
            .add_element_row("M", "ucb/multiplier", [("bw_a", "8"), ("bw_b", "8")])
            .unwrap();
        let mut outer = Sheet::new("outer");
        outer.add_subsheet_row("Sub", inner);
        outer.add_element_row("Reg", "ucb/register", []).unwrap();
        let lumped = outer.to_macro("macros/outer", &lib).unwrap();

        let mut parent = Sheet::new("p");
        parent.set_global("vdd", "1.5").unwrap();
        parent.set_global("f", "2MHz").unwrap();
        parent.add_row(Row::new("L", RowModel::Inline(lumped)));
        let via_macro = parent.play(&lib).unwrap().total_power().value();

        let mut direct_parent = Sheet::new("p2");
        direct_parent.set_global("vdd", "1.5").unwrap();
        direct_parent.set_global("f", "2MHz").unwrap();
        direct_parent.add_subsheet_row("D", outer);
        let direct = direct_parent.play(&lib).unwrap().total_power().value();

        assert!((via_macro - direct).abs() < 1e-9 * direct);
    }
}
