//! Sheet rows: one instantiated component per row.

use powerplay_expr::{Expr, ParseExprError};
use powerplay_library::LibraryElement;

use crate::sheet::Sheet;

/// What a row instantiates.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum RowModel {
    /// A library element looked up by registry path at evaluation time.
    Element(String),
    /// An inline element carried by the sheet itself (ad-hoc user models
    /// and lumped macros). Boxed-size asymmetry with `Element` is fine:
    /// rows are few and cold.
    Inline(LibraryElement),
    /// A nested sub-design; the row's power is the sub-sheet's total.
    /// Hyperlinked in the web view, exactly like the InfoPad's "Custom
    /// Hardware" row.
    SubSheet(Sheet),
}

/// One spreadsheet row: a display name, the model it instantiates, and an
/// ordered list of parameter bindings.
///
/// Bindings are formulas evaluated against the sheet's globals, the row's
/// earlier bindings, and the computed powers of other rows (as
/// `P_<row_ident>`). Binding `f` or `vdd` shadows the inherited global
/// for this row (and, for sub-sheets, the whole subtree).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    name: String,
    model: RowModel,
    bindings: Vec<(String, Expr)>,
    doc_link: Option<String>,
}

impl Row {
    /// Creates a row with no bindings.
    pub fn new(name: impl Into<String>, model: RowModel) -> Row {
        Row {
            name: name.into(),
            model,
            bindings: Vec::new(),
            doc_link: None,
        }
    }

    /// The display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The identifier other rows use to reference this row's power:
    /// lowercase, non-alphanumerics folded to `_` (e.g. `"Read Bank"` →
    /// `read_bank`, referenced as `P_read_bank`).
    pub fn ident(&self) -> String {
        ident_of(&self.name)
    }

    /// The instantiated model.
    pub fn model(&self) -> &RowModel {
        &self.model
    }

    /// Mutable access to the model (used when editing sub-sheets).
    pub fn model_mut(&mut self) -> &mut RowModel {
        &mut self.model
    }

    /// Parameter bindings in evaluation order.
    pub fn bindings(&self) -> &[(String, Expr)] {
        &self.bindings
    }

    /// Adds or replaces a binding from formula source.
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] if the formula does not parse.
    pub fn bind(&mut self, param: impl Into<String>, formula: &str) -> Result<(), ParseExprError> {
        let param = param.into();
        let expr = Expr::parse(formula)?;
        if let Some(slot) = self.bindings.iter_mut().find(|(name, _)| *name == param) {
            slot.1 = expr;
        } else {
            self.bindings.push((param, expr));
        }
        Ok(())
    }

    /// Builder-style [`Self::bind`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] if the formula does not parse.
    pub fn with_binding(mut self, param: &str, formula: &str) -> Result<Row, ParseExprError> {
        self.bind(param, formula)?;
        Ok(self)
    }

    /// Drops the bindings list's spare capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bindings.shrink_to_fit();
    }

    /// Documentation hyperlink target, if any.
    pub fn doc_link(&self) -> Option<&str> {
        self.doc_link.as_deref()
    }

    /// Sets the documentation hyperlink ("every subcircuit or primitive
    /// instantiation has links to relevant documentation").
    pub fn set_doc_link(&mut self, url: impl Into<String>) {
        self.doc_link = Some(url.into());
    }
}

/// Folds a display name to the identifier used in `P_<ident>` references.
pub(crate) fn ident_of(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut last_underscore = false;
    for c in name.chars() {
        if c.is_alphanumeric() {
            out.extend(c.to_lowercase());
            last_underscore = false;
        } else if !last_underscore && !out.is_empty() {
            out.push('_');
            last_underscore = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_folding() {
        assert_eq!(ident_of("Read Bank"), "read_bank");
        assert_eq!(ident_of("Look-Up Table"), "look_up_table");
        assert_eq!(ident_of("  µP Subsystem "), "µp_subsystem");
        assert_eq!(ident_of("a---b"), "a_b");
        assert_eq!(ident_of("Trailing!"), "trailing");
    }

    #[test]
    fn bindings_replace_in_place() {
        let mut row = Row::new("X", RowModel::Element("ucb/sram".into()));
        row.bind("words", "2048").unwrap();
        row.bind("bits", "6").unwrap();
        row.bind("words", "1024").unwrap();
        assert_eq!(row.bindings().len(), 2);
        assert_eq!(row.bindings()[0].0, "words");
        assert_eq!(row.bindings()[0].1.to_string(), "1024");
    }

    #[test]
    fn bad_formula_is_rejected() {
        let mut row = Row::new("X", RowModel::Element("e".into()));
        assert!(row.bind("words", "2048 *").is_err());
        assert!(row.bindings().is_empty());
    }

    #[test]
    fn doc_links() {
        let mut row = Row::new("X", RowModel::Element("e".into()));
        assert!(row.doc_link().is_none());
        row.set_doc_link("/doc/ucb/sram");
        assert_eq!(row.doc_link(), Some("/doc/ucb/sram"));
    }
}
