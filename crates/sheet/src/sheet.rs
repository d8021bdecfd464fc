//! The design sheet: ordered globals plus rows.

use powerplay_expr::{Expr, ParseExprError};
use powerplay_library::LibraryElement;

use crate::row::{Row, RowModel};

/// A hierarchical design sheet.
///
/// Globals are ordered `(name, formula)` pairs visible to every row and
/// every nested sub-sheet (the paper's "subcircuits may be defined to
/// inherit global parameters"); the reserved names `vdd` and `f` feed the
/// EQ 1 template. Rows instantiate components.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sheet {
    name: String,
    globals: Vec<(String, Expr)>,
    rows: Vec<Row>,
}

impl Sheet {
    /// An empty sheet.
    pub fn new(name: impl Into<String>) -> Sheet {
        Sheet {
            name: name.into(),
            globals: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The sheet's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Global parameter definitions, in declaration order.
    pub fn globals(&self) -> &[(String, Expr)] {
        &self.globals
    }

    /// Rows, in display order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Mutable row access (for interactive editing).
    pub fn rows_mut(&mut self) -> &mut [Row] {
        &mut self.rows
    }

    /// Defines (or redefines) a global parameter from formula source.
    /// Globals may reference each other; cycles are caught at
    /// [`Sheet::play`] time.
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] if the formula does not parse.
    pub fn set_global(
        &mut self,
        name: impl Into<String>,
        formula: &str,
    ) -> Result<(), ParseExprError> {
        let name = name.into();
        let expr = Expr::parse(formula)?;
        if let Some(slot) = self.globals.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = expr;
        } else {
            self.globals.push((name, expr));
        }
        Ok(())
    }

    /// Defines (or redefines) a global parameter to a literal value —
    /// the programmatic twin of typing a number into the form field.
    pub fn set_global_value(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let expr = Expr::Number(value);
        if let Some(slot) = self.globals.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = expr;
        } else {
            self.globals.push((name, expr));
        }
    }

    /// Drops the spare capacity building left in the sheet's lists, so
    /// a decoded sheet, which the store keeps, holds no more than its
    /// content.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.globals.shrink_to_fit();
        self.rows.shrink_to_fit();
        for row in &mut self.rows {
            row.shrink_to_fit();
        }
    }

    pub(crate) fn replace_globals(&mut self, globals: Vec<(String, Expr)>) {
        self.globals = globals;
    }

    /// Appends a row.
    pub fn add_row(&mut self, row: Row) -> &mut Row {
        self.rows.push(row);
        self.rows.last_mut().expect("row just pushed")
    }

    /// Convenience: appends a library-element row with bindings.
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] if any binding formula does not parse.
    pub fn add_element_row<'a, I>(
        &mut self,
        name: &str,
        element: &str,
        bindings: I,
    ) -> Result<&mut Row, ParseExprError>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut row = Row::new(name, RowModel::Element(element.to_owned()));
        for (param, formula) in bindings {
            row.bind(param, formula)?;
        }
        Ok(self.add_row(row))
    }

    /// Convenience: appends an inline-element row.
    pub fn add_inline_row(&mut self, name: &str, element: LibraryElement) -> &mut Row {
        self.add_row(Row::new(name, RowModel::Inline(element)))
    }

    /// Convenience: appends a sub-sheet row (hierarchy).
    pub fn add_subsheet_row(&mut self, name: &str, sub: Sheet) -> &mut Row {
        self.add_row(Row::new(name, RowModel::SubSheet(sub)))
    }

    /// Looks a row up by display name.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name() == name)
    }

    /// Mutable row lookup by display name.
    pub fn row_mut(&mut self, name: &str) -> Option<&mut Row> {
        self.rows.iter_mut().find(|r| r.name() == name)
    }

    /// Removes a row by name, returning it.
    pub fn remove_row(&mut self, name: &str) -> Option<Row> {
        let idx = self.rows.iter().position(|r| r.name() == name)?;
        Some(self.rows.remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globals_replace_in_place() {
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.set_global("vdd", "3.3").unwrap();
        assert_eq!(sheet.globals().len(), 2);
        assert_eq!(sheet.globals()[0].0, "vdd");
        assert_eq!(sheet.globals()[0].1.to_string(), "3.3");
    }

    #[test]
    fn row_management() {
        let mut sheet = Sheet::new("s");
        sheet
            .add_element_row("A", "ucb/sram", [("words", "2048")])
            .unwrap();
        sheet.add_element_row("B", "ucb/register", []).unwrap();
        assert_eq!(sheet.rows().len(), 2);
        assert!(sheet.row("A").is_some());
        assert!(sheet.row("C").is_none());
        let removed = sheet.remove_row("A").unwrap();
        assert_eq!(removed.name(), "A");
        assert_eq!(sheet.rows().len(), 1);
        assert!(sheet.remove_row("A").is_none());
    }

    #[test]
    fn nested_sheets() {
        let mut inner = Sheet::new("inner");
        inner.add_element_row("X", "ucb/register", []).unwrap();
        let mut outer = Sheet::new("outer");
        outer.add_subsheet_row("Subsystem", inner);
        match outer.row("Subsystem").unwrap().model() {
            RowModel::SubSheet(s) => assert_eq!(s.name(), "inner"),
            other => panic!("expected sub-sheet, got {other:?}"),
        }
    }

    #[test]
    fn bad_global_formula_rejected() {
        let mut sheet = Sheet::new("s");
        assert!(sheet.set_global("vdd", "1.5 +").is_err());
        assert!(sheet.globals().is_empty());
    }
}
