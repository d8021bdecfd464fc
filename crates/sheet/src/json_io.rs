//! JSON persistence for designs — PowerPlay keeps each user's
//! "previously generated designs" on the server's file system.

use std::error::Error;
use std::fmt;

use powerplay_json::Json;
use powerplay_library::LibraryElement;

use crate::row::{Row, RowModel};
use crate::sheet::Sheet;

/// Error produced when decoding a design document.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeSheetError(String);

impl DecodeSheetError {
    fn new(msg: impl Into<String>) -> DecodeSheetError {
        DecodeSheetError(msg.into())
    }
}

impl fmt::Display for DecodeSheetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid design document: {}", self.0)
    }
}

impl Error for DecodeSheetError {}

impl Sheet {
    /// Encodes the design (recursively) as JSON.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("name", Json::from(self.name())),
            (
                "globals",
                self.globals()
                    .iter()
                    .map(|(name, expr)| {
                        Json::object([
                            ("name", Json::from(name.as_str())),
                            ("formula", Json::from(expr.to_string())),
                        ])
                    })
                    .collect(),
            ),
            ("rows", self.rows().iter().map(row_to_json).collect()),
        ])
    }

    /// Decodes a design from the [`Self::to_json`] representation.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeSheetError`] on structural or formula errors.
    pub fn from_json(json: &Json) -> Result<Sheet, DecodeSheetError> {
        let name = json["name"]
            .as_str()
            .ok_or_else(|| DecodeSheetError::new("missing `name`"))?;
        let mut sheet = Sheet::new(name);
        if let Some(globals) = json["globals"].as_array() {
            for g in globals {
                let gname = g["name"]
                    .as_str()
                    .ok_or_else(|| DecodeSheetError::new("global missing `name`"))?;
                let formula = g["formula"]
                    .as_str()
                    .ok_or_else(|| DecodeSheetError::new("global missing `formula`"))?;
                sheet
                    .set_global(gname, formula)
                    .map_err(|e| DecodeSheetError::new(format!("global `{gname}`: {e}")))?;
            }
        }
        if let Some(rows) = json["rows"].as_array() {
            for r in rows {
                sheet.add_row(row_from_json(r)?);
            }
        }
        sheet.shrink_to_fit();
        Ok(sheet)
    }
}

fn row_to_json(row: &Row) -> Json {
    let mut obj = Json::object([("name", Json::from(row.name()))]);
    match row.model() {
        RowModel::Element(path) => {
            obj.set("kind", Json::from("element"));
            obj.set("element", Json::from(path.as_str()));
        }
        RowModel::Inline(element) => {
            obj.set("kind", Json::from("inline"));
            obj.set("inline", element.to_json());
        }
        RowModel::SubSheet(sub) => {
            obj.set("kind", Json::from("subsheet"));
            obj.set("sheet", sub.to_json());
        }
    }
    obj.set(
        "bindings",
        row.bindings()
            .iter()
            .map(|(param, expr)| {
                Json::object([
                    ("param", Json::from(param.as_str())),
                    ("formula", Json::from(expr.to_string())),
                ])
            })
            .collect(),
    );
    if let Some(link) = row.doc_link() {
        obj.set("doc_link", Json::from(link));
    }
    obj
}

fn row_from_json(json: &Json) -> Result<Row, DecodeSheetError> {
    let name = json["name"]
        .as_str()
        .ok_or_else(|| DecodeSheetError::new("row missing `name`"))?;
    let kind = json["kind"]
        .as_str()
        .ok_or_else(|| DecodeSheetError::new("row missing `kind`"))?;
    let model = match kind {
        "element" => {
            let path = json["element"]
                .as_str()
                .ok_or_else(|| DecodeSheetError::new("element row missing `element`"))?;
            RowModel::Element(path.to_owned())
        }
        "inline" => {
            let element = LibraryElement::from_json(&json["inline"])
                .map_err(|e| DecodeSheetError::new(format!("row `{name}`: {e}")))?;
            RowModel::Inline(element)
        }
        "subsheet" => {
            let sub = Sheet::from_json(&json["sheet"])
                .map_err(|e| DecodeSheetError::new(format!("row `{name}`: {e}")))?;
            RowModel::SubSheet(sub)
        }
        other => {
            return Err(DecodeSheetError::new(format!("unknown row kind `{other}`")));
        }
    };
    let mut row = Row::new(name, model);
    if let Some(bindings) = json["bindings"].as_array() {
        for b in bindings {
            let param = b["param"]
                .as_str()
                .ok_or_else(|| DecodeSheetError::new("binding missing `param`"))?;
            let formula = b["formula"]
                .as_str()
                .ok_or_else(|| DecodeSheetError::new("binding missing `formula`"))?;
            row.bind(param, formula)
                .map_err(|e| DecodeSheetError::new(format!("binding `{param}`: {e}")))?;
        }
    }
    if let Some(link) = json["doc_link"].as_str() {
        row.set_doc_link(link);
    }
    Ok(row)
}

/// Checks two expressions for semantic equality via their canonical
/// printed form (used only in tests; formulas like `2MHz` print as
/// `2000000`, so textual equality of sources is not expected).
#[cfg(test)]
fn same_formula(a: &powerplay_expr::Expr, b: &powerplay_expr::Expr) -> bool {
    a.to_string() == b.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerplay_library::builtin::ucb_library;

    fn sample() -> Sheet {
        let mut inner = Sheet::new("decoder");
        inner
            .add_element_row(
                "LUT",
                "ucb/sram",
                [("words", "4096"), ("bits", "6"), ("f", "f / 16")],
            )
            .unwrap();

        let mut sheet = Sheet::new("system");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.add_subsheet_row("Decoder", inner);
        sheet
            .add_element_row("Converter", "ucb/dcdc", [("p_load", "P_decoder")])
            .unwrap();
        sheet
            .row_mut("Converter")
            .unwrap()
            .set_doc_link("/doc/ucb/dcdc");
        sheet
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let original = sample();
        let decoded = Sheet::from_json(&original.to_json()).unwrap();
        assert_eq!(decoded.name(), original.name());
        assert_eq!(decoded.globals().len(), original.globals().len());
        assert_eq!(decoded.rows().len(), original.rows().len());
        for (a, b) in decoded.globals().iter().zip(original.globals()) {
            assert_eq!(a.0, b.0);
            assert!(same_formula(&a.1, &b.1));
        }
        assert_eq!(
            decoded.row("Converter").unwrap().doc_link(),
            Some("/doc/ucb/dcdc")
        );
    }

    #[test]
    fn roundtrip_preserves_evaluation() {
        let lib = ucb_library();
        let original = sample();
        let text = original.to_json().to_pretty();
        let decoded = Sheet::from_json(&powerplay_json::Json::parse(&text).unwrap()).unwrap();
        let a = original.play(&lib).unwrap();
        let b = decoded.play(&lib).unwrap();
        assert_eq!(a.total_power(), b.total_power());
        assert_eq!(a.rows().len(), b.rows().len());
    }

    #[test]
    fn inline_rows_roundtrip() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("m");
        let lumped = {
            let mut s = Sheet::new("sub");
            s.add_element_row("R", "ucb/register", []).unwrap();
            s.to_macro("macros/sub", &lib).unwrap()
        };
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "1MHz").unwrap();
        sheet.add_inline_row("Lumped", lumped);
        let decoded = Sheet::from_json(&sheet.to_json()).unwrap();
        assert_eq!(
            decoded.play(&lib).unwrap().total_power(),
            sheet.play(&lib).unwrap().total_power()
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{}",
            r#"{"name": "x", "rows": [{"name": "r"}]}"#,
            r#"{"name": "x", "rows": [{"name": "r", "kind": "warp"}]}"#,
            r#"{"name": "x", "globals": [{"name": "g", "formula": "1 +"}]}"#,
        ] {
            let json = powerplay_json::Json::parse(bad).unwrap();
            assert!(Sheet::from_json(&json).is_err(), "accepted {bad}");
        }
    }
}
