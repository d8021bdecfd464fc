//! Library elements: parameterized, documented, expression-driven models.

use std::error::Error;
use std::fmt;

use powerplay_expr::{EvalError, Expr, Scope};
use powerplay_models::template::{OperatingPoint, PowerComponents, SwitchedCap};
use powerplay_units::{Area, Capacitance, Current, Energy, Frequency, Power, Time, Voltage};

/// The class of hardware a library element models, mirroring the paper's
/// taxonomy ("computation, storage, controllers, and interconnect" plus
/// the system-level classes of the InfoPad study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementClass {
    /// Datapath computation (adders, multipliers, shifters).
    Computation,
    /// Memories and registers.
    Storage,
    /// Control logic (random logic, ROM, PLA).
    Controller,
    /// Wiring and buses.
    Interconnect,
    /// Programmable processors.
    Processor,
    /// Analog blocks (bias-current dominated).
    Analog,
    /// DC-DC converters.
    Converter,
    /// Commodity/system components modeled from data sheets (LCDs,
    /// radios, I/O devices).
    System,
    /// A lumped macro built from a sub-design (hierarchical re-use).
    Macro,
}

impl ElementClass {
    /// All classes, for enumeration in UIs.
    pub const ALL: [ElementClass; 9] = [
        ElementClass::Computation,
        ElementClass::Storage,
        ElementClass::Controller,
        ElementClass::Interconnect,
        ElementClass::Processor,
        ElementClass::Analog,
        ElementClass::Converter,
        ElementClass::System,
        ElementClass::Macro,
    ];

    /// Stable identifier used in JSON and URLs.
    pub fn id(self) -> &'static str {
        match self {
            ElementClass::Computation => "computation",
            ElementClass::Storage => "storage",
            ElementClass::Controller => "controller",
            ElementClass::Interconnect => "interconnect",
            ElementClass::Processor => "processor",
            ElementClass::Analog => "analog",
            ElementClass::Converter => "converter",
            ElementClass::System => "system",
            ElementClass::Macro => "macro",
        }
    }

    /// Parses the identifier produced by [`Self::id`].
    pub fn from_id(id: &str) -> Option<ElementClass> {
        Self::ALL.into_iter().find(|c| c.id() == id)
    }
}

impl fmt::Display for ElementClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// A declared parameter of an element: name, default and documentation.
///
/// Defaults keep the Figure 4 input form instantly evaluable; the user
/// only overrides what differs.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Identifier usable in model formulas.
    pub name: String,
    /// Default value (dimensionless or in the base SI unit implied by use).
    pub default: f64,
    /// One-line description shown next to the form field.
    pub doc: String,
}

impl ParamDecl {
    /// Creates a parameter declaration.
    pub fn new(name: impl Into<String>, default: f64, doc: impl Into<String>) -> ParamDecl {
        ParamDecl {
            name: name.into(),
            default,
            doc: doc.into(),
        }
    }
}

/// The formulas making up an element's model, all optional so one type
/// covers every class: digital blocks set `cap_full` (and possibly
/// `cap_partial`), analog blocks set `static_current`, data-sheet
/// components set `power_direct`.
///
/// Formulas may reference the element's parameters and the reserved sheet
/// globals `vdd` (supply, volts) and `f` (access rate, hertz).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ElementModel {
    /// Full-rail switched capacitance per access, in farads (EQ 1–7).
    pub cap_full: Option<Expr>,
    /// Reduced-swing capacitance per access, in farads, with its swing in
    /// volts (EQ 8).
    pub cap_partial: Option<(Expr, Expr)>,
    /// Static supply current in amperes (EQ 1 second term, EQ 13).
    pub static_current: Option<Expr>,
    /// Directly-specified power in watts (EQ 11, EQ 19, data-sheet rows).
    pub power_direct: Option<Expr>,
    /// Area in square metres.
    pub area: Option<Expr>,
    /// Critical-path delay in seconds.
    pub delay: Option<Expr>,
}

/// Error produced when evaluating an element.
#[derive(Debug, Clone, PartialEq)]
pub enum EvaluateElementError {
    /// A model formula failed to evaluate.
    Eval {
        /// Which formula (`"cap_full"`, `"power_direct"`, …).
        formula: &'static str,
        /// The underlying expression error.
        source: EvalError,
    },
    /// A capacitance/current model needs `vdd` (and `f`) bound in scope.
    MissingOperatingPoint(&'static str),
    /// A formula produced a non-finite or negative physical value.
    BadValue {
        /// Which formula produced it.
        formula: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for EvaluateElementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvaluateElementError::Eval { formula, source } => {
                write!(f, "error in `{formula}` formula: {source}")
            }
            EvaluateElementError::MissingOperatingPoint(var) => {
                write!(f, "capacitance model requires `{var}` in scope")
            }
            EvaluateElementError::BadValue { formula, value } => {
                write!(f, "`{formula}` produced invalid value {value}")
            }
        }
    }
}

impl Error for EvaluateElementError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EvaluateElementError::Eval { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The result of evaluating an element at a parameter binding.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Total power (dynamic + static + direct).
    pub power: Power,
    /// Dynamic energy per access, when the element has capacitive terms.
    pub energy_per_op: Option<Energy>,
    /// The EQ 1 components (empty for direct-power elements).
    pub components: PowerComponents,
    /// Area, when modeled.
    pub area: Option<Area>,
    /// Delay, when modeled.
    pub delay: Option<Time>,
}

/// A named, documented, parameterized model — one entry of the shared
/// library.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryElement {
    name: String,
    class: ElementClass,
    doc: String,
    params: Vec<ParamDecl>,
    model: ElementModel,
}

impl LibraryElement {
    /// Creates an element. `name` is its registry path (namespaced by
    /// convention, e.g. `"ucb/multiplier"`).
    pub fn new(
        name: impl Into<String>,
        class: ElementClass,
        doc: impl Into<String>,
        params: Vec<ParamDecl>,
        model: ElementModel,
    ) -> LibraryElement {
        LibraryElement {
            name: name.into(),
            class,
            doc: doc.into(),
            params,
            model,
        }
    }

    /// The registry path.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The hardware class.
    pub fn class(&self) -> ElementClass {
        self.class
    }

    /// The documentation string ("integrated documentation" in the paper).
    pub fn doc(&self) -> &str {
        &self.doc
    }

    /// Declared parameters.
    pub fn params(&self) -> &[ParamDecl] {
        &self.params
    }

    /// The model formulas.
    pub fn model(&self) -> &ElementModel {
        &self.model
    }

    /// Whether `other` is the same element, with every number (parameter
    /// defaults, formula literals) compared by bit pattern — see
    /// [`Expr::identical`].
    pub fn identical(&self, other: &LibraryElement) -> bool {
        fn same(a: &Option<Expr>, b: &Option<Expr>) -> bool {
            match (a, b) {
                (Some(a), Some(b)) => a.identical(b),
                (None, None) => true,
                _ => false,
            }
        }
        let (m, n) = (&self.model, &other.model);
        self.name == other.name
            && self.class == other.class
            && self.doc == other.doc
            && self.params.len() == other.params.len()
            && self.params.iter().zip(&other.params).all(|(p, q)| {
                p.name == q.name && p.default.to_bits() == q.default.to_bits() && p.doc == q.doc
            })
            && same(&m.cap_full, &n.cap_full)
            && match (&m.cap_partial, &n.cap_partial) {
                (Some((c, s)), Some((d, t))) => c.identical(d) && s.identical(t),
                (None, None) => true,
                _ => false,
            }
            && same(&m.static_current, &n.static_current)
            && same(&m.power_direct, &n.power_direct)
            && same(&m.area, &n.area)
            && same(&m.delay, &n.delay)
    }

    /// Variables the model needs that are neither declared parameters nor
    /// the reserved globals — useful to validate user-authored models.
    pub fn undeclared_variables(&self) -> Vec<String> {
        let mut vars = std::collections::BTreeSet::new();
        let mut collect = |e: &Option<Expr>| {
            if let Some(e) = e {
                vars.extend(e.free_variables());
            }
        };
        collect(&self.model.cap_full);
        collect(&self.model.static_current);
        collect(&self.model.power_direct);
        collect(&self.model.area);
        collect(&self.model.delay);
        if let Some((cap, swing)) = &self.model.cap_partial {
            vars.extend(cap.free_variables());
            vars.extend(swing.free_variables());
        }
        vars.into_iter()
            .filter(|v| v != "vdd" && v != "f" && !self.params.iter().any(|p| &p.name == v))
            .collect()
    }

    /// Builds a scope binding every parameter to its default, chained to
    /// `parent` (so sheet globals remain visible).
    pub fn default_scope<'p>(&self, parent: &'p Scope<'p>) -> Scope<'p> {
        let mut scope = parent.child();
        for p in &self.params {
            scope.set(p.name.clone(), p.default);
        }
        scope
    }

    /// Evaluates the element against a fully-bound scope.
    ///
    /// The scope must bind every model parameter; capacitive and static
    /// models additionally read the reserved `vdd` and `f` globals.
    ///
    /// # Errors
    ///
    /// Returns [`EvaluateElementError`] on unbound variables, missing
    /// `vdd`/`f`, or non-finite/negative physical results.
    pub fn evaluate(&self, scope: &Scope<'_>) -> Result<Evaluation, EvaluateElementError> {
        let eval_formula = |formula: &'static str, e: &Expr| -> Result<f64, EvaluateElementError> {
            let v = e
                .eval(scope)
                .map_err(|source| EvaluateElementError::Eval { formula, source })?;
            if !v.is_finite() || v < 0.0 {
                return Err(EvaluateElementError::BadValue { formula, value: v });
            }
            Ok(v)
        };

        let mut components = PowerComponents::new();
        if let Some(e) = &self.model.cap_full {
            let cap = eval_formula("cap_full", e)?;
            components.push(SwitchedCap::full_rail(
                self.name.clone(),
                Capacitance::new(cap),
            ));
        }
        if let Some((cap_e, swing_e)) = &self.model.cap_partial {
            let cap = eval_formula("cap_partial", cap_e)?;
            let swing = eval_formula("cap_partial swing", swing_e)?;
            components.push(SwitchedCap::partial(
                format!("{} (reduced swing)", self.name),
                Capacitance::new(cap),
                Voltage::new(swing),
            ));
        }
        if let Some(e) = &self.model.static_current {
            components.static_current += Current::new(eval_formula("static_current", e)?);
        }

        let has_template_terms =
            !components.switched.is_empty() || components.static_current != Current::ZERO;

        let mut power = Power::ZERO;
        let mut energy_per_op = None;
        if has_template_terms {
            let vdd = scope
                .get("vdd")
                .ok_or(EvaluateElementError::MissingOperatingPoint("vdd"))?;
            let freq = if components.switched.is_empty() {
                // Static-only models do not need a rate.
                scope.get("f").unwrap_or(0.0)
            } else {
                scope
                    .get("f")
                    .ok_or(EvaluateElementError::MissingOperatingPoint("f"))?
            };
            let op = OperatingPoint::new(Voltage::new(vdd), Frequency::new(freq));
            power += components.power(op);
            if !components.switched.is_empty() {
                energy_per_op = Some(components.energy_per_op(Voltage::new(vdd)));
            }
        }
        if let Some(e) = &self.model.power_direct {
            power += Power::new(eval_formula("power_direct", e)?);
        }

        let area = match &self.model.area {
            Some(e) => Some(Area::new(eval_formula("area", e)?)),
            None => None,
        };
        let delay = match &self.model.delay {
            Some(e) => Some(Time::new(eval_formula("delay", e)?)),
            None => None,
        };

        Ok(Evaluation {
            power,
            energy_per_op,
            components,
            area,
            delay,
        })
    }

    /// Evaluates with all parameters at their defaults, given only the
    /// sheet globals in `parent`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::evaluate`].
    pub fn evaluate_defaults(
        &self,
        parent: &Scope<'_>,
    ) -> Result<Evaluation, EvaluateElementError> {
        let scope = self.default_scope(parent);
        self.evaluate(&scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn globals() -> Scope<'static> {
        let mut s = Scope::new();
        s.set("vdd", 1.5);
        s.set("f", 2e6);
        s
    }

    fn multiplier() -> LibraryElement {
        LibraryElement::new(
            "test/multiplier",
            ElementClass::Computation,
            "array multiplier, EQ 20",
            vec![
                ParamDecl::new("bw_a", 8.0, "input A bit-width"),
                ParamDecl::new("bw_b", 8.0, "input B bit-width"),
            ],
            ElementModel {
                cap_full: Some(Expr::parse("bw_a * bw_b * 253f").unwrap()),
                area: Some(Expr::parse("bw_a * bw_b * 4000e-12").unwrap()),
                ..ElementModel::default()
            },
        )
    }

    #[test]
    fn evaluate_with_defaults() {
        let g = globals();
        let eval = multiplier().evaluate_defaults(&g).unwrap();
        let expected = 64.0 * 253e-15 * 1.5 * 1.5 * 2e6;
        assert!((eval.power.value() - expected).abs() < 1e-12);
        assert!(eval.energy_per_op.is_some());
        assert!(eval.area.is_some());
        assert!(eval.delay.is_none());
    }

    #[test]
    fn evaluate_with_overrides() {
        let g = globals();
        let mut scope = multiplier().default_scope(&g);
        scope.set("bw_a", 16.0);
        let eval = multiplier().evaluate(&scope).unwrap();
        let expected = 16.0 * 8.0 * 253e-15 * 1.5 * 1.5 * 2e6;
        assert!((eval.power.value() - expected).abs() < 1e-12);
    }

    #[test]
    fn missing_vdd_is_reported() {
        let mut scope = Scope::new();
        scope.set("f", 2e6);
        let scope2 = multiplier().default_scope(&scope);
        let err = multiplier().evaluate(&scope2).unwrap_err();
        assert_eq!(err, EvaluateElementError::MissingOperatingPoint("vdd"));
        assert!(err.to_string().contains("vdd"));
    }

    #[test]
    fn missing_rate_is_reported() {
        let mut scope = Scope::new();
        scope.set("vdd", 1.5);
        let scope2 = multiplier().default_scope(&scope);
        let err = multiplier().evaluate(&scope2).unwrap_err();
        assert_eq!(err, EvaluateElementError::MissingOperatingPoint("f"));
    }

    #[test]
    fn static_only_element_needs_no_rate() {
        let amp = LibraryElement::new(
            "test/amp",
            ElementClass::Analog,
            "bias current amplifier",
            vec![ParamDecl::new("i_bias", 1e-3, "tail current")],
            ElementModel {
                static_current: Some(Expr::parse("i_bias").unwrap()),
                ..ElementModel::default()
            },
        );
        let mut scope = Scope::new();
        scope.set("vdd", 3.0);
        let eval = amp.evaluate_defaults(&scope).unwrap();
        assert!((eval.power.value() - 3e-3).abs() < 1e-12);
        assert!(eval.energy_per_op.is_none());
    }

    #[test]
    fn direct_power_element_ignores_operating_point() {
        let lcd = LibraryElement::new(
            "test/lcd",
            ElementClass::System,
            "data-sheet display",
            vec![ParamDecl::new("p_panel", 4.46, "measured panel power")],
            ElementModel {
                power_direct: Some(Expr::parse("p_panel").unwrap()),
                ..ElementModel::default()
            },
        );
        // No vdd or f anywhere in scope: still evaluates.
        let eval = lcd.evaluate_defaults(&Scope::new()).unwrap();
        assert!((eval.power.value() - 4.46).abs() < 1e-12);
        assert!(eval.components.switched.is_empty());
    }

    #[test]
    fn partial_swing_element() {
        let mem = LibraryElement::new(
            "test/lowswing",
            ElementClass::Storage,
            "reduced-swing memory",
            vec![ParamDecl::new("cap", 10e-12, "array cap")],
            ElementModel {
                cap_partial: Some((Expr::parse("cap").unwrap(), Expr::parse("0.3").unwrap())),
                ..ElementModel::default()
            },
        );
        let g = globals();
        let eval = mem.evaluate_defaults(&g).unwrap();
        let expected = 10e-12 * 0.3 * 1.5 * 2e6;
        assert!((eval.power.value() - expected).abs() < 1e-15);
    }

    #[test]
    fn bad_values_rejected() {
        let bad = LibraryElement::new(
            "test/bad",
            ElementClass::Computation,
            "negative capacitance",
            vec![],
            ElementModel {
                cap_full: Some(Expr::parse("0 - 5f").unwrap()),
                ..ElementModel::default()
            },
        );
        let g = globals();
        let err = bad.evaluate_defaults(&g).unwrap_err();
        assert!(matches!(err, EvaluateElementError::BadValue { .. }));

        let div0 = LibraryElement::new(
            "test/div0",
            ElementClass::Computation,
            "divide by zero",
            vec![],
            ElementModel {
                cap_full: Some(Expr::parse("1 / 0").unwrap()),
                ..ElementModel::default()
            },
        );
        assert!(matches!(
            div0.evaluate_defaults(&g).unwrap_err(),
            EvaluateElementError::BadValue { .. }
        ));
    }

    #[test]
    fn unknown_variable_propagates() {
        let elem = LibraryElement::new(
            "test/unbound",
            ElementClass::Computation,
            "uses undeclared variable",
            vec![],
            ElementModel {
                cap_full: Some(Expr::parse("mystery * 1f").unwrap()),
                ..ElementModel::default()
            },
        );
        let g = globals();
        let err = elem.evaluate_defaults(&g).unwrap_err();
        assert!(matches!(
            err,
            EvaluateElementError::Eval {
                formula: "cap_full",
                ..
            }
        ));
    }

    #[test]
    fn undeclared_variables_detected() {
        let elem = LibraryElement::new(
            "test/x",
            ElementClass::Computation,
            "",
            vec![ParamDecl::new("bits", 8.0, "")],
            ElementModel {
                cap_full: Some(Expr::parse("bits * c_unit * vdd").unwrap()),
                ..ElementModel::default()
            },
        );
        assert_eq!(elem.undeclared_variables(), vec!["c_unit".to_owned()]);
    }

    #[test]
    fn undeclared_variables_are_deterministically_sorted() {
        // Order must be lexicographic regardless of the order variables
        // appear in formulas, so diagnostics and API bodies are stable.
        let elem = LibraryElement::new(
            "test/x",
            ElementClass::Computation,
            "",
            vec![],
            ElementModel {
                cap_full: Some(Expr::parse("zeta + mid + alpha").unwrap()),
                power_direct: Some(Expr::parse("beta * zeta").unwrap()),
                ..ElementModel::default()
            },
        );
        assert_eq!(
            elem.undeclared_variables(),
            vec!["alpha", "beta", "mid", "zeta"]
        );
    }

    #[test]
    fn undeclared_variables_cover_area_delay_and_cap_partial_slots() {
        // Variables used only by non-power formulas (area, delay, the
        // partial-swing pair) must be flagged too.
        let elem = LibraryElement::new(
            "test/x",
            ElementClass::Storage,
            "",
            vec![ParamDecl::new("bits", 8.0, "")],
            ElementModel {
                cap_partial: Some((
                    Expr::parse("bits * c_cell").unwrap(),
                    Expr::parse("bl_swing").unwrap(),
                )),
                area: Some(Expr::parse("bits * cell_pitch").unwrap()),
                delay: Some(Expr::parse("t_access").unwrap()),
                ..ElementModel::default()
            },
        );
        assert_eq!(
            elem.undeclared_variables(),
            vec!["bl_swing", "c_cell", "cell_pitch", "t_access"]
        );
    }

    #[test]
    fn class_id_roundtrip() {
        for class in ElementClass::ALL {
            assert_eq!(ElementClass::from_id(class.id()), Some(class));
        }
        assert_eq!(ElementClass::from_id("bogus"), None);
    }
}
