//! The bytecode replay engine: a sheet lowered to a register machine.
//!
//! [`super::plan::CompiledSheet`] already amortizes graph analysis, but
//! a tree walker would still resolve every variable reference through a
//! `HashMap` scope chain on every play — per-reference hashing on the
//! hottest path in the system. This module lowers the *entire* compiled
//! row structure (sub-sheets inlined) into one flat [`Program`]: a
//! contiguous `Vec<Instr>` whose operands are `u32` register slots
//! resolved at compile time. Replay is a tight interpreter loop over a
//! single `f64` register file — zero hashing, zero string comparison,
//! zero `Arc` cloning per instruction. Every play, delta replay and
//! sweep runs a program; the tree walker
//! ([`super::plan::CompiledSheet::play_with_tree`]) is the test oracle.
//!
//! # Bit-for-bit fidelity
//!
//! The lowering is an exact transcription of the tree walker's
//! evaluation order and arithmetic:
//!
//! * arithmetic dispatches through the same [`apply_binary`] /
//!   [`Builtin::apply1`] / [`Builtin::apply2`] the tree walker uses;
//! * every error the tree walker can raise is either **static** —
//!   unknown variables/functions, wrong arities, missing elements,
//!   nested structural errors, all decidable at lowering time — and
//!   becomes a [`Instr::Trap`] placed exactly where tree-walk evaluation
//!   order would first hit it, or **value-dependent** — non-finite /
//!   negative formula results ([`Instr::Check`]) and the static-only
//!   missing-`vdd` case ([`Instr::TrapIf`]) — and is tested at replay
//!   time against the same predicate;
//! * overrides never re-bind a lowered name: an override either
//!   retargets a declared top-level global, whose register is re-seeded
//!   per play, or appends a new global. A set of override names that
//!   appends globals gets its own program, lowered with one more
//!   top-level register per appended name, so a lookup that would trap
//!   or default without the name resolves exactly as the scope chain
//!   resolves it (see [`crate::OverridePlan`]).
//!
//! # Batching
//!
//! [`Program::exec_batch`] evaluates the same instruction for N sweep /
//! Monte-Carlo points per dispatch (structure-of-arrays register file,
//! lane-major per slot), amortizing dispatch N ways and exposing the
//! per-slot loops to auto-vectorization. Per-lane trap state keeps error
//! reporting identical to N serial replays.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use powerplay_expr::{apply_binary, BinaryOp, Builtin, EvalError, Expr};
use powerplay_library::{EvaluateElementError, LibraryElement};
use powerplay_telemetry::{Counter, Histogram};
use powerplay_units::{Area, Energy, Power, Time};

use crate::engine::EvaluateSheetError;
use crate::plan::{CompiledRow, CompiledRowKind, CompiledSheet, RowsPlan};
use crate::report::{RowReport, SheetReport};

/// Bytecode-engine metrics, registered once in the process-global
/// registry. All three series register together on first use so a
/// scrape after any bytecode replay sees the whole family.
pub(crate) struct BytecodeMetrics {
    /// `powerplay_sheet_bytecode_instrs_total`.
    pub(crate) instrs_total: Counter,
    /// `powerplay_sheet_bytecode_replay_seconds`.
    pub(crate) replay_seconds: Histogram,
    /// `powerplay_sheet_bytecode_batch_width`.
    pub(crate) batch_width: Histogram,
}

pub(crate) fn bytecode_metrics() -> &'static BytecodeMetrics {
    static METRICS: OnceLock<BytecodeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = powerplay_telemetry::global();
        BytecodeMetrics {
            instrs_total: g.counter(
                "powerplay_sheet_bytecode_instrs_total",
                "Bytecode instructions executed (batched lanes counted individually)",
            ),
            replay_seconds: g.histogram(
                "powerplay_sheet_bytecode_replay_seconds",
                "Time per full bytecode replay of a compiled plan",
            ),
            batch_width: g.value_histogram(
                "powerplay_sheet_bytecode_batch_width",
                "Lanes evaluated per batched bytecode dispatch pass",
            ),
        }
    })
}

/// One register-machine instruction. Operands are indices into the
/// `f64` register file; there is no constant operand form — constants
/// live in the pool ([`Program::init`]) and are memcpy'd into the file
/// when a replay seeds it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Instr {
    /// `regs[dst] = -regs[a]`.
    Neg { dst: u32, a: u32 },
    /// `regs[dst] = apply_binary(op, regs[a], regs[b])`.
    Bin {
        op: BinaryOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `regs[dst] = f.apply1(regs[a])`.
    Call1 { f: Builtin, dst: u32, a: u32 },
    /// `regs[dst] = f.apply2(regs[a], regs[b])`.
    Call2 {
        f: Builtin,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `regs[dst] = if regs[cond] != 0.0 { regs[a] } else { regs[b] }` —
    /// the eager `if` builtin and the static-only power gate.
    Sel { dst: u32, cond: u32, a: u32, b: u32 },
    /// Element formula guard: trap with `errors[err]` when `regs[src]`
    /// is non-finite or negative (carrying the offending value).
    Check { src: u32, err: u32 },
    /// Trap with `errors[err]` when `regs[cond] != 0.0` — the
    /// static-only element whose `vdd` is unbound but whose current may
    /// evaluate to zero.
    TrapIf { cond: u32, err: u32 },
    /// Unconditional trap with `errors[err]`: a statically-decided
    /// error, placed where tree-walk order first reaches it.
    Trap { err: u32 },
}

/// A trap raised by the interpreter: which error template, and the
/// runtime value for [`ErrTemplate::BadValue`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrapHit {
    err: u32,
    value: f64,
}

/// An error template referenced by trap instructions. `Fixed` errors
/// are fully built at lowering time; `BadValue` needs the runtime value
/// spliced in (and re-wrapped through the sub-sheet nesting chain).
#[derive(Debug, Clone)]
enum ErrTemplate {
    Fixed(EvaluateSheetError),
    BadValue {
        /// Enclosing sub-sheet row names, outermost first.
        nest: Vec<Arc<str>>,
        row: Arc<str>,
        formula: &'static str,
    },
}

/// How to rebuild one row's [`RowReport`] from the register file.
#[derive(Debug, Clone)]
pub(crate) struct RowRecipe {
    name: Arc<str>,
    ident: Arc<str>,
    doc_link: Option<Arc<str>>,
    element: Option<Arc<str>>,
    /// Report parameter columns: name → final slot (default or last
    /// binding for element rows, binding order for sub-sheet rows).
    params: Vec<(Arc<str>, u32)>,
    /// The `f` access rate visible to the row, when resolvable.
    rate: Option<u32>,
    /// The row's power (element total, or a sub-sheet's power fold).
    power: u32,
    energy: Option<u32>,
    area: Option<u32>,
    delay: Option<u32>,
    sub: Option<Box<SheetRecipe>>,
}

/// Report recipe for one (inlined) sub-sheet level.
#[derive(Debug, Clone)]
pub(crate) struct SheetRecipe {
    name: Arc<str>,
    /// Resolved globals in declaration order: name → slot.
    globals: Vec<(Arc<str>, u32)>,
    rows: Vec<RowRecipe>,
}

/// A compiled sheet lowered to one flat register-machine program.
#[derive(Debug)]
pub(crate) struct Program {
    code: Vec<Instr>,
    /// The register file's initial image: constants pre-placed, all
    /// other slots zero. A replay memcpys this, then seeds globals.
    init: Vec<f64>,
    /// Top-level globals → register slot: the declared ones in
    /// declaration order, then the appended override names.
    global_slots: Vec<u32>,
    /// Per top-level row (declaration index): the `[start, end)` code
    /// span that evaluates it. Emission follows plan order, so
    /// executing spans in plan order is executing the program in order.
    row_spans: Vec<(u32, u32)>,
    /// Per top-level row (declaration index): its report recipe.
    recipes: Vec<RowRecipe>,
    errors: Vec<ErrTemplate>,
    /// Debug names per register (empty for temporaries).
    names: Vec<String>,
    /// Rows at every level, for the rows-evaluated counter.
    rows_total: u64,
}

/// Lowering aborts for the rest of the current row once an
/// unconditional trap is emitted — everything after it is dead code.
struct Poisoned;

type Lower<T> = Result<T, Poisoned>;

/// The compile-time mirror of the runtime scope chain: one name→slot
/// layer per `Scope` level the tree walker would chain.
struct Env {
    layers: Vec<HashMap<Arc<str>, u32>>,
}

impl Env {
    fn new() -> Env {
        Env { layers: Vec::new() }
    }

    fn push_layer(&mut self) -> usize {
        self.layers.push(HashMap::new());
        self.layers.len() - 1
    }

    fn truncate(&mut self, depth: usize) {
        self.layers.truncate(depth);
    }

    fn depth(&self) -> usize {
        self.layers.len()
    }

    fn insert_top(&mut self, name: Arc<str>, slot: u32) {
        self.layers
            .last_mut()
            .expect("env has a layer")
            .insert(name, slot);
    }

    fn insert_at(&mut self, layer: usize, name: Arc<str>, slot: u32) {
        self.layers[layer].insert(name, slot);
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.layers
            .iter()
            .rev()
            .find_map(|layer| layer.get(name).copied())
    }
}

/// What lowering an element row yields: slots for each report column.
struct ElemSlots {
    power: u32,
    energy: Option<u32>,
    area: Option<u32>,
    delay: Option<u32>,
}

struct Lowerer {
    code: Vec<Instr>,
    init: Vec<f64>,
    names: Vec<String>,
    /// Constant pool dedup: f64 bit pattern → slot.
    konsts: HashMap<u64, u32>,
    /// Known-constant slots, for compile-time folding (the fold uses
    /// the same dispatch as the interpreter, so it is bit-identical).
    const_val: Vec<Option<f64>>,
    errors: Vec<ErrTemplate>,
    /// Enclosing sub-sheet row names, outermost first.
    nest: Vec<Arc<str>>,
    rows_total: u64,
}

impl Lowerer {
    fn new() -> Lowerer {
        Lowerer {
            code: Vec::new(),
            init: Vec::new(),
            names: Vec::new(),
            konsts: HashMap::new(),
            const_val: Vec::new(),
            errors: Vec::new(),
            nest: Vec::new(),
            rows_total: 0,
        }
    }

    /// Allocates a fresh register (zero-initialized, unknown value).
    fn reg(&mut self, name: impl Into<String>) -> u32 {
        let slot = self.init.len() as u32;
        self.init.push(0.0);
        self.names.push(name.into());
        self.const_val.push(None);
        slot
    }

    /// A slot holding `value` in the constant pool (deduplicated by bit
    /// pattern, so `0.0` and `-0.0` keep distinct slots).
    fn konst(&mut self, value: f64) -> u32 {
        if let Some(&slot) = self.konsts.get(&value.to_bits()) {
            return slot;
        }
        let slot = self.init.len() as u32;
        self.init.push(value);
        self.names.push(format!("={value}"));
        self.const_val.push(Some(value));
        self.konsts.insert(value.to_bits(), slot);
        slot
    }

    fn emit(&mut self, instr: Instr) {
        self.code.push(instr);
    }

    fn push_err(&mut self, template: ErrTemplate) -> u32 {
        self.errors.push(template);
        (self.errors.len() - 1) as u32
    }

    /// Wraps `err` in the `Nested` chain of the current sub-sheet
    /// nesting, innermost wrap first — exactly the order the recursive
    /// tree walker applies on the way out.
    fn wrap_nested(&self, mut err: EvaluateSheetError) -> EvaluateSheetError {
        for row in self.nest.iter().rev() {
            err = EvaluateSheetError::Nested {
                row: row.to_string(),
                source: Box::new(err),
            };
        }
        err
    }

    /// Emits an unconditional trap for a statically-decided error and
    /// poisons the rest of the current row.
    fn trap(&mut self, err: EvaluateSheetError) -> Poisoned {
        let wrapped = self.wrap_nested(err);
        let idx = self.push_err(ErrTemplate::Fixed(wrapped));
        self.emit(Instr::Trap { err: idx });
        Poisoned
    }

    /// Lowers one expression, returning the slot holding its value.
    /// Traversal order mirrors [`Expr::eval`] exactly, so the *first*
    /// statically-decided error in tree-walk order is the one trapped.
    fn lower_expr(
        &mut self,
        expr: &Expr,
        env: &Env,
        wrap: &dyn Fn(EvalError) -> EvaluateSheetError,
    ) -> Lower<u32> {
        use powerplay_expr::UnaryOp;
        match expr {
            Expr::Number(n) => Ok(self.konst(*n)),
            Expr::Variable(name) => match env.lookup(name) {
                Some(slot) => Ok(slot),
                None => Err(self.trap(wrap(EvalError::UnknownVariable(name.clone())))),
            },
            Expr::Unary(UnaryOp::Neg, inner) => {
                let a = self.lower_expr(inner, env, wrap)?;
                if let Some(v) = self.const_val[a as usize] {
                    return Ok(self.konst(-v));
                }
                let dst = self.reg("");
                self.emit(Instr::Neg { dst, a });
                Ok(dst)
            }
            Expr::Binary(op, lhs, rhs) => {
                let a = self.lower_expr(lhs, env, wrap)?;
                let b = self.lower_expr(rhs, env, wrap)?;
                if let (Some(l), Some(r)) = (self.const_val[a as usize], self.const_val[b as usize])
                {
                    return Ok(self.konst(apply_binary(*op, l, r)));
                }
                let dst = self.reg("");
                self.emit(Instr::Bin { op: *op, dst, a, b });
                Ok(dst)
            }
            Expr::Call(name, args) => {
                let Some(builtin) = Builtin::lookup(name) else {
                    return Err(self.trap(wrap(EvalError::UnknownFunction(name.clone()))));
                };
                let arity = builtin.arity();
                if args.len() != arity {
                    return Err(self.trap(wrap(EvalError::WrongArity {
                        function: name.clone(),
                        expected: arity,
                        found: args.len(),
                    })));
                }
                let mut slots = [0u32; 3];
                for (slot, arg) in slots.iter_mut().zip(args) {
                    *slot = self.lower_expr(arg, env, wrap)?;
                }
                let consts: Vec<Option<f64>> = slots[..arity]
                    .iter()
                    .map(|&s| self.const_val[s as usize])
                    .collect();
                if consts.iter().all(Option::is_some) {
                    let values: Vec<f64> = consts.into_iter().map(Option::unwrap).collect();
                    return Ok(self.konst(builtin.apply(&values)));
                }
                let dst = self.reg("");
                match arity {
                    1 => self.emit(Instr::Call1 {
                        f: builtin,
                        dst,
                        a: slots[0],
                    }),
                    2 => self.emit(Instr::Call2 {
                        f: builtin,
                        dst,
                        a: slots[0],
                        b: slots[1],
                    }),
                    _ => self.emit(Instr::Sel {
                        dst,
                        cond: slots[0],
                        a: slots[1],
                        b: slots[2],
                    }),
                }
                Ok(dst)
            }
        }
    }

    /// Lowers one element model formula plus its physical-value guard —
    /// the bytecode form of the tree walker's `eval_formula` closure.
    fn lower_formula(
        &mut self,
        row_name: &Arc<str>,
        formula: &'static str,
        expr: &Expr,
        env: &Env,
    ) -> Lower<u32> {
        let row = row_name.clone();
        let slot = self.lower_expr(expr, env, &|source| EvaluateSheetError::Element {
            row: row.to_string(),
            source: EvaluateElementError::Eval { formula, source },
        })?;
        let err = self.push_err(ErrTemplate::BadValue {
            nest: self.nest.clone(),
            row: row_name.clone(),
            formula,
        });
        self.emit(Instr::Check { src: slot, err });
        Ok(slot)
    }

    /// Looks up a reserved operating-point name, trapping with
    /// `MissingOperatingPoint` (wrapped as an `Element` error) when it
    /// is not statically bound — the capacitive-element case where the
    /// tree walker errors unconditionally.
    fn lookup_or_trap(&mut self, row_name: &Arc<str>, var: &'static str, env: &Env) -> Lower<u32> {
        match env.lookup(var) {
            Some(slot) => Ok(slot),
            None => Err(self.trap(EvaluateSheetError::Element {
                row: row_name.to_string(),
                source: EvaluateElementError::MissingOperatingPoint(var),
            })),
        }
    }

    /// Lowers one element row body: the exact sequence of
    /// `LibraryElement::evaluate`, formula by formula, fold by fold.
    fn lower_element(
        &mut self,
        row_name: &Arc<str>,
        element: &LibraryElement,
        env: &Env,
    ) -> Lower<ElemSlots> {
        let model = element.model();
        // Switched-capacitance terms, in push order: (cap slot, swing
        // slot or None for full-rail).
        let mut switched: Vec<(u32, Option<u32>)> = Vec::new();
        if let Some(e) = &model.cap_full {
            let cap = self.lower_formula(row_name, "cap_full", e, env)?;
            switched.push((cap, None));
        }
        if let Some((cap_e, swing_e)) = &model.cap_partial {
            let cap = self.lower_formula(row_name, "cap_partial", cap_e, env)?;
            let swing = self.lower_formula(row_name, "cap_partial swing", swing_e, env)?;
            switched.push((cap, Some(swing)));
        }
        let zero = self.konst(0.0);
        // `components.static_current += Current::new(v)` from ZERO.
        let static_i = match &model.static_current {
            Some(e) => {
                let raw = self.lower_formula(row_name, "static_current", e, env)?;
                let dst = self.reg("");
                self.emit(Instr::Bin {
                    op: BinaryOp::Add,
                    dst,
                    a: zero,
                    b: raw,
                });
                Some(dst)
            }
            None => None,
        };
        let i_eff = static_i.unwrap_or(zero);

        let mut power = zero; // Power::ZERO
        let mut energy = None;
        if !switched.is_empty() {
            // Capacitive template: `vdd` and `f` are required; a
            // missing one is a static, unconditional error.
            let vdd = self.lookup_or_trap(row_name, "vdd", env)?;
            let freq = self.lookup_or_trap(row_name, "f", env)?;
            let e_slot = self.lower_energy_fold(&switched, vdd, zero);
            let contrib = self.lower_power_template(e_slot, freq, vdd, i_eff);
            // `power += components.power(op)` from Power::ZERO.
            let dst = self.reg("");
            self.emit(Instr::Bin {
                op: BinaryOp::Add,
                dst,
                a: zero,
                b: contrib,
            });
            power = dst;
            energy = Some(e_slot);
        } else if static_i.is_some() {
            // Static-only template: whether the template contributes at
            // all depends on the *runtime* current. The tree walker only
            // requires `vdd` (and reads `f` with a 0.0 default) when the
            // current is non-zero, so an unbound `vdd` traps behind the
            // same condition, and the contribution is gated by `Sel`.
            let cond = self.reg("");
            self.emit(Instr::Bin {
                op: BinaryOp::Ne,
                dst: cond,
                a: i_eff,
                b: zero,
            });
            let vdd = match env.lookup("vdd") {
                Some(slot) => slot,
                None => {
                    let err = self.wrap_nested(EvaluateSheetError::Element {
                        row: row_name.to_string(),
                        source: EvaluateElementError::MissingOperatingPoint("vdd"),
                    });
                    let idx = self.push_err(ErrTemplate::Fixed(err));
                    self.emit(Instr::TrapIf { cond, err: idx });
                    zero
                }
            };
            // `scope.get("f").unwrap_or(0.0)`.
            let freq = env.lookup("f").unwrap_or(zero);
            let contrib = self.lower_power_template(zero, freq, vdd, i_eff);
            let summed = self.reg("");
            self.emit(Instr::Bin {
                op: BinaryOp::Add,
                dst: summed,
                a: zero,
                b: contrib,
            });
            let dst = self.reg("");
            self.emit(Instr::Sel {
                dst,
                cond,
                a: summed,
                b: zero,
            });
            power = dst;
        }

        if let Some(e) = &model.power_direct {
            let direct = self.lower_formula(row_name, "power_direct", e, env)?;
            let dst = self.reg("");
            self.emit(Instr::Bin {
                op: BinaryOp::Add,
                dst,
                a: power,
                b: direct,
            });
            power = dst;
        }
        let area = match &model.area {
            Some(e) => Some(self.lower_formula(row_name, "area", e, env)?),
            None => None,
        };
        let delay = match &model.delay {
            Some(e) => Some(self.lower_formula(row_name, "delay", e, env)?),
            None => None,
        };
        Ok(ElemSlots {
            power,
            energy,
            area,
            delay,
        })
    }

    /// `Σ cap_i · swing_i · vdd` as the tree walker folds it: a plain
    /// f64 left fold from 0.0 in push order, each term `(cap * swing) *
    /// vdd` (full-rail terms swing at `vdd`).
    fn lower_energy_fold(&mut self, switched: &[(u32, Option<u32>)], vdd: u32, zero: u32) -> u32 {
        let mut acc = zero;
        for &(cap, swing) in switched {
            let sw = swing.unwrap_or(vdd);
            let t1 = self.reg("");
            self.emit(Instr::Bin {
                op: BinaryOp::Mul,
                dst: t1,
                a: cap,
                b: sw,
            });
            let t2 = self.reg("");
            self.emit(Instr::Bin {
                op: BinaryOp::Mul,
                dst: t2,
                a: t1,
                b: vdd,
            });
            let next = self.reg("");
            self.emit(Instr::Bin {
                op: BinaryOp::Add,
                dst: next,
                a: acc,
                b: t2,
            });
            acc = next;
        }
        acc
    }

    /// EQ 1 at the operating point, in the exact operand order of
    /// `PowerComponents::power`: `energy * f + vdd * i`.
    fn lower_power_template(&mut self, energy: u32, freq: u32, vdd: u32, i_eff: u32) -> u32 {
        let dynamic = self.reg("");
        self.emit(Instr::Bin {
            op: BinaryOp::Mul,
            dst: dynamic,
            a: energy,
            b: freq,
        });
        let leak = self.reg("");
        self.emit(Instr::Bin {
            op: BinaryOp::Mul,
            dst: leak,
            a: vdd,
            b: i_eff,
        });
        let dst = self.reg("");
        self.emit(Instr::Bin {
            op: BinaryOp::Add,
            dst,
            a: dynamic,
            b: leak,
        });
        dst
    }

    /// Lowers one row (element or inlined sub-sheet). Scope layers the
    /// row pushes are unwound even when lowering poisons.
    fn lower_row(&mut self, env: &mut Env, row: &CompiledRow) -> Lower<RowRecipe> {
        let depth = env.depth();
        let result = self.lower_row_inner(env, row);
        env.truncate(depth);
        result
    }

    fn lower_row_inner(&mut self, env: &mut Env, row: &CompiledRow) -> Lower<RowRecipe> {
        // Element resolution errors precede binding errors, matching the
        // uncompiled engine.
        if let CompiledRowKind::Missing { path } = &row.kind {
            return Err(self.trap(EvaluateSheetError::UnknownElement {
                row: row.name.to_string(),
                element: path.clone(),
            }));
        }

        // Parameter defaults first, so bindings can shadow and reference
        // them (e.g. `bits = words / 4`).
        env.push_layer();
        for name in &row.param_names {
            let default = row
                .defaults
                .get(name)
                .expect("defaults cover every declared parameter");
            let slot = self.konst(default);
            env.insert_top(name.clone(), slot);
        }
        for (param, expr) in &row.bindings {
            let slot = self.lower_expr(expr, env, &|source| EvaluateSheetError::Binding {
                row: row.name.to_string(),
                param: param.to_string(),
                source,
            })?;
            env.insert_top(param.clone(), slot);
        }

        match &row.kind {
            CompiledRowKind::SubSheet(sub) => {
                // Report parameters resolve against the row's own scope;
                // capture them before the sub-sheet pushes layers that
                // could shadow binding names.
                let params: Vec<(Arc<str>, u32)> = row
                    .bindings
                    .iter()
                    .filter_map(|(name, _)| env.lookup(name).map(|slot| (name.clone(), slot)))
                    .collect();
                self.nest.push(row.name.clone());
                let lowered = self.lower_subsheet(env, sub);
                self.nest.pop();
                let (sheet, power, area) = lowered?;
                Ok(RowRecipe {
                    name: row.name.clone(),
                    ident: row.ident.clone(),
                    doc_link: row.doc_link.clone(),
                    element: None,
                    params,
                    rate: None,
                    power,
                    energy: None,
                    area,
                    delay: None,
                    sub: Some(Box::new(sheet)),
                })
            }
            CompiledRowKind::Element(element) => {
                let slots = self.lower_element(&row.name, element, env)?;
                let params: Vec<(Arc<str>, u32)> = row
                    .param_names
                    .iter()
                    .filter_map(|name| env.lookup(name).map(|slot| (name.clone(), slot)))
                    .collect();
                Ok(RowRecipe {
                    name: row.name.clone(),
                    ident: row.ident.clone(),
                    doc_link: row.doc_link.clone(),
                    element: row.element_name.clone(),
                    params,
                    rate: env.lookup("f"),
                    power: slots.power,
                    energy: slots.energy,
                    area: slots.area,
                    delay: slots.delay,
                    sub: None,
                })
            }
            CompiledRowKind::Missing { .. } => unreachable!("rejected above"),
        }
    }

    /// Inlines a nested sheet: globals lowered in the sub-sheet's base
    /// evaluation order, rows in its plan order, totals folded exactly
    /// as the report sums them. `self.nest` already includes the
    /// enclosing row, so traps raised in here nest correctly.
    fn lower_subsheet(
        &mut self,
        env: &mut Env,
        sub: &CompiledSheet,
    ) -> Lower<(SheetRecipe, u32, Option<u32>)> {
        let order = match sub.global_order() {
            Ok(order) => order,
            Err(e) => {
                let e = e.clone();
                return Err(self.trap(e));
            }
        };
        env.push_layer();
        let mut globals: Vec<Option<(Arc<str>, u32)>> = vec![None; sub.globals.len()];
        for &idx in order {
            let g = &sub.globals[idx];
            let slot = self.lower_expr(&g.expr, env, &|source| EvaluateSheetError::Global {
                name: g.name.to_string(),
                source,
            })?;
            env.insert_top(g.name.clone(), slot);
            globals[idx] = Some((g.name.clone(), slot));
        }
        let rows_plan = match &sub.structure {
            Ok(plan) => plan,
            Err(e) => {
                let e = e.clone();
                return Err(self.trap(e));
            }
        };
        let power_layer = env.push_layer();
        self.rows_total += rows_plan.order.len() as u64;
        let mut rows: Vec<Option<RowRecipe>> = vec![None; rows_plan.rows.len()];
        for &i in &rows_plan.order {
            let row = &rows_plan.rows[i];
            let rec = self.lower_row(env, row)?;
            if let Some(pref) = &row.power_ref {
                env.insert_at(power_layer, pref.clone(), rec.power);
            }
            if let (Some(aref), Some(area)) = (&row.area_ref, rec.area) {
                env.insert_at(power_layer, aref.clone(), area);
            }
            rows[i] = Some(rec);
        }
        let rows: Vec<RowRecipe> = rows
            .into_iter()
            .map(|r| r.expect("plan order covers every row"))
            .collect();
        let (power, area) = self.lower_totals(&rows);
        let recipe = SheetRecipe {
            name: sub.name.clone(),
            globals: globals
                .into_iter()
                .map(|g| g.expect("plan order covers every global"))
                .collect(),
            rows,
        };
        Ok((recipe, power, area))
    }

    /// `total_power` / `total_area` folds in row declaration order — the
    /// same `f64::sum` fold the report performs from 0.0 (`total_area`
    /// only over rows that have one, `None` when no row does).
    fn lower_totals(&mut self, rows: &[RowRecipe]) -> (u32, Option<u32>) {
        let zero = self.konst(0.0);
        let mut power = zero;
        for rec in rows {
            let dst = self.reg("");
            self.emit(Instr::Bin {
                op: BinaryOp::Add,
                dst,
                a: power,
                b: rec.power,
            });
            power = dst;
        }
        let with_area: Vec<u32> = rows.iter().filter_map(|r| r.area).collect();
        let area = if with_area.is_empty() {
            None
        } else {
            let mut acc = zero;
            for slot in with_area {
                let dst = self.reg("");
                self.emit(Instr::Bin {
                    op: BinaryOp::Add,
                    dst,
                    a: acc,
                    b: slot,
                });
                acc = dst;
            }
            Some(acc)
        };
        (power, area)
    }

    /// The recipe for a poisoned top-level row: its span is the trap
    /// itself, so replay can never reach the recipe — it only keeps the
    /// decl-indexed tables dense.
    fn placeholder(&mut self, row: &CompiledRow) -> RowRecipe {
        RowRecipe {
            name: row.name.clone(),
            ident: row.ident.clone(),
            doc_link: row.doc_link.clone(),
            element: row.element_name.clone(),
            params: Vec::new(),
            rate: None,
            power: self.konst(0.0),
            energy: None,
            area: None,
            delay: None,
            sub: None,
        }
    }
}

impl Program {
    /// Lowers a compiled sheet, whose rows compiled to `rows_plan`, into
    /// one flat program. `appended` lists the override names that append
    /// globals, in the order the resolved-globals vector lists them.
    pub(crate) fn lower(plan: &CompiledSheet, rows_plan: &RowsPlan, appended: &[&str]) -> Program {
        let mut lw = Lowerer::new();
        let mut env = Env::new();
        // Top-level globals, declared then appended: one named register
        // each, seeded per play from the scalar global resolution (which
        // owns the override graph-repair logic).
        env.push_layer();
        let names = plan
            .globals
            .iter()
            .map(|g| g.name.clone())
            .chain(appended.iter().map(|&name| Arc::from(name)));
        let mut global_slots = Vec::with_capacity(plan.globals.len() + appended.len());
        for name in names {
            let slot = lw.reg(name.to_string());
            env.insert_top(name, slot);
            global_slots.push(slot);
        }
        let power_layer = env.push_layer();
        lw.rows_total += rows_plan.order.len() as u64;
        let n = rows_plan.rows.len();
        let mut row_spans = vec![(0u32, 0u32); n];
        let mut recipes: Vec<Option<RowRecipe>> = vec![None; n];
        for &i in &rows_plan.order {
            let row = &rows_plan.rows[i];
            let start = lw.code.len() as u32;
            let rec = match lw.lower_row(&mut env, row) {
                Ok(rec) => {
                    if let Some(pref) = &row.power_ref {
                        env.insert_at(power_layer, pref.clone(), rec.power);
                    }
                    if let (Some(aref), Some(area)) = (&row.area_ref, rec.area) {
                        env.insert_at(power_layer, aref.clone(), area);
                    }
                    rec
                }
                // The trap emitted on poisoning *is* the row's program:
                // replay reports the same first error the tree walker
                // would, and nothing downstream of it ever executes.
                Err(Poisoned) => lw.placeholder(row),
            };
            row_spans[i] = (start, lw.code.len() as u32);
            recipes[i] = Some(rec);
        }
        Program {
            code: lw.code,
            init: lw.init,
            global_slots,
            row_spans,
            recipes: recipes
                .into_iter()
                .map(|r| r.expect("plan order covers every row"))
                .collect(),
            errors: lw.errors,
            names: lw.names,
            rows_total: lw.rows_total,
        }
    }

    /// Registers in the file (scratch buffers must be at least this).
    pub(crate) fn reg_count(&self) -> usize {
        self.init.len()
    }

    /// The `[start, end)` code span evaluating row `i` (declaration
    /// index).
    pub(crate) fn row_span(&self, i: usize) -> (u32, u32) {
        self.row_spans[i]
    }

    /// Register slot of top-level global `i` (its index in the resolved
    /// globals: declared, then appended).
    pub(crate) fn global_slot(&self, i: usize) -> u32 {
        self.global_slots[i]
    }

    /// Resets `regs` to the initial image (constants in place, all
    /// working slots zero).
    pub(crate) fn seed(&self, regs: &mut Vec<f64>) {
        regs.clear();
        regs.extend_from_slice(&self.init);
    }

    /// Writes the resolved top-level global values into their slots: the
    /// declared globals, then the appended ones — the order of both the
    /// resolved-globals vector and the program's global registers, so
    /// this is a positional zip.
    pub(crate) fn seed_globals(&self, values: impl Iterator<Item = f64>, regs: &mut [f64]) {
        for (&slot, value) in self.global_slots.iter().zip(values) {
            regs[slot as usize] = value;
        }
    }

    /// Runs `code[start..end]` over one register file.
    pub(crate) fn exec(&self, start: u32, end: u32, regs: &mut [f64]) -> Result<(), TrapHit> {
        for instr in &self.code[start as usize..end as usize] {
            match *instr {
                Instr::Neg { dst, a } => regs[dst as usize] = -regs[a as usize],
                Instr::Bin { op, dst, a, b } => {
                    regs[dst as usize] = apply_binary(op, regs[a as usize], regs[b as usize]);
                }
                Instr::Call1 { f, dst, a } => regs[dst as usize] = f.apply1(regs[a as usize]),
                Instr::Call2 { f, dst, a, b } => {
                    regs[dst as usize] = f.apply2(regs[a as usize], regs[b as usize]);
                }
                Instr::Sel { dst, cond, a, b } => {
                    regs[dst as usize] = if regs[cond as usize] != 0.0 {
                        regs[a as usize]
                    } else {
                        regs[b as usize]
                    };
                }
                Instr::Check { src, err } => {
                    let v = regs[src as usize];
                    if !v.is_finite() || v < 0.0 {
                        return Err(TrapHit { err, value: v });
                    }
                }
                Instr::TrapIf { cond, err } => {
                    if regs[cond as usize] != 0.0 {
                        return Err(TrapHit { err, value: 0.0 });
                    }
                }
                Instr::Trap { err } => return Err(TrapHit { err, value: 0.0 }),
            }
        }
        Ok(())
    }

    /// Runs `code[start..end]` over `m` register files at once.
    ///
    /// `soa` is slot-major: lane `l` of slot `s` lives at `s * m + l`.
    /// One instruction dispatch drives all `m` lanes, and the per-slot
    /// inner loops are contiguous streams the compiler can vectorize.
    /// A trapped lane records its *first* trap in `errs[l]` and is
    /// skipped by subsequent trap checks; arithmetic still runs in
    /// trapped lanes (the garbage results are never observed), which
    /// keeps every inner loop branch-free.
    pub(crate) fn exec_batch(
        &self,
        start: u32,
        end: u32,
        soa: &mut [f64],
        m: usize,
        errs: &mut [Option<TrapHit>],
    ) {
        for instr in &self.code[start as usize..end as usize] {
            match *instr {
                Instr::Neg { dst, a } => {
                    let (d, a) = (dst as usize * m, a as usize * m);
                    for l in 0..m {
                        soa[d + l] = -soa[a + l];
                    }
                }
                Instr::Bin { op, dst, a, b } => {
                    let (d, a, b) = (dst as usize * m, a as usize * m, b as usize * m);
                    // Hoist the operator dispatch out of the lane loop
                    // for the four hot arithmetic ops.
                    match op {
                        BinaryOp::Add => {
                            for l in 0..m {
                                soa[d + l] = soa[a + l] + soa[b + l];
                            }
                        }
                        BinaryOp::Sub => {
                            for l in 0..m {
                                soa[d + l] = soa[a + l] - soa[b + l];
                            }
                        }
                        BinaryOp::Mul => {
                            for l in 0..m {
                                soa[d + l] = soa[a + l] * soa[b + l];
                            }
                        }
                        BinaryOp::Div => {
                            for l in 0..m {
                                soa[d + l] = soa[a + l] / soa[b + l];
                            }
                        }
                        _ => {
                            for l in 0..m {
                                soa[d + l] = apply_binary(op, soa[a + l], soa[b + l]);
                            }
                        }
                    }
                }
                Instr::Call1 { f, dst, a } => {
                    let (d, a) = (dst as usize * m, a as usize * m);
                    for l in 0..m {
                        soa[d + l] = f.apply1(soa[a + l]);
                    }
                }
                Instr::Call2 { f, dst, a, b } => {
                    let (d, a, b) = (dst as usize * m, a as usize * m, b as usize * m);
                    for l in 0..m {
                        soa[d + l] = f.apply2(soa[a + l], soa[b + l]);
                    }
                }
                Instr::Sel { dst, cond, a, b } => {
                    let (d, c, a, b) = (
                        dst as usize * m,
                        cond as usize * m,
                        a as usize * m,
                        b as usize * m,
                    );
                    for l in 0..m {
                        soa[d + l] = if soa[c + l] != 0.0 {
                            soa[a + l]
                        } else {
                            soa[b + l]
                        };
                    }
                }
                Instr::Check { src, err } => {
                    let s = src as usize * m;
                    for l in 0..m {
                        let v = soa[s + l];
                        if (!v.is_finite() || v < 0.0) && errs[l].is_none() {
                            errs[l] = Some(TrapHit { err, value: v });
                        }
                    }
                }
                Instr::TrapIf { cond, err } => {
                    let c = cond as usize * m;
                    for l in 0..m {
                        if soa[c + l] != 0.0 && errs[l].is_none() {
                            errs[l] = Some(TrapHit { err, value: 0.0 });
                        }
                    }
                }
                Instr::Trap { err } => {
                    for e in errs.iter_mut().take(m) {
                        if e.is_none() {
                            *e = Some(TrapHit { err, value: 0.0 });
                        }
                    }
                }
            }
        }
    }

    /// Rebuilds the full error a trap stands for, splicing in the
    /// runtime value for physical-value checks.
    pub(crate) fn materialize(&self, hit: TrapHit) -> EvaluateSheetError {
        match &self.errors[hit.err as usize] {
            ErrTemplate::Fixed(err) => err.clone(),
            ErrTemplate::BadValue { nest, row, formula } => {
                let mut err = EvaluateSheetError::Element {
                    row: row.to_string(),
                    source: EvaluateElementError::BadValue {
                        formula,
                        value: hit.value,
                    },
                };
                for name in nest.iter().rev() {
                    err = EvaluateSheetError::Nested {
                        row: name.to_string(),
                        source: Box::new(err),
                    };
                }
                err
            }
        }
    }

    /// One full replay: seeds the register file from `resolved` (the
    /// scalar global resolution, declaration order first), executes the
    /// whole program, and assembles the report — or the exact error the
    /// tree walker would have raised.
    pub(crate) fn replay_full(
        &self,
        name: Arc<str>,
        resolved: Vec<(String, f64)>,
        regs: &mut Vec<f64>,
    ) -> Result<SheetReport, EvaluateSheetError> {
        let metrics = bytecode_metrics();
        let _timer = metrics.replay_seconds.start_timer();
        crate::plan::plan_metrics()
            .rows_evaluated_total
            .add(self.rows_total);
        self.seed(regs);
        self.seed_globals(resolved.iter().map(|(_, v)| *v), regs);
        let run = self.exec(0, self.code.len() as u32, regs);
        metrics.instrs_total.add(self.code.len() as u64);
        run.map_err(|hit| self.materialize(hit))?;
        let rows = self
            .recipes
            .iter()
            .map(|rec| build_row(rec, &|slot: u32| regs[slot as usize]))
            .collect();
        Ok(SheetReport::new(name, resolved, rows))
    }

    /// Rebuilds row `i`'s report from register values supplied by `get`
    /// (direct indexing for scalar replay, a strided lane view for the
    /// batch kernel).
    pub(crate) fn build_row_report(&self, i: usize, get: &impl Fn(u32) -> f64) -> RowReport {
        build_row(&self.recipes[i], get)
    }

    /// Human-readable listing of the lowered program: register file
    /// (named globals and constants pool), per-row code spans, and the
    /// instruction stream — the debugging story for the engine.
    pub(crate) fn disassemble(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "program: {} instrs, {} regs, {} rows, {} error templates",
            self.code.len(),
            self.init.len(),
            self.recipes.len(),
            self.errors.len(),
        );
        let _ = writeln!(out, "registers:");
        for (slot, name) in self.names.iter().enumerate() {
            if !name.is_empty() {
                let _ = writeln!(out, "  r{slot:<5} {name}");
            }
        }
        let _ = writeln!(out, "row spans:");
        for (i, rec) in self.recipes.iter().enumerate() {
            let (start, end) = self.row_spans[i];
            let _ = writeln!(
                out,
                "  [{start:>5}..{end:>5}) {:<24} power r{} {}",
                rec.name,
                rec.power,
                if rec.sub.is_some() { "(sub-sheet)" } else { "" },
            );
        }
        let _ = writeln!(out, "code:");
        for (pc, instr) in self.code.iter().enumerate() {
            let line = match *instr {
                Instr::Neg { dst, a } => format!("r{dst} = -{}", self.operand(a)),
                Instr::Bin { op, dst, a, b } => format!(
                    "r{dst} = {:?}({}, {})",
                    op,
                    self.operand(a),
                    self.operand(b)
                ),
                Instr::Call1 { f, dst, a } => {
                    format!("r{dst} = {}({})", f.name(), self.operand(a))
                }
                Instr::Call2 { f, dst, a, b } => format!(
                    "r{dst} = {}({}, {})",
                    f.name(),
                    self.operand(a),
                    self.operand(b)
                ),
                Instr::Sel { dst, cond, a, b } => format!(
                    "r{dst} = {} != 0 ? {} : {}",
                    self.operand(cond),
                    self.operand(a),
                    self.operand(b)
                ),
                Instr::Check { src, err } => {
                    format!("check {} physical  ; err#{err}", self.operand(src))
                }
                Instr::TrapIf { cond, err } => {
                    format!("trap if {} != 0  ; err#{err}", self.operand(cond))
                }
                Instr::Trap { err } => format!("trap  ; err#{err}"),
            };
            let _ = writeln!(out, "  {pc:>5}  {line}");
        }
        out
    }

    fn operand(&self, slot: u32) -> String {
        let name = &self.names[slot as usize];
        if name.is_empty() {
            format!("r{slot}")
        } else {
            format!("r{slot}{name}")
        }
    }
}

/// Rebuilds one row report from a recipe plus a register accessor.
fn build_row(rec: &RowRecipe, get: &impl Fn(u32) -> f64) -> RowReport {
    let params: Vec<(Arc<str>, f64)> = rec
        .params
        .iter()
        .map(|(name, slot)| (name.clone(), get(*slot)))
        .collect();
    if let Some(sub) = &rec.sub {
        let globals = sub
            .globals
            .iter()
            .map(|(name, slot)| (name.to_string(), get(*slot)))
            .collect();
        let rows = sub.rows.iter().map(|r| build_row(r, get)).collect();
        let sub_report = SheetReport::new(sub.name.clone(), globals, rows);
        RowReport::for_subsheet(
            rec.name.clone(),
            rec.ident.clone(),
            params,
            rec.doc_link.clone(),
            sub_report,
        )
    } else {
        RowReport::from_values(
            rec.name.clone(),
            rec.ident.clone(),
            rec.element.clone(),
            params,
            rec.rate.map(get),
            rec.doc_link.clone(),
            Power::new(get(rec.power)),
            rec.energy.map(|s| Energy::new(get(s))),
            rec.area.map(|s| Area::new(get(s))),
            rec.delay.map(|s| Time::new(get(s))),
        )
    }
}
