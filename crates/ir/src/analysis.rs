//! Static input-dependence analysis (the Frama-C role in the paper).
//!
//! LLMulator's dynamic control-flow separation (paper Sec. 5.2) requires
//! knowing, *statically*, whether each operator's control flow depends on
//! runtime input. This module is the paper's Class I/II view of the
//! per-operator taint analysis in [`crate::taint`]: an operator whose loop
//! bounds and branch conditions are all input-independent
//! ([`AdaptivityClass::Static`]) is **Class I**; every other operator is
//! **Class II**. The scalar inputs reaching those control-flow sinks are its
//! dynamic parameters, and a sink reading tensor contents marks it
//! data-dependent.
//!
//! Operators are analyzed unseeded (every scalar parameter is a runtime
//! input), so an operator's class does not depend on how a particular graph
//! invokes it.

use crate::expr::Ident;
use crate::op::Operator;
use crate::program::Program;
use crate::taint::{analyze_operator_taint, AdaptivityClass};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Operator classification used by dynamic control-flow separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperatorClass {
    /// Control flow is fully determined at compile time (e.g. a fixed-shape
    /// matrix transposition). Attention between this operator's tokens and
    /// the `data` segment can be masked.
    ClassI,
    /// Control flow depends on runtime input (e.g. sorting, dynamic loop
    /// bounds). Must attend to the `data` segment.
    ClassII,
}

impl OperatorClass {
    /// True for Class II (input-dependent) operators.
    pub fn is_input_dependent(self) -> bool {
        matches!(self, OperatorClass::ClassII)
    }
}

/// Per-operator analysis result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperatorReport {
    /// Operator name.
    pub name: Ident,
    /// Class I / Class II.
    pub class: OperatorClass,
    /// Scalar parameters that reach a control-flow sink.
    pub dynamic_params: BTreeSet<Ident>,
    /// True when a control-flow sink reads array contents (value-dependent
    /// control flow, e.g. `if (a[i] > 0)`).
    pub data_dependent_branches: bool,
}

/// Whole-program analysis result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlFlowReport {
    /// One report per operator, in definition order.
    pub operators: Vec<OperatorReport>,
}

impl ControlFlowReport {
    /// Looks up the report for an operator.
    pub fn operator(&self, name: &Ident) -> Option<&OperatorReport> {
        self.operators.iter().find(|r| &r.name == name)
    }

    /// Classification for an operator (defaults to Class II when unknown —
    /// the conservative choice for masking).
    pub fn class_of(&self, name: &Ident) -> OperatorClass {
        self.operator(name)
            .map(|r| r.class)
            .unwrap_or(OperatorClass::ClassII)
    }

    /// The paper's Table 2 "Dyn. Num": the number of optional dynamic
    /// control-flow-related parameters in the program, counted as the total
    /// of dynamic scalar parameters over all graph invocations.
    pub fn dynamic_param_count(&self, program: &Program) -> usize {
        program
            .graph
            .invocations
            .iter()
            .map(|inv| {
                self.operator(&inv.op)
                    .map(|r| r.dynamic_params.len() + usize::from(r.data_dependent_branches))
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Number of Class II operators.
    pub fn class_ii_count(&self) -> usize {
        self.operators
            .iter()
            .filter(|r| r.class == OperatorClass::ClassII)
            .count()
    }
}

/// Analyzes one operator in isolation (all scalar parameters and free graph
/// scalars are treated as runtime-bound sources): the Class I/II view of
/// [`analyze_operator_taint`].
pub fn analyze_operator(op: &Operator) -> OperatorReport {
    let t = analyze_operator_taint(op);
    OperatorReport {
        name: op.name.clone(),
        class: if t.class.is_static() {
            OperatorClass::ClassI
        } else {
            OperatorClass::ClassII
        },
        dynamic_params: t
            .loop_bounds
            .values()
            .chain(t.branch_conds.values())
            .flat_map(|sink| sink.params.iter().cloned())
            .collect(),
        data_dependent_branches: t.class == AdaptivityClass::DataAdaptive,
    }
}

/// Analyzes every operator of a program.
pub fn analyze_program(program: &Program) -> ControlFlowReport {
    ControlFlowReport {
        operators: program.operators.iter().map(analyze_operator).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OperatorBuilder;
    use crate::expr::Expr;
    use crate::stmt::{LValue, Stmt};

    #[test]
    fn fixed_transpose_is_class_i() {
        let op = OperatorBuilder::new("transpose")
            .array_param("a", [8, 8])
            .array_param("b", [8, 8])
            .loop_nest(&[("i", 8), ("j", 8)], |idx| {
                vec![Stmt::assign(
                    LValue::store("b", vec![idx[1].clone(), idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone(), idx[1].clone()]),
                )]
            })
            .build();
        let report = analyze_operator(&op);
        assert_eq!(report.class, OperatorClass::ClassI);
        assert!(report.dynamic_params.is_empty());
    }

    #[test]
    fn dynamic_bound_is_class_ii_with_named_param() {
        let op = OperatorBuilder::new("window")
            .array_param("a", [256])
            .scalar_param("n")
            .dyn_loop_nest(&[("i", Expr::var("n"))], |_| vec![])
            .build();
        let report = analyze_operator(&op);
        assert_eq!(report.class, OperatorClass::ClassII);
        assert!(report.dynamic_params.contains(&"n".into()));
    }

    #[test]
    fn value_dependent_branch_is_class_ii() {
        let op = OperatorBuilder::new("threshold")
            .array_param("a", [16])
            .array_param("b", [16])
            .loop_nest(&[("i", 16)], |idx| {
                vec![Stmt::if_then(
                    Expr::binary(
                        crate::expr::BinOp::Gt,
                        Expr::load("a", vec![idx[0].clone()]),
                        Expr::int(0),
                    ),
                    vec![Stmt::assign(
                        LValue::store("b", vec![idx[0].clone()]),
                        Expr::int(1),
                    )],
                )]
            })
            .build();
        let report = analyze_operator(&op);
        assert_eq!(report.class, OperatorClass::ClassII);
        assert!(report.data_dependent_branches);
    }

    #[test]
    fn taint_propagates_through_locals() {
        // m = n * 2; for (i in 0..m) — still Class II, attributed to `n`.
        let op = OperatorBuilder::new("indirect")
            .scalar_param("n")
            .stmt(Stmt::assign(
                LValue::var("m"),
                Expr::var("n") * Expr::int(2),
            ))
            .dyn_loop_nest(&[("i", Expr::var("m"))], |_| vec![])
            .build();
        let report = analyze_operator(&op);
        assert_eq!(report.class, OperatorClass::ClassII);
        assert!(report.dynamic_params.contains(&"n".into()));
        assert!(!report.data_dependent_branches);
    }

    #[test]
    fn unused_scalar_param_keeps_class_i() {
        let op = OperatorBuilder::new("fixed")
            .array_param("a", [4])
            .scalar_param("unused")
            .loop_nest(&[("i", 4)], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::int(0),
                )]
            })
            .build();
        assert_eq!(analyze_operator(&op).class, OperatorClass::ClassI);
    }

    #[test]
    fn load_in_bound_marks_data_dependence() {
        // for (i = 0; i < a[0]; ...) — data-dependent bound without params.
        let op = OperatorBuilder::new("datadep")
            .array_param("a", [4])
            .dyn_loop_nest(&[("i", Expr::load("a", vec![Expr::int(0)]))], |_| vec![])
            .build();
        let report = analyze_operator(&op);
        assert_eq!(report.class, OperatorClass::ClassII);
        assert!(report.data_dependent_branches);
        assert!(report.dynamic_params.is_empty());
    }

    #[test]
    fn program_report_counts_class_ii() {
        let fixed = OperatorBuilder::new("fixed")
            .array_param("a", [4])
            .loop_nest(&[("i", 4)], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::int(0),
                )]
            })
            .build();
        let program = Program::single_op(fixed);
        let report = analyze_program(&program);
        assert_eq!(report.class_ii_count(), 0);
        assert_eq!(report.dynamic_param_count(&program), 0);
        assert_eq!(report.class_of(&"unknown".into()), OperatorClass::ClassII);
    }
}
