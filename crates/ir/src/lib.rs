//! # llmulator-ir
//!
//! The dataflow-accelerator intermediate representation used throughout the
//! LLMulator reproduction (MICRO 2025).
//!
//! A cost-model input is the quadruple `{G, Op, Params, data}`:
//!
//! * [`DataflowGraph`] (`G`) — a sequence of operator invocations wired
//!   through named buffers,
//! * [`Operator`] (`Op`) — C-like loop-nest implementations with optional
//!   loop-mapping pragmas,
//! * [`HardwareParams`] (`Params`) — memory delays and mapping knobs,
//! * [`InputData`] (`data`) — runtime scalar/tensor bindings that drive
//!   input-adaptive control flow.
//!
//! The IR renders to C-like text ([`render`]), parses back ([`parse`]), and
//! supports the static input-dependence analysis ([`taint`]) whose Class I/II
//! view ([`analysis`]) LLMulator uses to split operators into Class I
//! (input-independent control flow) and Class II (input-dependent control
//! flow).
//!
//! ```
//! use llmulator_ir::builder::OperatorBuilder;
//! use llmulator_ir::{Expr, Program};
//!
//! let gemm = OperatorBuilder::new("gemm")
//!     .array_param("a", [8, 8])
//!     .array_param("b", [8, 8])
//!     .array_param("c", [8, 8])
//!     .loop_nest(&[("i", 8), ("j", 8), ("k", 8)], |idx| {
//!         let (i, j, k) = (idx[0].clone(), idx[1].clone(), idx[2].clone());
//!         vec![llmulator_ir::Stmt::accumulate(
//!             "c",
//!             vec![i.clone(), j.clone()],
//!             Expr::load("a", vec![i, k.clone()]) * Expr::load("b", vec![k, j]),
//!         )]
//!     })
//!     .build();
//! let program = Program::single_op(gemm);
//! assert!(program.render().contains("void gemm"));
//! ```

pub mod analysis;
pub mod bounds;
pub mod builder;
pub mod cfg;
pub mod error;
pub mod expr;
pub mod graph;
pub mod hw;
pub mod input;
pub mod lint;
pub mod normalize;
pub mod op;
pub mod parse;
pub mod program;
pub mod render;
pub mod stmt;
pub mod taint;

pub use analysis::{ControlFlowReport, OperatorClass};
pub use bounds::{
    analyze_operator_bounds, analyze_program_bounds, CountInterval, LoopConsts, OperatorBounds,
    ProgramBounds, TripBounds,
};
pub use builder::OperatorBuilder;
pub use cfg::{Block, BlockId, Cfg, NaturalLoop, Terminator};
pub use error::IrError;
pub use expr::{BinOp, Expr, Ident, Intrinsic, UnOp};
pub use graph::{Arg, BufferDecl, DataflowGraph, Dim, Invocation};
pub use hw::HardwareParams;
pub use input::{InputData, Tensor, Value};
pub use lint::{lint_operator, lint_program, Lint, LintReport, LintRule, Severity};
pub use normalize::{normalize_expr, normalize_operator, normalize_program};
pub use op::{Operator, ParamDecl, ParamKind};
pub use program::Program;
pub use stmt::{ForLoop, LValue, LoopPragma, Stmt};
pub use taint::{
    analyze_operator_taint, analyze_program_taint, AdaptivityClass, Dependence, OperatorTaint,
    ProgramTaint, TaintInfo,
};
