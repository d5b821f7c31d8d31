//! # llmulator-nn
//!
//! From-scratch neural-network substrate for the LLMulator reproduction —
//! the role the HuggingFace + LLaMA-3.2 stack plays in the paper.
//!
//! The crate provides:
//!
//! * [`Matrix`] — dense `f32` matrices with blocked, allocation-free matmul
//!   kernels (bit-identical to the naive `*_naive` test oracles),
//! * [`Scratch`] — a reusable buffer arena keeping steady-state inference
//!   free of heap allocation,
//! * [`Graph`] — a tape-based reverse-mode autodiff engine (gradient-checked
//!   against finite differences in the test suite),
//! * [`Transformer`] — a pre-norm encoder with *pluggable additive attention
//!   masks* (the hook for LLMulator's dynamic control-flow separation),
//! * [`infer::forward_packed`] / [`infer::forward`] — the production
//!   encoder: one tape-free, scratch-backed layer loop with two entry
//!   points. `forward_packed` packs same-length sequences into one blocked
//!   GEMM per layer per group; `forward` is its single-sample case with an
//!   optional attention mask. Both are bit-identical per sample,
//! * [`infer::encode_batch`] — scoped-thread fan-out of [`infer::forward`],
//! * [`infer::encode_cached`] — forward-only inference with block-structured
//!   attention caching (LLMulator's dynamic prediction acceleration),
//! * [`AdamW`] — decoupled-weight-decay optimizer,
//! * [`train::batch_grads`] / [`train::par_map`] — parallel mini-batch
//!   gradient accumulation and a generic scoped-thread map.
//!
//! ```
//! use llmulator_nn::{Graph, ParamStore, Transformer, TransformerConfig};
//!
//! let mut store = ParamStore::new();
//! let encoder = Transformer::new(TransformerConfig::tiny(100), &mut store, 0);
//! let mut g = Graph::new();
//! let out = encoder.encode(&mut g, &store, &[5, 17, 3], None);
//! assert_eq!(g.value(out.pooled).shape(), (1, 16));
//! ```

// Lint baseline: the autodiff/inference kernels iterate rows by index into
// several matrices at once (values, gradients, caches, masks); the iterator
// rewrites clippy suggests obscure the row-parallel structure.
#![allow(clippy::needless_range_loop)]

pub mod adam;
pub mod graph;
pub mod infer;
pub mod matrix;
pub mod scratch;
pub mod train;
pub mod transformer;

pub use adam::{AdamConfig, AdamW};
pub use graph::{Graph, NodeId, ParamId, ParamStore};
pub use infer::{
    encode_batch, encode_cached, encode_cached_with, encode_naive, forward, forward_packed,
    EncoderCache, InferStats,
};
pub use matrix::{softmax_slice, Matrix};
pub use scratch::Scratch;
pub use train::{available_threads, par_map, par_map_init};
pub use transformer::{EncodeOut, Transformer, TransformerConfig};
