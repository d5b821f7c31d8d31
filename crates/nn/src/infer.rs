//! Forward-only encoder inference with block-structured attention caching.
//!
//! This implements the paper's *dynamic prediction acceleration* (Sec. 5.3):
//! when only one segment of the input (e.g. a single operator, or the `data`
//! scalars) changes between predictions, attention blocks not touching the
//! changed tokens are served from cache and only the affected rows are
//! recomputed. The separation mask (Sec. 5.2) makes this effective: rows
//! that are masked off from the changed segment keep their outputs.
//!
//! Two production paths live here, both built on the blocked kernels in
//! [`crate::matrix`] and the [`Scratch`] arena so steady-state inference
//! allocates nothing:
//!
//! * one encoder layer loop with two entry points: [`forward_packed`] packs
//!   a group of same-length sequences into one activation matrix so each
//!   per-layer projection runs as a single blocked GEMM for the whole group
//!   (attention stays block-diagonal), and [`forward`] is its single-sample
//!   case with an optional attention mask — the hot path behind every
//!   prediction. Both are bit-identical per sample to the autodiff tape
//!   forward in [`Transformer::encode`];
//! * [`encode_cached`] — the incremental path recomputing only rows
//!   reachable (per mask) from changed tokens.
//!
//! [`encode_batch`] fans [`forward`] out across scoped threads for batch
//! workloads.

use crate::graph::ParamStore;
use crate::matrix::{softmax_slice, Matrix};
use crate::scratch::Scratch;
use crate::transformer::{clamp_token, Transformer};

/// Threshold below which a mask entry is considered "blocked".
const MASK_BLOCKED: f32 = -1e8;

/// Cached per-layer state.
#[derive(Debug, Clone)]
struct LayerCache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    x_out: Matrix,
}

/// Cached encoder state for one token sequence.
#[derive(Debug, Clone)]
pub struct EncoderCache {
    tokens: Vec<u32>,
    x0: Matrix,
    layers: Vec<LayerCache>,
    /// Final per-token representations (`n × d`).
    pub seq: Matrix,
    /// Mean-pooled representation (`1 × d`).
    pub pooled: Matrix,
}

impl EncoderCache {
    /// The token sequence this cache was computed for.
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }
}

/// Work accounting for one cached forward pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InferStats {
    /// Attention/FFN rows actually recomputed (summed over layers).
    pub rows_computed: usize,
    /// Total rows had nothing been cached.
    pub rows_total: usize,
}

impl InferStats {
    /// Fraction of work skipped thanks to the cache (0 when nothing cached).
    pub fn savings(&self) -> f64 {
        if self.rows_total == 0 {
            0.0
        } else {
            1.0 - self.rows_computed as f64 / self.rows_total as f64
        }
    }
}

/// `out = row × w` with a 4-way `k` unroll. Per output element the
/// accumulation still runs over `k` left-to-right, so results are
/// bit-identical to the naive axpy loop.
fn row_matmul_into(row: &[f32], w: &Matrix, out: &mut [f32]) {
    let n = w.cols();
    debug_assert_eq!(out.len(), n);
    out.fill(0.0);
    let mut kk = 0;
    while kk + 4 <= row.len() {
        let (a0, a1, a2, a3) = (row[kk], row[kk + 1], row[kk + 2], row[kk + 3]);
        let w0 = w.row(kk);
        let w1 = w.row(kk + 1);
        let w2 = w.row(kk + 2);
        let w3 = w.row(kk + 3);
        for (j, o) in out.iter_mut().enumerate() {
            *o = *o + a0 * w0[j] + a1 * w1[j] + a2 * w2[j] + a3 * w3[j];
        }
        kk += 4;
    }
    while kk < row.len() {
        let av = row[kk];
        let wr = w.row(kk);
        for (o, &bv) in out.iter_mut().zip(wr) {
            *o += av * bv;
        }
        kk += 1;
    }
}

/// `out = layer_norm(row) * gain + bias` (same op order as the tape's
/// `layer_norm_rows` → `mul_row` → `add_row` chain).
fn layer_norm_row_into(row: &[f32], gain: &Matrix, bias: &Matrix, out: &mut [f32]) {
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
    let inv = 1.0 / (var + 1e-5).sqrt();
    for (((o, &v), &g), &b) in out.iter_mut().zip(row).zip(gain.row(0)).zip(bias.row(0)) {
        *o = (v - mean) * inv * g + b;
    }
}

/// Row-wise layer norm with learned gain/bias over a whole matrix.
fn layer_norm_into(x: &Matrix, gain: &Matrix, bias: &Matrix, out: &mut Matrix) {
    debug_assert_eq!(x.shape(), out.shape());
    for i in 0..x.rows() {
        layer_norm_row_into(x.row(i), gain, bias, out.row_mut(i));
    }
}

/// One attention head over column block `off..off+hd` for the `n`-row
/// sample block starting at row `base` of the (possibly packed) `q`/`k`/`v`
/// matrices, where `n = scores.rows()`: fills `scores` with the softmaxed
/// (scaled, masked) attention weights and writes the weighted values into
/// the same block of `cat`. `vh`/`head_out` are `n × hd` scratch matrices.
/// Rows only attend within their own block, so a block's output is
/// bit-identical to running the head on that sample alone.
#[allow(clippy::too_many_arguments)]
#[inline(always)] // see `forward_group`
fn attention_head(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    mask: Option<&Matrix>,
    base: usize,
    off: usize,
    hd: usize,
    scale: f32,
    scores: &mut Matrix,
    vh: &mut Matrix,
    head_out: &mut Matrix,
    cat: &mut Matrix,
) {
    let n = scores.rows();
    for i in 0..n {
        let qr = &q.row(base + i)[off..off + hd];
        let sr = scores.row_mut(i);
        // A plain zip dot beats a multi-row unroll at head dimension ≤ 16:
        // the iterator pair carries no bounds checks and the compiler fully
        // unrolls the short inner loop. Scale/mask are fused into the same
        // pass ((dot·scale) + mask, the tape's association), tracking the
        // row maximum in `j` order exactly as the softmax fold would.
        let mut mx = f32::NEG_INFINITY;
        match mask {
            Some(m) => {
                for (j, s) in sr.iter_mut().enumerate() {
                    let kr = &k.row(base + j)[off..off + hd];
                    let mut acc = 0.0f32;
                    for (&qv, &kv) in qr.iter().zip(kr) {
                        acc += qv * kv;
                    }
                    let sv = acc * scale + m.get(i, j);
                    mx = mx.max(sv);
                    *s = sv;
                }
            }
            None => {
                for (j, s) in sr.iter_mut().enumerate() {
                    let kr = &k.row(base + j)[off..off + hd];
                    let mut acc = 0.0f32;
                    for (&qv, &kv) in qr.iter().zip(kr) {
                        acc += qv * kv;
                    }
                    let sv = acc * scale;
                    mx = mx.max(sv);
                    *s = sv;
                }
            }
        }
        crate::matrix::softmax_slice_with_max(sr, mx);
    }
    // head_out = scores × v[block, off..off+hd] through the blocked kernel
    // on a materialized head slice — the same structure (and bit pattern) as
    // the tape's slice_cols + matmul.
    v.gather_block_into(base, base + n, off, hd, vh);
    scores.matmul_into(vh, head_out);
    cat.scatter_block_from(base, off, head_out);
}

/// Full-sequence forward pass on the blocked kernels, allocation-free via
/// `scratch` — the production prediction path.
///
/// Computes the identical sequence of floating-point operations as the
/// autodiff tape forward ([`Transformer::encode`]) without building a tape,
/// so results are bit-identical while running several times faster. This is
/// the single-sample case of [`forward_packed`]'s layer loop, plus the
/// optional additive `n × n` attention mask.
///
/// Returns the `(seq, pooled)` pair (recycle them into `scratch` when done
/// to keep inference allocation-free).
///
/// # Panics
///
/// Panics if `mask` does not match the (truncated) token count.
pub fn forward(
    t: &Transformer,
    store: &ParamStore,
    tokens: &[u32],
    mask: Option<&Matrix>,
    scratch: &mut Scratch,
) -> (Matrix, Matrix) {
    forward_group(t, store, &[tokens], mask, scratch)
}

/// Fused batch forward pass over a group of sequences sharing one effective
/// (truncated) length `n`: all `B` samples are packed row-wise into a single
/// `B·n × d` activation matrix and every per-layer projection (`q`/`k`/`v`,
/// `wo`, and both FFN matmuls) runs as **one** blocked GEMM for the whole
/// group instead of one per sample. Attention itself stays block-diagonal —
/// each sample's rows only attend within their own block — so no
/// cross-sample term is ever computed.
///
/// Returns `(seq, pooled)` where `seq` is the packed `B·n × d` per-token
/// matrix (sample `s` owns rows `s·n .. (s+1)·n`) and `pooled` is `B × d`
/// with one mean-pooled row per sample. Because every kernel preserves the
/// per-element accumulation order of the per-sample path, row `s` of
/// `pooled` (and sample `s`'s block of `seq`) is bit-identical to
/// [`forward`] on that sample alone, for any group size.
///
/// Recycle both returned matrices into `scratch` to keep steady-state
/// batch inference allocation-free.
///
/// # Panics
///
/// Panics if `seqs` is empty or the sequences' effective lengths
/// ([`crate::TransformerConfig::effective_len`]) differ — group mixed-length
/// batches with `llmulator`'s length partitioner first.
pub fn forward_packed(
    t: &Transformer,
    store: &ParamStore,
    seqs: &[&[u32]],
    scratch: &mut Scratch,
) -> (Matrix, Matrix) {
    forward_group(t, store, seqs, None, scratch)
}

/// The encoder layer loop behind [`forward`] and [`forward_packed`]: packs
/// the group row-wise (sample `s` owns rows `s·n .. (s+1)·n`) and runs each
/// per-layer projection as one GEMM over the whole group. A `mask` applies
/// to a single sequence only and must be `n × n`.
///
/// Force-inlined, together with [`attention_head`], so each entry point
/// compiles its own copy: [`forward_packed`]'s copy has the mask branch
/// folded out of the attention loops. Sharing one compiled copy measured
/// ~10% slower per sequence on the packed path (Medium encoder, 209–256
/// tokens, 2-vCPU x86-64 VM).
#[inline(always)]
fn forward_group(
    t: &Transformer,
    store: &ParamStore,
    seqs: &[&[u32]],
    mask: Option<&Matrix>,
    scratch: &mut Scratch,
) -> (Matrix, Matrix) {
    let raw = t.raw();
    let cfg = raw.config;
    let b = seqs.len();
    assert!(b > 0, "forward_packed needs at least one sequence");
    let n = cfg.effective_len(seqs[0].len());
    if let Some(m) = mask {
        assert_eq!(b, 1, "a mask applies to exactly one sequence");
        assert_eq!(m.shape(), (n, n), "mask shape");
    }
    let mut ids = Vec::with_capacity(b * n);
    for s in seqs {
        assert_eq!(
            cfg.effective_len(s.len()),
            n,
            "forward_packed requires equal effective lengths"
        );
        ids.extend(
            s.iter()
                .take(n)
                .map(|&tok| clamp_token(tok, cfg.vocab_size)),
        );
    }
    let rows = b * n;
    let d = cfg.d_model;
    let heads = cfg.n_heads;
    let hd = d / heads;

    // ---- embeddings ----
    let tok_table = store.get(raw.tok_embed);
    let pos_table = store.get(raw.pos_embed);
    let mut x = scratch.matrix(rows, d);
    for (r, &id) in ids.iter().enumerate() {
        for ((o, &tv), &pv) in x
            .row_mut(r)
            .iter_mut()
            .zip(tok_table.row(id))
            .zip(pos_table.row(r % n))
        {
            *o = tv + pv;
        }
    }

    // ---- layers: one GEMM per projection for the whole group ----
    let mut ln = scratch.matrix(rows, d);
    let mut q = scratch.matrix(rows, d);
    let mut k = scratch.matrix(rows, d);
    let mut v = scratch.matrix(rows, d);
    let mut scores = scratch.matrix(n, n);
    let mut vh = scratch.matrix(n, hd);
    let mut head_out = scratch.matrix(n, hd);
    let mut cat = scratch.matrix(rows, d);
    let mut proj = scratch.matrix(rows, d);
    let mut hidden = scratch.matrix(rows, cfg.d_ff);
    let mut ffn = scratch.matrix(rows, d);
    let scale = 1.0 / (hd as f32).sqrt();
    for layer in raw.layers {
        let idsl = layer.ids();
        // Attention sub-block (pre-norm).
        layer_norm_into(
            &x,
            store.get(idsl.ln1_gain),
            store.get(idsl.ln1_bias),
            &mut ln,
        );
        ln.matmul_into(store.get(idsl.wq), &mut q);
        ln.matmul_into(store.get(idsl.wk), &mut k);
        ln.matmul_into(store.get(idsl.wv), &mut v);
        for s in 0..b {
            for h in 0..heads {
                attention_head(
                    &q,
                    &k,
                    &v,
                    mask,
                    s * n,
                    h * hd,
                    hd,
                    scale,
                    &mut scores,
                    &mut vh,
                    &mut head_out,
                    &mut cat,
                );
            }
        }
        cat.matmul_into(store.get(idsl.wo), &mut proj);
        x.add_assign(&proj);
        // Feed-forward sub-block (pre-norm).
        layer_norm_into(
            &x,
            store.get(idsl.ln2_gain),
            store.get(idsl.ln2_bias),
            &mut ln,
        );
        ln.matmul_into(store.get(idsl.w1), &mut hidden);
        hidden.bias_relu(store.get(idsl.b1));
        hidden.matmul_into(store.get(idsl.w2), &mut ffn);
        let b2 = store.get(idsl.b2);
        for i in 0..rows {
            for ((o, &hv), &bv) in x.row_mut(i).iter_mut().zip(ffn.row(i)).zip(b2.row(0)) {
                // Same association as the tape: x + (ffn + b2).
                *o += hv + bv;
            }
        }
    }

    // ---- final layer norm + per-sample pooling ----
    let mut seq = scratch.matrix(rows, d);
    layer_norm_into(
        &x,
        store.get(raw.final_gain),
        store.get(raw.final_bias),
        &mut seq,
    );
    let mut pooled = scratch.matrix(b, d);
    for s in 0..b {
        seq.mean_rows_block_into(s * n, (s + 1) * n, pooled.row_mut(s));
    }
    for m in [x, ln, q, k, v, scores, vh, head_out, cat, proj, hidden, ffn] {
        scratch.recycle(m);
    }
    (seq, pooled)
}

/// Encodes many token sequences in parallel with scoped threads (one
/// [`Scratch`] per worker). Results keep input order; `threads` is clamped
/// to the batch size.
pub fn encode_batch(
    t: &Transformer,
    store: &ParamStore,
    seqs: &[Vec<u32>],
    threads: usize,
) -> Vec<(Matrix, Matrix)> {
    crate::train::par_map_init(seqs, threads, Scratch::new, |scratch, s| {
        forward(t, store, s, None, scratch)
    })
}

/// The pre-optimization forward pass, kept verbatim as a test oracle and
/// perf baseline for [`forward`]: naive axpy row-matmuls with a fresh `Vec`
/// per row, element-wise `get()` accessors in the attention loops, and no
/// buffer reuse — the implementation every prediction ran through before the
/// blocked kernels and [`Scratch`] landed.
///
/// Produces bit-identical `(seq, pooled)` results to [`forward`].
///
/// # Panics
///
/// Panics if `mask` does not match the (truncated) token count.
pub fn encode_naive(
    t: &Transformer,
    store: &ParamStore,
    tokens: &[u32],
    mask: Option<&Matrix>,
) -> (Matrix, Matrix) {
    fn row_matmul(row: &[f32], w: &Matrix) -> Vec<f32> {
        let mut out = vec![0.0f32; w.cols()];
        for (k, &a) in row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out.iter_mut().zip(w.row(k)) {
                *o += a * b;
            }
        }
        out
    }
    fn layer_norm_row(row: &[f32], gain: &Matrix, bias: &Matrix) -> Vec<f32> {
        let n = row.len() as f32;
        let mean = row.iter().sum::<f32>() / n;
        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        let inv = 1.0 / (var + 1e-5).sqrt();
        row.iter()
            .enumerate()
            .map(|(c, &v)| (v - mean) * inv * gain.get(0, c) + bias.get(0, c))
            .collect()
    }

    let raw = t.raw();
    let cfg = raw.config;
    let n = tokens.len().min(cfg.max_len).max(1);
    let ids: Vec<usize> = tokens
        .iter()
        .take(n)
        .map(|&tok| clamp_token(tok, cfg.vocab_size))
        .collect();
    if let Some(m) = mask {
        assert_eq!(m.shape(), (ids.len(), ids.len()), "mask shape");
    }
    let mut x = Matrix::zeros(ids.len(), cfg.d_model);
    let tok_table = store.get(raw.tok_embed);
    let pos_table = store.get(raw.pos_embed);
    for (i, &id) in ids.iter().enumerate() {
        for c in 0..cfg.d_model {
            x.set(i, c, tok_table.get(id, c) + pos_table.get(i, c));
        }
    }
    let heads = cfg.n_heads;
    let hd = cfg.d_model / heads;
    let scale = 1.0 / (hd as f32).sqrt();
    for layer in raw.layers {
        let idsl = layer.ids();
        let (g1, b1) = (store.get(idsl.ln1_gain), store.get(idsl.ln1_bias));
        let (wq, wk, wv, wo) = (
            store.get(idsl.wq),
            store.get(idsl.wk),
            store.get(idsl.wv),
            store.get(idsl.wo),
        );
        let mut q = Matrix::zeros(ids.len(), cfg.d_model);
        let mut k = Matrix::zeros(ids.len(), cfg.d_model);
        let mut v = Matrix::zeros(ids.len(), cfg.d_model);
        for i in 0..ids.len() {
            let ln = layer_norm_row(x.row(i), g1, b1);
            q.row_mut(i).copy_from_slice(&row_matmul(&ln, wq));
            k.row_mut(i).copy_from_slice(&row_matmul(&ln, wk));
            v.row_mut(i).copy_from_slice(&row_matmul(&ln, wv));
        }
        let (g2, b2) = (store.get(idsl.ln2_gain), store.get(idsl.ln2_bias));
        let (w1, b1f) = (store.get(idsl.w1), store.get(idsl.b1));
        let (w2, b2f) = (store.get(idsl.w2), store.get(idsl.b2));
        let mut x_out = Matrix::zeros(ids.len(), cfg.d_model);
        for i in 0..ids.len() {
            let mut cat = vec![0.0f32; cfg.d_model];
            for h in 0..heads {
                let off = h * hd;
                let mut scores = vec![0.0f32; ids.len()];
                for (j, s) in scores.iter_mut().enumerate() {
                    let mut dot = 0.0f32;
                    for c in 0..hd {
                        dot += q.get(i, off + c) * k.get(j, off + c);
                    }
                    *s = match mask {
                        Some(m) => dot * scale + m.get(i, j),
                        None => dot * scale,
                    };
                }
                softmax_slice(&mut scores);
                for (j, &a) in scores.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    for c in 0..hd {
                        cat[off + c] += a * v.get(j, off + c);
                    }
                }
            }
            let proj = row_matmul(&cat, wo);
            let mut mid = vec![0.0f32; cfg.d_model];
            for c in 0..cfg.d_model {
                mid[c] = x.get(i, c) + proj[c];
            }
            let ln = layer_norm_row(&mid, g2, b2);
            let mut hrow = row_matmul(&ln, w1);
            for (c, hv) in hrow.iter_mut().enumerate() {
                *hv = (*hv + b1f.get(0, c)).max(0.0);
            }
            let out = row_matmul(&hrow, w2);
            for c in 0..cfg.d_model {
                x_out.set(i, c, mid[c] + (out[c] + b2f.get(0, c)));
            }
        }
        x = x_out;
    }
    let (fg, fb) = (store.get(raw.final_gain), store.get(raw.final_bias));
    let mut seq = Matrix::zeros(ids.len(), cfg.d_model);
    for i in 0..ids.len() {
        let ln = layer_norm_row(x.row(i), fg, fb);
        seq.row_mut(i).copy_from_slice(&ln);
    }
    let mut pooled = Matrix::zeros(1, cfg.d_model);
    for i in 0..ids.len() {
        for c in 0..cfg.d_model {
            pooled.set(0, c, pooled.get(0, c) + seq.get(i, c));
        }
    }
    pooled.scale_assign(1.0 / ids.len().max(1) as f32);
    (seq, pooled)
}

/// Encodes `tokens`, reusing `prev` where the mask proves rows unaffected.
///
/// `mask` is the same additive `n × n` matrix accepted by
/// [`Transformer::encode`]; `None` means full attention (every row depends on
/// every token, so any change invalidates everything).
///
/// Returns the new cache and the work statistics.
///
/// # Panics
///
/// Panics if `mask` does not match the (truncated) token count.
pub fn encode_cached(
    t: &Transformer,
    store: &ParamStore,
    tokens: &[u32],
    mask: Option<&Matrix>,
    prev: Option<&EncoderCache>,
) -> (EncoderCache, InferStats) {
    let mut scratch = Scratch::new();
    encode_cached_with(t, store, tokens, mask, prev, &mut scratch)
}

/// [`encode_cached`] with a caller-owned [`Scratch`], so repeated
/// incremental predictions (the design-space-exploration loop) allocate only
/// the returned cache matrices.
pub fn encode_cached_with(
    t: &Transformer,
    store: &ParamStore,
    tokens: &[u32],
    mask: Option<&Matrix>,
    prev: Option<&EncoderCache>,
    scratch: &mut Scratch,
) -> (EncoderCache, InferStats) {
    let raw = t.raw();
    let cfg = raw.config;
    let n = tokens.len().min(cfg.max_len).max(1);
    let ids: Vec<usize> = tokens
        .iter()
        .take(n)
        .map(|&tok| clamp_token(tok, cfg.vocab_size))
        .collect();
    if let Some(m) = mask {
        assert_eq!(m.shape(), (ids.len(), ids.len()), "mask shape");
    }

    // Which input rows changed relative to the cached run?
    let usable_prev =
        prev.filter(|p| p.tokens.len() == ids.len() && p.layers.len() == raw.layers.len());
    let mut changed: Vec<bool> = match usable_prev {
        Some(p) => ids
            .iter()
            .enumerate()
            .map(|(i, &id)| p.tokens[i] as usize != id)
            .collect(),
        None => vec![true; ids.len()],
    };

    let mut stats = InferStats {
        rows_computed: 0,
        rows_total: ids.len() * raw.layers.len(),
    };

    // ---- embeddings ----
    let tok_table = store.get(raw.tok_embed);
    let pos_table = store.get(raw.pos_embed);
    let mut x = match usable_prev {
        Some(p) => p.x0.clone(),
        None => Matrix::zeros(ids.len(), cfg.d_model),
    };
    for (i, &id) in ids.iter().enumerate() {
        if changed[i] {
            for ((o, &tv), &pv) in x
                .row_mut(i)
                .iter_mut()
                .zip(tok_table.row(id))
                .zip(pos_table.row(i))
            {
                *o = tv + pv;
            }
        }
    }
    let x0 = x.clone();

    // ---- row-loop scratch buffers (reused across rows and layers) ----
    let d = cfg.d_model;
    let mut ln_buf = scratch.row(d);
    let mut cat_buf = scratch.row(d);
    let mut mid_buf = scratch.row(d);
    let mut proj_buf = scratch.row(d);
    let mut hid_buf = scratch.row(cfg.d_ff);
    let mut out_buf = scratch.row(d);
    let mut score_buf = scratch.row(ids.len());
    let mut weight_buf = scratch.row(ids.len());

    // ---- layers ----
    let heads = cfg.n_heads;
    let hd = cfg.d_model / heads;
    let mut layer_caches = Vec::with_capacity(raw.layers.len());
    for (li, layer) in raw.layers.iter().enumerate() {
        let idsl = layer.ids();
        let prev_layer = usable_prev.map(|p| &p.layers[li]);
        let (g1, b1) = (store.get(idsl.ln1_gain), store.get(idsl.ln1_bias));
        let (wq, wk, wv, wo) = (
            store.get(idsl.wq),
            store.get(idsl.wk),
            store.get(idsl.wv),
            store.get(idsl.wo),
        );

        // q/k/v rows: recompute only changed rows.
        let (mut q, mut k, mut v) = match prev_layer {
            Some(pl) => (pl.q.clone(), pl.k.clone(), pl.v.clone()),
            None => (
                Matrix::zeros(ids.len(), cfg.d_model),
                Matrix::zeros(ids.len(), cfg.d_model),
                Matrix::zeros(ids.len(), cfg.d_model),
            ),
        };
        for i in 0..ids.len() {
            if changed[i] {
                layer_norm_row_into(x.row(i), g1, b1, &mut ln_buf);
                row_matmul_into(&ln_buf, wq, q.row_mut(i));
                row_matmul_into(&ln_buf, wk, k.row_mut(i));
                row_matmul_into(&ln_buf, wv, v.row_mut(i));
            }
        }

        // Which output rows change? Row i changes if its own input changed,
        // or it attends (per mask) to any changed row j.
        let mut changed_out = vec![false; ids.len()];
        for i in 0..ids.len() {
            if changed[i] {
                changed_out[i] = true;
                continue;
            }
            let attends_changed = (0..ids.len())
                .any(|j| changed[j] && mask.map(|m| m.get(i, j) > MASK_BLOCKED).unwrap_or(true));
            if attends_changed {
                changed_out[i] = true;
            }
        }

        let (g2, b2) = (store.get(idsl.ln2_gain), store.get(idsl.ln2_bias));
        let (w1, b1f) = (store.get(idsl.w1), store.get(idsl.b1));
        let (w2, b2f) = (store.get(idsl.w2), store.get(idsl.b2));
        let mut x_out = match prev_layer {
            Some(pl) => pl.x_out.clone(),
            None => Matrix::zeros(ids.len(), cfg.d_model),
        };
        let scale = 1.0 / (hd as f32).sqrt();
        for i in 0..ids.len() {
            if !changed_out[i] {
                continue;
            }
            stats.rows_computed += 1;
            // Multi-head attention for row i.
            cat_buf.fill(0.0);
            for h in 0..heads {
                let off = h * hd;
                // scores over all j
                score_buf.fill(f32::NEG_INFINITY);
                for (j, s) in score_buf.iter_mut().enumerate() {
                    let allowed = mask.map(|m| m.get(i, j) > MASK_BLOCKED).unwrap_or(true);
                    if !allowed {
                        continue;
                    }
                    let qr = &q.row(i)[off..off + hd];
                    let kr = &k.row(j)[off..off + hd];
                    let mut dot = 0.0f32;
                    for (&qv, &kv) in qr.iter().zip(kr) {
                        dot += qv * kv;
                    }
                    *s = dot * scale + mask.map(|m| m.get(i, j)).unwrap_or(0.0);
                }
                // softmax
                let max = score_buf.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let mut denom = 0.0f32;
                weight_buf.fill(0.0);
                if max.is_finite() {
                    for (w, &s) in weight_buf.iter_mut().zip(&score_buf) {
                        if s.is_finite() {
                            *w = (s - max).exp();
                            denom += *w;
                        }
                    }
                } else {
                    // fully-masked row: uniform (matches tape softmax)
                    weight_buf.iter_mut().for_each(|w| *w = 1.0);
                    denom = ids.len() as f32;
                }
                let inv = 1.0 / denom.max(1e-12);
                for (j, &w) in weight_buf.iter().enumerate() {
                    if w == 0.0 {
                        continue;
                    }
                    let a = w * inv;
                    let vr = &v.row(j)[off..off + hd];
                    let cr = &mut cat_buf[off..off + hd];
                    for (o, &vv) in cr.iter_mut().zip(vr) {
                        *o += a * vv;
                    }
                }
            }
            row_matmul_into(&cat_buf, wo, &mut proj_buf);
            for ((m, &xv), &pv) in mid_buf.iter_mut().zip(x.row(i)).zip(&proj_buf) {
                *m = xv + pv;
            }
            // FFN
            layer_norm_row_into(&mid_buf, g2, b2, &mut ln_buf);
            row_matmul_into(&ln_buf, w1, &mut hid_buf);
            for (hv, &bv) in hid_buf.iter_mut().zip(b1f.row(0)) {
                *hv = (*hv + bv).max(0.0);
            }
            row_matmul_into(&hid_buf, w2, &mut out_buf);
            for (((o, &mv), &hv), &bv) in x_out
                .row_mut(i)
                .iter_mut()
                .zip(&mid_buf)
                .zip(&out_buf)
                .zip(b2f.row(0))
            {
                // Same association as the tape: mid + (ffn + b2).
                *o = mv + (hv + bv);
            }
        }
        layer_caches.push(LayerCache {
            q,
            k,
            v,
            x_out: x_out.clone(),
        });
        x = x_out;
        changed = changed_out;
    }

    // ---- final layer norm + pooling ----
    let (fg, fb) = (store.get(raw.final_gain), store.get(raw.final_bias));
    let mut seq = match usable_prev {
        Some(p) => p.seq.clone(),
        None => Matrix::zeros(ids.len(), cfg.d_model),
    };
    for i in 0..ids.len() {
        if changed[i] || usable_prev.is_none() {
            layer_norm_row_into(x.row(i), fg, fb, seq.row_mut(i));
        }
    }
    let mut pooled = Matrix::zeros(1, cfg.d_model);
    for i in 0..ids.len() {
        for (o, &sv) in pooled.row_mut(0).iter_mut().zip(seq.row(i)) {
            *o += sv;
        }
    }
    pooled.scale_assign(1.0 / ids.len().max(1) as f32);

    for buf in [
        ln_buf, cat_buf, mid_buf, proj_buf, hid_buf, out_buf, score_buf, weight_buf,
    ] {
        scratch.recycle_row(buf);
    }

    let cache = EncoderCache {
        tokens: ids.iter().map(|&i| i as u32).collect(),
        x0,
        layers: layer_caches,
        seq,
        pooled,
    };
    (cache, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::transformer::TransformerConfig;

    fn setup() -> (Transformer, ParamStore) {
        let mut store = ParamStore::new();
        let t = Transformer::new(TransformerConfig::tiny(64), &mut store, 11);
        (t, store)
    }

    fn close(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn cached_full_pass_matches_tape_forward() {
        let (t, store) = setup();
        let tokens = [3u32, 9, 1, 22, 7, 4];
        let mut g = Graph::new();
        let out = t.encode(&mut g, &store, &tokens, None);
        let (cache, stats) = encode_cached(&t, &store, &tokens, None, None);
        assert!(close(g.value(out.seq), &cache.seq, 1e-4));
        assert!(close(g.value(out.pooled), &cache.pooled, 1e-4));
        assert_eq!(stats.rows_computed, stats.rows_total);
    }

    #[test]
    fn forward_is_bit_identical_to_tape() {
        let (t, store) = setup();
        let tokens = [3u32, 9, 1, 22, 7, 4, 13, 2];
        let mut g = Graph::new();
        let out = t.encode(&mut g, &store, &tokens, None);
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward(&t, &store, &tokens, None, &mut scratch);
        assert_eq!(g.value(out.seq).data(), seq.data(), "seq drifted");
        assert_eq!(g.value(out.pooled).data(), pooled.data(), "pooled drifted");
    }

    #[test]
    fn forward_is_bit_identical_to_tape_with_mask() {
        let (t, store) = setup();
        let tokens = [3u32, 9, 1, 22, 7];
        let mask = Matrix::from_fn(5, 5, |r, c| if (r + c) % 3 == 0 { -1e9 } else { 0.0 });
        let mut g = Graph::new();
        let out = t.encode(&mut g, &store, &tokens, Some(&mask));
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward(&t, &store, &tokens, Some(&mask), &mut scratch);
        assert_eq!(g.value(out.seq).data(), seq.data(), "masked seq drifted");
        assert_eq!(g.value(out.pooled).data(), pooled.data());
    }

    #[test]
    fn naive_oracle_is_bit_identical_to_forward() {
        let (t, store) = setup();
        let tokens = [3u32, 9, 1, 22, 7, 4, 13];
        let mut scratch = Scratch::new();
        for mask in [
            None,
            Some(Matrix::from_fn(7, 7, |r, c| {
                if r.abs_diff(c) > 2 {
                    -1e9
                } else {
                    0.0
                }
            })),
        ] {
            let (ns, np) = encode_naive(&t, &store, &tokens, mask.as_ref());
            let (fs, fp) = forward(&t, &store, &tokens, mask.as_ref(), &mut scratch);
            assert_eq!(ns.data(), fs.data(), "seq (mask={})", mask.is_some());
            assert_eq!(np.data(), fp.data(), "pooled (mask={})", mask.is_some());
        }
    }

    #[test]
    fn fresh_cached_pass_is_bit_identical_to_forward() {
        let (t, store) = setup();
        let tokens = [5u32, 6, 7, 8, 9];
        let (cache, _) = encode_cached(&t, &store, &tokens, None, None);
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward(&t, &store, &tokens, None, &mut scratch);
        assert_eq!(cache.seq.data(), seq.data());
        assert_eq!(cache.pooled.data(), pooled.data());
    }

    #[test]
    fn forward_reuses_scratch_allocations() {
        let (t, store) = setup();
        let tokens = [1u32, 2, 3, 4];
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward(&t, &store, &tokens, None, &mut scratch);
        scratch.recycle(seq);
        scratch.recycle(pooled);
        let before = scratch.pooled();
        let (seq, pooled) = forward(&t, &store, &tokens, None, &mut scratch);
        scratch.recycle(seq);
        scratch.recycle(pooled);
        assert_eq!(scratch.pooled(), before, "steady state pools buffers");
    }

    #[test]
    fn encode_batch_matches_serial_forward_any_thread_count() {
        let (t, store) = setup();
        let seqs: Vec<Vec<u32>> = (0..7)
            .map(|i| (0..5).map(|j| (i * 5 + j) as u32 % 40).collect())
            .collect();
        let mut scratch = Scratch::new();
        let serial: Vec<_> = seqs
            .iter()
            .map(|s| forward(&t, &store, s, None, &mut scratch))
            .collect();
        for threads in [1, 2, 4, 9] {
            let batch = encode_batch(&t, &store, &seqs, threads);
            assert_eq!(batch.len(), serial.len());
            for ((bs, bp), (ss, sp)) in batch.iter().zip(&serial) {
                assert_eq!(bs.data(), ss.data(), "threads={threads}");
                assert_eq!(bp.data(), sp.data(), "threads={threads}");
            }
        }
    }

    #[test]
    fn forward_packed_is_bit_identical_to_forward_any_group_size() {
        let (t, store) = setup();
        let d = t.config().d_model;
        for group in [1usize, 2, 3, 5, 8] {
            let seqs: Vec<Vec<u32>> = (0..group)
                .map(|s| (0..6).map(|j| ((s * 13 + j * 7) % 40) as u32).collect())
                .collect();
            let refs: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
            let mut scratch = Scratch::new();
            let (seq, pooled) = forward_packed(&t, &store, &refs, &mut scratch);
            assert_eq!(seq.shape(), (group * 6, d));
            assert_eq!(pooled.shape(), (group, d));
            for (s, tokens) in seqs.iter().enumerate() {
                let (es, ep) = forward(&t, &store, tokens, None, &mut scratch);
                for i in 0..6 {
                    assert_eq!(
                        seq.row(s * 6 + i),
                        es.row(i),
                        "group={group} sample={s} row={i}"
                    );
                }
                assert_eq!(pooled.row(s), ep.row(0), "group={group} sample={s}");
                scratch.recycle(es);
                scratch.recycle(ep);
            }
        }
    }

    #[test]
    fn forward_packed_truncates_like_forward() {
        let (t, store) = setup();
        // Longer than max_len (32): both sequences truncate to the same
        // effective length and pack together.
        let long: Vec<u32> = (0..50).map(|i| i % 30).collect();
        let longer: Vec<u32> = (0..64).map(|i| (i * 3) % 30).collect();
        let refs: Vec<&[u32]> = vec![&long, &longer];
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward_packed(&t, &store, &refs, &mut scratch);
        assert_eq!(seq.rows(), 2 * 32);
        for (s, tokens) in [&long, &longer].iter().enumerate() {
            let (_, ep) = forward(&t, &store, tokens, None, &mut scratch);
            assert_eq!(pooled.row(s), ep.row(0), "sample {s}");
        }
    }

    #[test]
    fn forward_packed_handles_empty_sequences() {
        let (t, store) = setup();
        let refs: Vec<&[u32]> = vec![&[], &[]];
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward_packed(&t, &store, &refs, &mut scratch);
        assert_eq!(seq.rows(), 0);
        assert_eq!(pooled.shape(), (2, t.config().d_model));
        let (_, ep) = forward(&t, &store, &[], None, &mut scratch);
        for s in 0..2 {
            assert_eq!(pooled.row(s), ep.row(0), "empty sample {s}");
        }
    }

    #[test]
    #[should_panic(expected = "equal effective lengths")]
    fn forward_packed_rejects_mixed_lengths() {
        let (t, store) = setup();
        let refs: Vec<&[u32]> = vec![&[1, 2, 3], &[1, 2]];
        let mut scratch = Scratch::new();
        let _ = forward_packed(&t, &store, &refs, &mut scratch);
    }

    #[test]
    fn forward_packed_clamps_out_of_vocab_tokens() {
        let (t, store) = setup();
        let vocab = t.config().vocab_size as u32;
        let wild: Vec<u32> = vec![3, 9_999_999, 1, u32::MAX];
        let clamped: Vec<u32> = wild.iter().map(|&x| x.min(vocab - 1)).collect();
        let mut scratch = Scratch::new();
        let (_, wild_pooled) = forward_packed(&t, &store, &[&wild], &mut scratch);
        let (_, clamped_pooled) = forward_packed(&t, &store, &[&clamped], &mut scratch);
        assert_eq!(wild_pooled.data(), clamped_pooled.data());
    }

    #[test]
    fn forward_packed_reuses_scratch_allocations() {
        let (t, store) = setup();
        let seqs: Vec<Vec<u32>> = (0..4).map(|s| vec![s as u32 + 1; 5]).collect();
        let refs: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward_packed(&t, &store, &refs, &mut scratch);
        scratch.recycle(seq);
        scratch.recycle(pooled);
        let before = scratch.pooled();
        let (seq, pooled) = forward_packed(&t, &store, &refs, &mut scratch);
        scratch.recycle(seq);
        scratch.recycle(pooled);
        assert_eq!(scratch.pooled(), before, "steady state pools buffers");
    }

    #[test]
    fn cached_pass_matches_with_mask() {
        let (t, store) = setup();
        let tokens = [3u32, 9, 1, 22];
        let mask = Matrix::from_fn(4, 4, |r, c| if (r + c) % 2 == 0 { 0.0 } else { -1e9 });
        let mut g = Graph::new();
        let out = t.encode(&mut g, &store, &tokens, Some(&mask));
        let (cache, _) = encode_cached(&t, &store, &tokens, Some(&mask), None);
        assert!(close(g.value(out.seq), &cache.seq, 1e-4));
    }

    #[test]
    fn unchanged_rerun_computes_nothing() {
        let (t, store) = setup();
        let tokens = [5u32, 6, 7];
        let (cache, _) = encode_cached(&t, &store, &tokens, None, None);
        let (cache2, stats) = encode_cached(&t, &store, &tokens, None, Some(&cache));
        assert_eq!(stats.rows_computed, 0);
        assert!(close(&cache.seq, &cache2.seq, 1e-6));
    }

    #[test]
    fn masked_change_recomputes_only_reachable_rows() {
        let (t, store) = setup();
        // Two isolated blocks of two tokens: {0,1} and {2,3}.
        let mask = Matrix::from_fn(4, 4, |r, c| if (r < 2) == (c < 2) { 0.0 } else { -1e9 });
        let a = [1u32, 2, 3, 4];
        let mut b = a;
        b[3] = 9; // change inside the second block
        let (cache, _) = encode_cached(&t, &store, &a, Some(&mask), None);
        let (cache_b, stats) = encode_cached(&t, &store, &b, Some(&mask), Some(&cache));
        // Only rows 2 & 3 per layer should recompute.
        assert_eq!(stats.rows_computed, 2 * t.config().n_layers);
        // Block {0,1} outputs identical; block {2,3} differs.
        for i in 0..2 {
            for c in 0..t.config().d_model {
                assert!((cache.seq.get(i, c) - cache_b.seq.get(i, c)).abs() < 1e-6);
            }
        }
        let diff: f32 = (2..4)
            .map(|i| {
                (0..t.config().d_model)
                    .map(|c| (cache.seq.get(i, c) - cache_b.seq.get(i, c)).abs())
                    .sum::<f32>()
            })
            .sum();
        assert!(diff > 1e-5);
    }

    #[test]
    fn incremental_equals_fresh_computation() {
        let (t, store) = setup();
        let mask = Matrix::from_fn(6, 6, |r, c| if r.abs_diff(c) <= 1 { 0.0 } else { -1e9 });
        let a = [1u32, 2, 3, 4, 5, 6];
        let mut b = a;
        b[0] = 8;
        let (cache_a, _) = encode_cached(&t, &store, &a, Some(&mask), None);
        let (incremental, stats) = encode_cached(&t, &store, &b, Some(&mask), Some(&cache_a));
        let (fresh, _) = encode_cached(&t, &store, &b, Some(&mask), None);
        assert!(
            close(&incremental.seq, &fresh.seq, 1e-4),
            "incremental must equal fresh"
        );
        assert!(stats.rows_computed < stats.rows_total, "must save work");
    }

    #[test]
    fn savings_fraction_is_sane() {
        let s = InferStats {
            rows_computed: 3,
            rows_total: 12,
        };
        assert!((s.savings() - 0.75).abs() < 1e-12);
        assert_eq!(InferStats::default().savings(), 0.0);
    }
}
