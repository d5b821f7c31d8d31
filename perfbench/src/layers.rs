//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer's public functions.
//!
//! A layer the workload's own traffic reaches is measured on that traffic;
//! a layer it does not reach is measured on the workload the layer map in
//! `BENCHMARK.json` names for it, at the same seed, so every traced run
//! reports every per-layer metric. The report names the source of each.
//! The run also measures the tracing overhead on the workload's own `low`
//! phase (see [`own_phase`]).

use crate::inproc::{self, CalibLoop, SweepLoop};
use crate::inputs::{self, DesignPoint};
use crate::serve::{self, RequestPool, Served};
use crate::stats::{mean, median, Report};
use crate::trace::{dur_ms, Tracer};
use crate::{Ctx, Outcome, Workload};
use llmulator::{
    EngineConfig, NumericPredictor, PoolConfig, PredictRequest, Sample, SegmentedText, ServeJob,
    ServePool,
};
use llmulator_nn::{Scratch, TransformerConfig};
use llmulator_sim::Metric;
use rand::prelude::*;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Layers of the map, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Cli,
    Pool,
    Engine,
    Ir,
    Token,
    Nn,
    Decode,
    Calib,
    Sim,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Cli,
        Layer::Pool,
        Layer::Engine,
        Layer::Ir,
        Layer::Token,
        Layer::Nn,
        Layer::Decode,
        Layer::Calib,
        Layer::Sim,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Cli => "cli (net/serve)",
            Layer::Pool => "core::serve_pool",
            Layer::Engine => "core::engine",
            Layer::Ir => "ir",
            Layer::Token => "token",
            Layer::Nn => "nn (inference)",
            Layer::Decode => "core::numeric decode",
            Layer::Calib => "core::calibrate + nn::graph",
            Layer::Sim => "hls / sim",
        }
    }

    /// Whether `w`'s own traffic passes through this layer.
    fn reached_by(self, w: Workload) -> bool {
        use Workload::*;
        match self {
            Layer::Cli | Layer::Pool | Layer::Engine => {
                matches!(w, ServePrograms | ServeShortChurn)
            }
            Layer::Ir => matches!(w, ServePrograms | CalibrateAdaptive | ProfileSweep),
            Layer::Token => matches!(w, ServePrograms | CalibrateAdaptive),
            Layer::Nn | Layer::Decode => {
                matches!(w, ServePrograms | ServeShortChurn | CalibrateAdaptive)
            }
            Layer::Calib => w == CalibrateAdaptive,
            Layer::Sim => matches!(w, CalibrateAdaptive | ProfileSweep),
        }
    }

    /// The workload a layer is measured on when the traced workload does
    /// not reach it.
    fn primary(self) -> Workload {
        match self {
            Layer::Cli | Layer::Decode => Workload::ServeShortChurn,
            Layer::Pool | Layer::Engine | Layer::Ir | Layer::Token | Layer::Nn => {
                Workload::ServePrograms
            }
            Layer::Calib => Workload::CalibrateAdaptive,
            Layer::Sim => Workload::ProfileSweep,
        }
    }

    pub fn source(self, w: Workload) -> Workload {
        if self.reached_by(w) {
            w
        } else {
            self.primary()
        }
    }
}

/// Token sequences of one source, with the model that serves them.
struct SeqSet<'m> {
    model: &'m NumericPredictor,
    seqs: Vec<Vec<u32>>,
}

/// Everything the traced run built, shared by the layer probes.
struct Traced<'a> {
    ctx: &'a Ctx,
    w: Workload,
    tracer: &'a Tracer,
    served: &'a Served,
    static_model: &'a NumericPredictor,
    pools: Vec<(Workload, RequestPool)>,
    calib: CalibLoop,
    sweep: Vec<DesignPoint>,
    report: Report,
}

impl Traced<'_> {
    fn pool(&self, w: Workload) -> &RequestPool {
        &self
            .pools
            .iter()
            .find(|(pw, _)| *pw == w)
            .expect("request pools built for both serving workloads")
            .1
    }

    /// Token sequences of `source` as its model sees them.
    fn seqs(&self, source: Workload) -> SeqSet<'_> {
        match source {
            Workload::CalibrateAdaptive => SeqSet {
                model: self.static_model,
                seqs: self
                    .calib
                    .window_points
                    .iter()
                    .map(|p| {
                        let s = Sample::profile(&p.program, Some(&p.data))
                            .expect("sweep points profiled before");
                        self.static_model.tokenize_sample(&s).tokens
                    })
                    .collect(),
            },
            w => SeqSet {
                model: &self.served.predictor,
                seqs: self.pool(w).seqs.clone(),
            },
        }
    }

    /// Programs (with bindings) of `source`.
    fn programs(&self, source: Workload) -> Vec<DesignPoint> {
        match source {
            Workload::CalibrateAdaptive => self.calib.window_points.clone(),
            Workload::ProfileSweep => self.sweep.clone(),
            _ => self
                .pool(Workload::ServePrograms)
                .sources
                .iter()
                .map(|(src, data)| DesignPoint {
                    name: "serve-program".into(),
                    program: llmulator_ir::parse::parse_program(src)
                        .expect("rendered programs parse"),
                    data: data.clone(),
                })
                .collect(),
        }
    }

    fn median_of(&self, span: &str, scale: f64) -> f64 {
        median(&self.tracer.durations_ms(span)) * scale
    }
}

/// Length of each single serving level the traced run drives.
fn rung_s(ctx: &Ctx) -> f64 {
    ctx.seconds / 4.0
}

/// Runs the traced run of `w`.
pub fn run(ctx: &Ctx, w: Workload) -> Result<Outcome, String> {
    let origin = Instant::now();
    let tracer = Tracer::new(true, origin);
    let served = serve::set_up(ctx, 1)?;
    let static_model = inputs::train_static_model()?;
    let pools = [Workload::ServePrograms, Workload::ServeShortChurn]
        .into_iter()
        .map(|pw| (pw, serve::request_pool(pw, ctx.seed, &served.predictor)))
        .collect();
    let mut out = Outcome::default();
    let mut t = Traced {
        ctx,
        w,
        tracer: &tracer,
        served: &served,
        static_model: &static_model,
        pools,
        calib: CalibLoop::new(&static_model, ctx.seed, 0),
        sweep: inproc::sweep_programs(ctx.seed)?,
        report: Report::default(),
    };

    // The workload's own low phase, and the tracing overhead.
    let cli_done = own_phase(&mut t, &mut out)?;

    for layer in Layer::ALL {
        let source = layer.source(w);
        out.notes.push(format!(
            "{:<28} measured on {}",
            layer.name(),
            source.name()
        ));
        match layer {
            Layer::Cli if cli_done => {}
            Layer::Cli => cli_probe(&mut t, source, &mut out)?,
            Layer::Pool => pool_probe(&mut t, source)?,
            Layer::Engine => engine_probe(&mut t, source)?,
            Layer::Ir => ir_probe(&mut t, source),
            Layer::Token => token_probe(&mut t, source),
            Layer::Nn => nn_probe(&mut t, source),
            Layer::Decode => decode_probe(&mut t, source),
            Layer::Calib => calib_probe(&mut t, &mut out),
            Layer::Sim => sim_probe(&mut t, source),
        }
    }
    let queue_wait = t.report.get("pool.service_p50_ms").unwrap_or(f64::NAN)
        - t.report.get("engine.predict_ms").unwrap_or(f64::NAN);
    t.report.put("pool.queue_wait_est_ms", queue_wait, "ms");

    let path = ctx
        .out_dir
        .join(format!("trace-{}-seed{}.json", w.name(), ctx.seed));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    for (name, (n, total, own)) in tracer.self_times() {
        out.notes.push(format!(
            "span {name:<22} n={n:<6} total {:>10.3} ms  self {:>10.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    out.report = std::mem::take(&mut t.report);
    out.model_hash = serve::model_hash(&served.model_path)?;
    out.daemon_flags = served.daemon.flags.join(" ");
    let stats = served.daemon.stats()?;
    served.daemon.drain(&stats)?;
    Ok(out)
}

/// The traced workload's own `low` phase and the tracing overhead. An
/// in-process workload runs the phase untraced and then traced; the
/// overhead is the difference of the op medians. The serving path runs no
/// tracing code while requests are in flight (the client's timestamps
/// become spans afterwards), so a serving workload runs the phase once,
/// records it as the `cli` layer, and the overhead is the time that
/// recording took per request. Returns whether the `cli` layer is done.
fn own_phase(t: &mut Traced<'_>, out: &mut Outcome) -> Result<bool, String> {
    let ctx = t.ctx;
    let (overhead_ms, note) = match t.w {
        Workload::ServePrograms | Workload::ServeShortChurn => {
            let spec = serve::spec(t.w);
            let pool = t.pool(t.w);
            let mut rng = StdRng::seed_from_u64(ctx.seed);
            let level = serve::run_level(
                &t.served.daemon.addr,
                pool,
                &spec,
                spec.low,
                rung_s(ctx),
                &mut rng,
            );
            let stats = t.served.daemon.stats()?;
            serve::check(t.served, pool, &[&level], &stats, &mut out.gates);
            out.attempted += level.answers.len() as u64;
            out.failed += level.failed();
            let t0 = Instant::now();
            serve::cli_layer(&level, &stats, t.tracer, &mut t.report);
            let per_req = dur_ms(t0.elapsed()) / level.answers.len().max(1) as f64;
            let note = format!(
                "tracing overhead: recording {} requests' spans took {per_req:.6} ms per request",
                level.answers.len()
            );
            (per_req, note)
        }
        Workload::CalibrateAdaptive => {
            let origin = Instant::now();
            let plain = CalibLoop::new(t.static_model, ctx.seed, 0);
            let (p0, _, _) = inproc::closed_loop(0.0, true, false, origin, vec![plain]);
            let traced = CalibLoop::new(t.static_model, ctx.seed, 0);
            let (p1, mut loops, tr) = inproc::closed_loop(0.0, true, true, origin, vec![traced]);
            t.tracer.absorb(tr);
            t.calib = loops.pop().expect("one loop");
            out.attempted = (p0.lat_ms.len() + p1.lat_ms.len()) as u64;
            out.failed = p0.failed + p1.failed;
            op_overhead(&p0, &p1)
        }
        Workload::ProfileSweep => {
            let origin = Instant::now();
            let sweep = &t.sweep;
            let (p0, _, _) = inproc::closed_loop(
                0.0,
                true,
                false,
                origin,
                vec![SweepLoop::new(sweep, ctx.seed, 0)],
            );
            let (p1, loops, tr) = inproc::closed_loop(
                0.0,
                true,
                true,
                origin,
                vec![SweepLoop::new(sweep, ctx.seed, 0)],
            );
            t.tracer.absorb(tr);
            inproc::check_sweep(sweep, &loops, &mut out.gates);
            out.attempted = (p0.lat_ms.len() + p1.lat_ms.len()) as u64;
            out.failed = p0.failed + p1.failed;
            op_overhead(&p0, &p1)
        }
    };
    t.report.put("trace.overhead_ms", overhead_ms, "ms");
    out.notes.push(note);
    Ok(matches!(
        t.w,
        Workload::ServePrograms | Workload::ServeShortChurn
    ))
}

/// Traced minus untraced op median, with its note.
fn op_overhead(untraced: &inproc::Phase, traced: &inproc::Phase) -> (f64, String) {
    let (u, tr) = (median(&untraced.lat_ms), median(&traced.lat_ms));
    let note = format!(
        "tracing overhead: traced op p50 {tr:.4} ms - untraced {u:.4} ms = {:.4} ms",
        tr - u
    );
    (tr - u, note)
}

fn cli_probe(t: &mut Traced<'_>, source: Workload, out: &mut Outcome) -> Result<(), String> {
    let spec = serve::spec(source);
    let daemon = serve::boot_again(t.ctx, t.served, "cli")?;
    let mut rng = StdRng::seed_from_u64(t.ctx.seed);
    let pool = t.pool(source);
    let level = serve::run_level(&daemon.addr, pool, &spec, spec.low, rung_s(t.ctx), &mut rng);
    let stats = daemon.stats()?;
    serve::check(t.served, pool, &[&level], &stats, &mut out.gates);
    out.attempted += level.answers.len() as u64;
    out.failed += level.failed();
    daemon.drain(&stats)?;
    serve::cli_layer(&level, &stats, t.tracer, &mut t.report);
    Ok(())
}

/// Replays the source's low-rate schedule through an in-process
/// `ServePool` (two workers, the daemon's defaults otherwise).
fn pool_probe(t: &mut Traced<'_>, source: Workload) -> Result<(), String> {
    let engine = EngineConfig::new().build();
    engine
        .load_predictor("default", &t.served.model_path)
        .map_err(|e| e.to_string())?;
    let pool_cfg = PoolConfig {
        workers: crate::daemon::WORKERS,
        ..PoolConfig::default()
    };
    let requests = &t.pool(source).requests;
    let spec = serve::spec(source);
    let mut rng = StdRng::seed_from_u64(t.ctx.seed);
    let schedule = inputs::paced_schedule(&mut rng, spec.low, rung_s(t.ctx), requests.len());
    let pool = ServePool::start(Arc::new(engine), pool_cfg);
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    for (i, a) in schedule.iter().enumerate() {
        if let Some(wait) = (start + a.due).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let tx = tx.clone();
        let submitted = Instant::now();
        pool.submit(ServeJob::new(requests[a.item].clone(), move |result, _| {
            let _ = tx.send((i, submitted, Instant::now(), result.is_ok()));
        }));
    }
    drop(tx);
    let stats = pool.drain();
    let mut service = Vec::new();
    for (i, submitted, done, ok) in rx {
        t.tracer
            .record("pool.service", i as u64, submitted, done, None);
        if ok {
            service.push(dur_ms(done - submitted));
        }
    }
    if stats.served as usize != schedule.len() {
        return Err(format!(
            "pool replay served {} of {}",
            stats.served,
            schedule.len()
        ));
    }
    t.report.put("pool.service_p50_ms", median(&service), "ms");
    Ok(())
}

fn engine_probe(t: &mut Traced<'_>, source: Workload) -> Result<(), String> {
    let engine = EngineConfig::new().build();
    engine
        .load_predictor("default", &t.served.model_path)
        .map_err(|e| e.to_string())?;
    let mut session = engine.session();
    let requests: Vec<PredictRequest> = t.pool(source).requests.clone();
    for (i, r) in requests.iter().enumerate() {
        t.tracer
            .span("engine.predict", i as u64, || session.predict(r))
            .map_err(|e| e.to_string())?;
    }
    t.report.put(
        "engine.predict_ms",
        t.median_of("engine.predict", 1.0),
        "ms",
    );
    for (size, span, metric) in [
        (
            4usize,
            "engine.microbatch4",
            "engine.microbatch4_ms_per_req",
        ),
        (16, "engine.microbatch16", "engine.microbatch16_ms_per_req"),
    ] {
        for (i, chunk) in requests
            .chunks(size)
            .filter(|c| c.len() == size)
            .enumerate()
        {
            let answers = t
                .tracer
                .span(span, i as u64, || session.predict_micro_batch(chunk));
            if answers.iter().any(Result::is_err) {
                return Err(format!("{span}: a micro-batched request failed"));
            }
        }
        t.report
            .put(metric, t.median_of(span, 1.0 / size as f64), "ms");
    }
    Ok(())
}

fn ir_probe(t: &mut Traced<'_>, source: Workload) {
    let programs = t.programs(source);
    for (i, p) in programs.iter().enumerate() {
        let text = llmulator_ir::render::render_program(&p.program);
        let parsed = t.tracer.span("ir.parse", i as u64, || {
            llmulator_ir::parse::parse_program(&text)
        });
        std::hint::black_box(parsed.is_ok());
        std::hint::black_box(t.tracer.span("ir.taint", i as u64, || {
            llmulator_ir::analyze_program_taint(&p.program)
        }));
    }
    t.report
        .put("ir.parse_us", t.median_of("ir.parse", 1e3), "us");
    t.report
        .put("ir.taint_us", t.median_of("ir.taint", 1e3), "us");
}

fn token_probe(t: &mut Traced<'_>, source: Workload) {
    let model = if source == Workload::CalibrateAdaptive {
        t.static_model
    } else {
        &t.served.predictor
    };
    let mut lens = Vec::new();
    for (i, p) in t.programs(source).iter().enumerate() {
        let text = SegmentedText::from_program(&p.program, Some(&p.data), None);
        let tp = t.tracer.span("token.tokenize", i as u64, || {
            text.tokenize(model.tokenizer(), model.config().max_len)
        });
        lens.push(tp.tokens.len() as f64);
    }
    t.tracer
        .count("token.tokens", lens.iter().sum::<f64>() as u64);
    t.report.put(
        "token.tokenize_us",
        t.median_of("token.tokenize", 1e3),
        "us",
    );
    t.report.put("token.tokens_per_req", mean(&lens), "count");
}

/// Analytic FLOPs of one forward pass plus the four metric heads over `n`
/// tokens (the formula bench-runner's `forward_flops` uses).
fn forward_flops(cfg: &TransformerConfig, n: usize, head_out: usize) -> f64 {
    let (nf, d, dff) = (n as f64, cfg.d_model as f64, cfg.d_ff as f64);
    let per_layer = 8.0 * nf * d * d + 4.0 * nf * nf * d + 4.0 * nf * d * dff;
    cfg.n_layers as f64 * per_layer + 8.0 * d * head_out as f64
}

fn nn_probe(t: &mut Traced<'_>, source: Workload) {
    let tracer = t.tracer;
    let set = t.seqs(source);
    let cfg = *set.model.encoder().config();
    let codec = set.model.config().codec;
    let head_out = codec.width * codec.base as usize;
    let mut scratch = Scratch::new();
    let mut flops = Vec::new();
    for (i, s) in set.seqs.iter().enumerate() {
        let (seq, pooled) = tracer.span("nn.forward", i as u64, || {
            llmulator_nn::forward(
                set.model.encoder(),
                set.model.store(),
                s,
                None,
                &mut scratch,
            )
        });
        scratch.recycle(seq);
        scratch.recycle(pooled);
        flops.push(forward_flops(&cfg, cfg.effective_len(s.len()), head_out));
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<&[u32]>> = Default::default();
    for s in &set.seqs {
        groups
            .entry(cfg.effective_len(s.len()))
            .or_default()
            .push(s);
    }
    for (len, group) in &groups {
        let (seq, pooled) = tracer.span("nn.forward_packed", *len as u64, || {
            llmulator_nn::forward_packed(
                set.model.encoder(),
                set.model.store(),
                group,
                &mut scratch,
            )
        });
        scratch.recycle(seq);
        scratch.recycle(pooled);
    }
    let n = set.seqs.len() as f64;
    drop(set);
    let forward_ms = tracer.durations_ms("nn.forward");
    let packed_ms: f64 = tracer.durations_ms("nn.forward_packed").iter().sum();
    let gflops = flops.iter().sum::<f64>() / (forward_ms.iter().sum::<f64>() / 1e3) / 1e9;
    t.report.put("nn.forward_ms", median(&forward_ms), "ms");
    t.report
        .put("nn.forward_packed_ms_per_seq", packed_ms / n, "ms");
    t.report.put("nn.flops_per_req", mean(&flops), "FLOP");
    t.report.put("nn.forward_gflops", gflops, "GFLOP/s");
}

fn decode_probe(t: &mut Traced<'_>, source: Workload) {
    let set = t.seqs(source);
    let mut scratch = Scratch::new();
    for (i, s) in set.seqs.iter().enumerate() {
        let (seq, pooled) = llmulator_nn::forward(
            set.model.encoder(),
            set.model.store(),
            s,
            None,
            &mut scratch,
        );
        let preds = t.tracer.span("decode.beam", i as u64, || {
            set.model
                .decode_pooled_rows_width(&pooled, set.model.beam_width())
        });
        std::hint::black_box(preds);
        scratch.recycle(seq);
        scratch.recycle(pooled);
    }
    t.report
        .put("decode.beam_us", t.median_of("decode.beam", 1e3), "us");
}

/// Calibration layer: the traced sweep (run here unless the traced
/// workload already ran it), then direct `dpo_step` and reference
/// `log_prob_value` calls.
fn calib_probe(t: &mut Traced<'_>, out: &mut Outcome) {
    if t.w != Workload::CalibrateAdaptive {
        let origin = Instant::now();
        let fresh = CalibLoop::new(t.static_model, t.ctx.seed, 0);
        let (p, mut loops, tr) = inproc::closed_loop(0.0, true, true, origin, vec![fresh]);
        t.tracer.absorb(tr);
        t.calib = loops.pop().expect("one loop");
        out.attempted += p.lat_ms.len() as u64;
        out.failed += p.failed;
    }
    inproc::check_oracle(&t.calib.window_points, &mut out.gates);
    let seqs = t.seqs(Workload::CalibrateAdaptive).seqs;
    let codec = t.static_model.config().codec;
    let (calibrator, model) = t.calib.parts();
    for i in 0..4u64 {
        t.tracer
            .span("calib.dpo_step", i, || calibrator.dpo_step(model));
    }
    for (i, s) in seqs.iter().enumerate().take(8) {
        let digits = codec.encode(1000 + i as u64);
        t.tracer.span("calib.ref_logprob", i as u64, || {
            calibrator
                .reference()
                .log_prob_value(s, Metric::Cycles, &digits)
        });
    }
    let r = &mut t.report;
    r.put(
        "calib.observe_ms",
        median(&t.tracer.durations_ms("calib.observe")),
        "ms",
    );
    r.put(
        "calib.dpo_step_ms",
        median(&t.tracer.durations_ms("calib.dpo_step")),
        "ms",
    );
    r.put(
        "calib.ref_logprob_ms",
        median(&t.tracer.durations_ms("calib.ref_logprob")),
        "ms",
    );
    r.put("calib.grad_steps", t.calib.grad_steps as f64, "count");
    r.put("calib.skipped_triples", t.calib.skipped as f64, "count");
    r.put("calib.ape_first", t.calib.ape_first(), "ratio");
    r.put("calib.ape_last", t.calib.ape_last(), "ratio");
    if t.tracer.counter("calib.grad_steps") != t.calib.grad_steps as u64 {
        out.gates
            .push("traced gradient-step count disagrees with the calibrator".into());
    }
}

fn sim_probe(t: &mut Traced<'_>, source: Workload) {
    let programs = t.programs(source);
    let mut coverage = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        let req = i as u64;
        std::hint::black_box(
            t.tracer
                .span("hls.compile", req, || llmulator_hls::compile(&p.program)),
        );
        let compiled = t
            .tracer
            .span("sim.compile", req, || llmulator_sim::compile(&p.program));
        coverage.push(compiled.summary().coverage());
        let run = t.tracer.span("sim.run", req, || compiled.run(&p.data));
        let oracle = t.tracer.span("sim.exec_oracle", req, || {
            llmulator_sim::simulate(&p.program, &p.data)
        });
        std::hint::black_box((run.ok(), oracle.ok()));
    }
    t.report
        .put("hls.compile_us", t.median_of("hls.compile", 1e3), "us");
    t.report
        .put("sim.compile_us", t.median_of("sim.compile", 1e3), "us");
    t.report
        .put("sim.run_us", t.median_of("sim.run", 1e3), "us");
    t.report
        .put("sim.region_coverage", mean(&coverage), "ratio");
    t.report.put(
        "sim.exec_oracle_us",
        t.median_of("sim.exec_oracle", 1e3),
        "us",
    );
}
