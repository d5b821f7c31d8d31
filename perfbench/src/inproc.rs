//! The in-process workloads, driven as closed loops through the public
//! library APIs: `low` is one caller, `high` two concurrent callers (the
//! machine's two cores), and `max_rate_rps` is the two-caller op rate.
//!
//! * `calibrate-adaptive`: the paper's Fig. 4 loop per design point,
//!   `Sample::profile` → `tokenize_sample` → `predict_tokens` →
//!   `DpoCalibrator::observe`, from a static model trained at set-up on
//!   small inputs of the adaptive workloads, over seeded larger inputs; a
//!   group of [`CALIB_GROUP`] design points per op.
//! * `profile-sweep`: `llmulator_sim::profile` (ground truth) over the
//!   evaluation workloads at seeded input scales and seeded paper-mix
//!   synthesized programs, a group of [`GROUP`] programs per op.

use crate::inputs::{self, DesignPoint};
use crate::stats::{mean, median, percentile, TAIL};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use llmulator::{DpoCalibrator, DpoConfig, NumericPredictor, Sample};
use llmulator_sim::Metric;
use rand::prelude::*;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Leading design points of a calibration stream whose accuracy is
/// reported; a caller always completes them.
pub const APE_WINDOW: usize = 12;
/// Design points averaged for `calib.ape_first` / `calib.ape_last`.
pub const APE_K: usize = 3;
/// Design points per calibrate-adaptive op. One design point's loop cost
/// varies with the token lengths of the replayed triples each DPO step
/// trains on, and the median over single points ranged 390–604 ms over 10
/// seeds; a group of design points calibrated in turn, like a batch of
/// candidates a design-space tool grounds at once, varies less.
/// [`APE_WINDOW`] is a whole number of groups.
pub const CALIB_GROUP: usize = 3;
/// Share of the run spent on the one-caller (`low`) phase.
const LOW_SHARE: f64 = 0.15;

/// One closed-loop phase: per-op latencies (ms), wall seconds, failed ops.
#[derive(Debug, Default)]
pub struct Phase {
    pub lat_ms: Vec<f64>,
    pub wall_s: f64,
    pub failed: u64,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.lat_ms.extend(other.lat_ms);
        self.wall_s += other.wall_s;
        self.failed += other.failed;
    }
}

/// One caller of a closed loop: performs its next op.
pub trait Caller: Send {
    fn op(&mut self, t: &Tracer) -> Result<(), String>;
    /// Ops performed so far (the span request id of the next op).
    fn done(&self) -> usize;
    /// Whether the caller must run on past the window's end (to finish a
    /// unit whose result is reported).
    fn unfinished(&self) -> bool {
        false
    }
}

/// Runs one closed loop per state, all concurrently, for `seconds` (and
/// while `finish` and a state is unfinished).
pub fn closed_loop<S: Caller>(
    seconds: f64,
    finish: bool,
    trace: bool,
    origin: Instant,
    states: Vec<S>,
) -> (Phase, Vec<S>, Tracer) {
    let merged = Tracer::new(trace, origin);
    let results = Mutex::new(Vec::new());
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for (caller, mut state) in states.into_iter().enumerate() {
            let results = &results;
            scope.spawn(move || {
                let tracer = Tracer::new(trace, origin);
                let mut phase = Phase::default();
                while Instant::now() < end || (finish && state.unfinished()) {
                    let t0 = Instant::now();
                    let ok = tracer.span("op", state.done() as u64, || state.op(&tracer));
                    phase.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    phase.failed += u64::from(ok.is_err());
                }
                results
                    .lock()
                    .expect("no caller panics while holding the results lock")
                    .push((caller, phase, state, tracer));
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut results = results.into_inner().expect("callers finished");
    results.sort_by_key(|r| r.0);
    let mut phase = Phase::default();
    let mut out_states = Vec::new();
    for (_, p, state, tracer) in results {
        phase.absorb(p);
        out_states.push(state);
        merged.absorb(tracer);
    }
    phase.wall_s = wall_s;
    (phase, out_states, merged)
}

/// Windows per phase: the one-caller and two-caller windows alternate, so
/// slow drift of the machine's speed lands on both phases alike.
const ROUNDS: usize = 4;

/// Runs `low` (one caller) and `high` (two callers) in alternating windows
/// for `seconds` in total; the last windows run on until every caller has
/// finished its reported unit.
pub fn low_high<S: Caller>(seconds: f64, low: S, high: [S; 2]) -> (Phase, Phase, S, Vec<S>) {
    let origin = Instant::now();
    let (mut low_phase, mut high_phase) = (Phase::default(), Phase::default());
    let (mut low_states, mut high_states) = (vec![low], high.into_iter().collect::<Vec<_>>());
    for round in 0..ROUNDS {
        let last = round + 1 == ROUNDS;
        let (p, s, _) = closed_loop(
            seconds * LOW_SHARE / ROUNDS as f64,
            last,
            false,
            origin,
            low_states,
        );
        low_phase.absorb(p);
        low_states = s;
        let (p, s, _) = closed_loop(
            seconds * (1.0 - LOW_SHARE) / ROUNDS as f64,
            last,
            false,
            origin,
            high_states,
        );
        high_phase.absorb(p);
        high_states = s;
    }
    (
        low_phase,
        high_phase,
        low_states.pop().expect("one low caller"),
        high_states,
    )
}

/// Fills the shared end-to-end metrics of an in-process workload.
fn put_phases(out: &mut Outcome, setup_s: f64, low: &Phase, high: &Phase) -> Result<(), String> {
    let r = &mut out.report;
    r.put("setup_s", setup_s, "s");
    r.put(
        "peak_rss_mb",
        crate::daemon::vm_hwm_mb("/proc/self/status")?,
        "MB",
    );
    r.put("high.p50_ms", median(&high.lat_ms), "ms");
    let rate = high.lat_ms.len() as f64 / high.wall_s;
    r.put("max_rate_rps", rate, "1/s");
    out.extra.put("low.p50_ms", median(&low.lat_ms), "ms");
    out.extra
        .put("low.p90_ms", percentile(&low.lat_ms, TAIL), "ms");
    out.extra
        .put("high.p90_ms", percentile(&high.lat_ms, TAIL), "ms");
    out.extra.put("ops_per_s", rate, "1/s");
    out.extra.put("op_p50_ms", median(&low.lat_ms), "ms");
    out.extra
        .put("op_p99_ms", percentile(&low.lat_ms, 99.0), "ms");
    out.attempted = (low.lat_ms.len() + high.lat_ms.len()) as u64;
    out.failed = low.failed + high.failed;
    out.extra.put(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    for (name, p) in [("low (1 caller)", low), ("high (2 callers)", high)] {
        out.notes.push(format!(
            "{name}: {} ops in {:.2} s, p50 {:.3} ms, p90 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, mean {:.3} ms",
            p.lat_ms.len(),
            p.wall_s,
            median(&p.lat_ms),
            percentile(&p.lat_ms, 90.0),
            percentile(&p.lat_ms, 95.0),
            percentile(&p.lat_ms, 99.0),
            mean(&p.lat_ms)
        ));
    }
    Ok(())
}

/// Median of `reps` timed runs of `f`, with the last result.
pub fn timed_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        last = Some(f()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((median(&times), last.expect("at least one repetition")))
}

// ---------------------------------------------------------------- calibrate

/// One calibration loop: a caller's model, calibrator and design-point
/// stream, calibrating continuously from the static model, plus the
/// record of its first [`APE_WINDOW`] design points.
pub struct CalibLoop {
    model: NumericPredictor,
    calibrator: DpoCalibrator,
    rng: StdRng,
    adaptive: Vec<llmulator_workloads::Workload>,
    /// Position in the visiting order of `adaptive`.
    visit: usize,
    /// Design points calibrated so far.
    steps: usize,
    /// Ops (groups of [`CALIB_GROUP`] steps) performed so far.
    ops: usize,
    /// APE of each of the first [`APE_WINDOW`] design points.
    pub window_ape: Vec<f64>,
    /// Gradient steps and skipped (exact) triples on those points.
    pub grad_steps: usize,
    pub skipped: usize,
    /// Their design points, for the ground-truth gate.
    pub window_points: Vec<DesignPoint>,
}

fn dpo_config() -> DpoConfig {
    DpoConfig {
        seed: inputs::CALIB_MODEL_SEED,
        ..DpoConfig::default()
    }
}

impl CalibLoop {
    pub fn new(static_model: &NumericPredictor, seed: u64, caller: usize) -> CalibLoop {
        let adaptive = inputs::adaptive_suite();
        // The two callers start half a cycle apart.
        let visit = caller * adaptive.len() / 2;
        CalibLoop {
            model: static_model.clone(),
            calibrator: DpoCalibrator::new(static_model, dpo_config()),
            rng: StdRng::seed_from_u64(seed ^ (0xca1b << 8) ^ caller as u64),
            adaptive,
            visit,
            steps: 0,
            ops: 0,
            window_ape: Vec::new(),
            grad_steps: 0,
            skipped: 0,
            window_points: Vec::new(),
        }
    }

    /// A seeded larger input (1x–2x the defaults; training saw 0.5x and
    /// 0.75x) of the next adaptive workload. The workloads come in a fixed
    /// cyclic order, so every seed calibrates the same programs and only
    /// their inputs change: a run ends part-way through a cycle, and with
    /// a seeded order the programs in that part changed the run's cost.
    fn next_point(&mut self) -> DesignPoint {
        let w = &self.adaptive[self.visit % self.adaptive.len()];
        self.visit += 1;
        let factor = self.rng.gen_range(1.0..=2.0);
        DesignPoint {
            name: w.name.clone(),
            data: w.scaled_inputs(factor),
            program: w.program.clone(),
        }
    }

    /// One design point: profile, tokenize, predict, observe.
    fn step(&mut self, t: &Tracer) -> Result<(), String> {
        let k = self.steps;
        self.steps += 1;
        let point = self.next_point();
        let req = k as u64;
        let sample = t
            .span("sim.profile", req, || {
                Sample::profile(&point.program, Some(&point.data))
            })
            .map_err(|e| format!("{}: {e}", point.name))?;
        let tp = t.span("token.tokenize", req, || {
            self.model.tokenize_sample(&sample)
        });
        let predicted = t
            .span("nn.predict_tokens", req, || {
                self.model.predict_tokens(&tp.tokens, None)
            })
            .metric(Metric::Cycles)
            .value;
        let actual = sample.cost.cycles as f64;
        let steps_before = self.calibrator.losses().len();
        t.span("calib.observe", req, || {
            self.calibrator.observe(
                &mut self.model,
                tp.tokens,
                Metric::Cycles,
                actual,
                predicted,
            );
        });
        let steps = self.calibrator.losses().len() - steps_before;
        t.count("calib.grad_steps", steps as u64);
        t.count("calib.skipped_triples", u64::from(steps == 0));
        if k < APE_WINDOW {
            let ape = if actual > 0.0 {
                (predicted - actual).abs() / actual
            } else {
                0.0
            };
            self.window_ape.push(ape);
            self.grad_steps += steps;
            self.skipped += usize::from(steps == 0);
            self.window_points.push(point);
        }
        Ok(())
    }

    pub fn ape_first(&self) -> f64 {
        mean(&self.window_ape[..APE_K])
    }

    pub fn ape_last(&self) -> f64 {
        mean(&self.window_ape[APE_WINDOW - APE_K..])
    }

    /// The calibrator and model after the ops run so far.
    pub fn parts(&mut self) -> (&mut DpoCalibrator, &mut NumericPredictor) {
        (&mut self.calibrator, &mut self.model)
    }
}

impl Caller for CalibLoop {
    fn op(&mut self, t: &Tracer) -> Result<(), String> {
        self.ops += 1;
        for _ in 0..CALIB_GROUP {
            self.step(t)?;
        }
        Ok(())
    }

    fn done(&self) -> usize {
        self.ops
    }

    fn unfinished(&self) -> bool {
        self.steps < APE_WINDOW
    }
}

/// Content hash of the static model's persisted form.
pub fn static_model_hash(model: &NumericPredictor) -> Result<String, String> {
    let json = model.to_json().map_err(|e| e.to_string())?;
    Ok(crate::serve::hash_hex(json.as_bytes()))
}

/// Ground truth gate: profiled cycles equal the exec oracle.
pub fn check_oracle(points: &[DesignPoint], gates: &mut Vec<String>) {
    for p in points {
        let profiled = llmulator_sim::profile(&p.program, &p.data).map(|r| r.cost.cycles);
        let oracle = llmulator_sim::simulate(&p.program, &p.data).map(|r| r.total_cycles);
        if profiled.as_ref().ok() != oracle.as_ref().ok() {
            gates.push(format!(
                "{}: profile {profiled:?} != exec oracle {oracle:?}",
                p.name
            ));
        }
    }
}

/// Starts the in-process peak memory over for a workload (see
/// [`crate::daemon::reset_own_peak`]). A process that has run no other
/// workload has nothing to leave out, so there a kernel that refuses the
/// reset is no error.
fn reset_peak(ctx: &Ctx) -> Result<(), String> {
    match crate::daemon::reset_own_peak() {
        Err(e) if ctx.after_other_workloads => Err(e),
        _ => Ok(()),
    }
}

pub fn run_calibrate(ctx: &Ctx) -> Result<Outcome, String> {
    reset_peak(ctx)?;
    let (setup_s, static_model) = timed_setup(3, inputs::train_static_model)?;
    let new = |caller| CalibLoop::new(&static_model, ctx.seed, caller);
    let (low, high, first, high_loops) = low_high(ctx.seconds, new(0), [new(0), new(1)]);
    let mut out = Outcome::default();
    put_phases(&mut out, setup_s, &low, &high)?;
    // The same caller stream run beside a second loop must calibrate
    // bit-identically: concurrency may not change arithmetic.
    if first.window_ape != high_loops[0].window_ape {
        out.gates
            .push("calibration stream differs when run beside a second loop".into());
    }
    check_oracle(&first.window_points, &mut out.gates);
    out.extra.put("calib.ape_first", first.ape_first(), "ratio");
    out.extra.put("calib.ape_last", first.ape_last(), "ratio");
    out.extra
        .put("calib.grad_steps", first.grad_steps as f64, "count");
    out.model_hash = static_model_hash(&static_model)?;
    Ok(out)
}

// ------------------------------------------------------------ profile-sweep

/// Design points per profile-sweep op. Single profiles range from
/// microseconds (static programs retire in compiled regions) to
/// milliseconds, and the median single profile sits between the two
/// classes, where it swings with the machine's speed by more than the
/// whole distribution does; a group of seeded random design points, like a
/// batch of candidates a design-space tool grounds at once, has a
/// unimodal cost whose distribution does not depend on the seed.
pub const GROUP: usize = 8;

/// The profile-sweep programs at `seed`: every evaluation workload at four
/// seeded ±50% scales plus 92 paper-mix synthesized programs (200 design
/// points), shuffled and loaded as a design-space tool loads them:
/// rendered to source text and parsed back.
pub fn sweep_programs(seed: u64) -> Result<Vec<DesignPoint>, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5eed);
    let mut points = inputs::scaled_suite(&mut rng, 4, 0.5, 1.5);
    points.extend(inputs::synthesized(&mut rng, 92));
    points.shuffle(&mut rng);
    for p in &mut points {
        let text = llmulator_ir::render::render_program(&p.program);
        p.program =
            llmulator_ir::parse::parse_program(&text).map_err(|e| format!("{}: {e}", p.name))?;
    }
    Ok(points)
}

/// One profile-sweep caller: its seeded group draws and the cycles it saw.
pub struct SweepLoop<'p> {
    pub points: &'p [DesignPoint],
    rng: StdRng,
    ops: usize,
    /// `(program index, profiled cycles)` of every profile.
    pub seen: Vec<(usize, u64)>,
}

impl<'p> SweepLoop<'p> {
    pub fn new(points: &'p [DesignPoint], seed: u64, caller: usize) -> SweepLoop<'p> {
        SweepLoop {
            points,
            rng: StdRng::seed_from_u64(seed ^ (0x9a0b << 8) ^ caller as u64),
            ops: 0,
            seen: Vec::new(),
        }
    }
}

impl Caller for SweepLoop<'_> {
    fn op(&mut self, t: &Tracer) -> Result<(), String> {
        let req = self.ops as u64;
        self.ops += 1;
        for _ in 0..GROUP {
            let i = self.rng.gen_range(0..self.points.len());
            let p = &self.points[i];
            let profile = t
                .span("sim.profile", req, || {
                    llmulator_sim::profile(&p.program, &p.data)
                })
                .map_err(|e| format!("{}: {e}", p.name))?;
            self.seen.push((i, profile.cost.cycles));
        }
        Ok(())
    }

    fn done(&self) -> usize {
        self.ops
    }

    /// The traced run measures a fixed number of ops: as many as there are
    /// programs, over groups.
    fn unfinished(&self) -> bool {
        self.ops < self.points.len() / GROUP
    }
}

/// Gate: `profile` cycles equal the exec oracle on every program, and
/// every op saw those cycles.
pub fn check_sweep(points: &[DesignPoint], loops: &[SweepLoop<'_>], gates: &mut Vec<String>) {
    let mut oracle = Vec::with_capacity(points.len());
    for p in points {
        let want = llmulator_sim::simulate(&p.program, &p.data).map(|r| r.total_cycles);
        let got = llmulator_sim::profile(&p.program, &p.data).map(|r| r.cost.cycles);
        if got.as_ref().ok() != want.as_ref().ok() {
            gates.push(format!("{}: profile {got:?}, exec oracle {want:?}", p.name));
        }
        oracle.push(want.ok());
    }
    for &(i, cycles) in loops.iter().flat_map(|l| &l.seen) {
        if oracle[i] != Some(cycles) {
            gates.push(format!(
                "{}: an op profiled {cycles} cycles, exec oracle {:?}",
                points[i].name, oracle[i]
            ));
            return;
        }
    }
}

pub fn run_sweep(ctx: &Ctx) -> Result<Outcome, String> {
    reset_peak(ctx)?;
    let (setup_s, points) = timed_setup(9, || sweep_programs(ctx.seed))?;
    let new = |caller| SweepLoop::new(&points, ctx.seed, caller);
    let (low, high, first, high_loops) = low_high(ctx.seconds, new(0), [new(0), new(1)]);
    let mut out = Outcome::default();
    put_phases(&mut out, setup_s, &low, &high)?;
    let mut loops = high_loops;
    loops.push(first);
    check_sweep(&points, &loops, &mut out.gates);
    let classes = class_mix(&points);
    out.notes.push(format!(
        "{} programs (static / shape-adaptive / data-adaptive: {} / {} / {})",
        points.len(),
        classes[0],
        classes[1],
        classes[2]
    ));
    Ok(out)
}

/// Programs per adaptivity class `[static, shape, data]`.
pub fn class_mix(points: &[DesignPoint]) -> [usize; 3] {
    let mut mix = [0usize; 3];
    for p in points {
        let i = match llmulator_ir::analyze_program_taint(&p.program).class {
            llmulator_ir::AdaptivityClass::Static => 0,
            llmulator_ir::AdaptivityClass::ShapeAdaptive => 1,
            llmulator_ir::AdaptivityClass::DataAdaptive => 2,
        };
        mix[i] += 1;
    }
    mix
}
