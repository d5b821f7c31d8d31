//! The serving workloads against a real `llmulator serve --tcp` daemon:
//! open-loop `low` and `high` rates, and a closed-loop saturation phase
//! whose throughput is `max_rate_rps`.
//!
//! * `serve-programs`: program-source requests rendered from the 27
//!   evaluation workloads at seeded ±50% input scales, over two persistent
//!   connections.
//! * `serve-short-churn`: short token requests; each connection carries 8
//!   requests and is then replaced.

use crate::client::{self, Pace, PhaseRun};
use crate::daemon::{Daemon, DaemonStats};
use crate::inputs::{self, Arrival};
use crate::stats::{median, percentile, Report, TAIL};
use crate::trace::{ms, Tracer};
use crate::{Ctx, Outcome, Workload};
use llmulator::{EngineConfig, PredictRequest};
use llmulator_sim::Metric;
use rand::prelude::*;
use serde_json::Value;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Load shape of one serving workload.
pub struct Spec {
    /// The `low` and `high` fixed rates (req/s).
    pub low: f64,
    pub high: f64,
    /// Latency limit (ms) on the [`TAIL`] percentile; each open-loop run is
    /// printed as meeting it or not, and the generator's lag is judged
    /// against it.
    pub limit_ms: f64,
    /// Requests per connection before it is replaced (`None` = persistent).
    pub per_conn: Option<usize>,
}

pub fn spec(w: Workload) -> Spec {
    match w {
        Workload::ServePrograms => Spec {
            low: 60.0,
            // Well below the knee: the two workers serve 140-240 req/s as
            // the shared host's speed swings, and at 120 req/s a slow spell
            // reached the knee and doubled the p50.
            high: 90.0,
            limit_ms: 50.0,
            per_conn: None,
        },
        _ => Spec {
            low: 100.0,
            high: 400.0,
            limit_ms: 10.0,
            per_conn: Some(8),
        },
    }
}

/// Requests each lane keeps outstanding in the saturation phase: two
/// lanes keep both daemon workers busy with a request queued behind each.
const WINDOW: usize = 2;

/// Shares of the run spent on the `low` rate, the `high` rate and the
/// saturation phase, over all passes.
const LOW_SHARE: f64 = 0.2;
const HIGH_SHARE: f64 = 0.35;
const SATURATE_SHARE: f64 = 0.45;

/// Arrivals a saturation phase has to draw from, per second: well above
/// any rate the daemon reaches, so the phase ends on time, not on supply.
const SATURATE_SUPPLY_RPS: f64 = 10_000.0;

/// The distinct requests a serving workload draws from: wire bodies and
/// the same requests as typed in-process calls.
pub struct RequestPool {
    pub bodies: Vec<String>,
    pub requests: Vec<PredictRequest>,
    /// Token sequences as the daemon's tokenizer produces them.
    pub seqs: Vec<Vec<u32>>,
    /// Program sources with their bindings (serve-programs only).
    pub sources: Vec<(String, llmulator_ir::InputData)>,
}

/// Builds the request pool of `w` at `seed`.
pub fn request_pool(
    w: Workload,
    seed: u64,
    predictor: &llmulator::NumericPredictor,
) -> RequestPool {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    match w {
        Workload::ServePrograms => {
            let points = inputs::scaled_suite(&mut rng, 2, 0.5, 1.5);
            let mut pool = RequestPool {
                bodies: Vec::new(),
                requests: Vec::new(),
                seqs: Vec::new(),
                sources: Vec::new(),
            };
            for p in points {
                let source = llmulator_ir::render::render_program(&p.program);
                let parsed =
                    llmulator_ir::parse::parse_program(&source).expect("rendered programs parse");
                let text = llmulator::SegmentedText::from_program(&parsed, Some(&p.data), None);
                pool.seqs.push(
                    text.tokenize(predictor.tokenizer(), predictor.config().max_len)
                        .tokens,
                );
                pool.bodies.push(p.request_body());
                pool.requests.push(
                    PredictRequest::source(source.clone(), p.int_inputs())
                        .metrics(vec![Metric::Cycles]),
                );
                pool.sources.push((source, p.data));
            }
            pool
        }
        _ => {
            let seqs =
                inputs::short_token_requests(&mut rng, 64, predictor.tokenizer().vocab_size());
            RequestPool {
                bodies: seqs
                    .iter()
                    .map(|s| {
                        let ids: Vec<String> = s.iter().map(u32::to_string).collect();
                        format!("\"tokens\":[{}],\"metrics\":[\"cycles\"]", ids.join(","))
                    })
                    .collect(),
                requests: seqs
                    .iter()
                    .map(|s| PredictRequest::tokens(s.clone()).metrics(vec![Metric::Cycles]))
                    .collect(),
                seqs,
                sources: Vec::new(),
            }
        }
    }
}

/// A trained model file and a daemon serving it.
pub struct Served {
    pub model_path: PathBuf,
    pub daemon: Daemon,
    pub predictor: llmulator::NumericPredictor,
    /// Median set-up time (train, save, boot, ready), seconds.
    pub setup_s: f64,
}

/// Trains the serving model and boots a daemon on it, `reps` times;
/// earlier daemons are drained (and checked) before the last is returned.
pub fn set_up(ctx: &Ctx, reps: usize) -> Result<Served, String> {
    let model_path = ctx.out_dir.join("serve-model.json");
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps.max(1) {
        let t0 = Instant::now();
        inputs::train_serve_model(&model_path)?;
        let daemon = Daemon::boot(
            &ctx.daemon_bin,
            &model_path,
            &ctx.out_dir.join(format!("daemon-setup{rep}.log")),
        )?;
        times.push(t0.elapsed().as_secs_f64());
        if let Some(old) = last.replace(daemon) {
            let s = old.stats()?;
            old.drain(&s)?;
        }
    }
    let predictor = llmulator::NumericPredictor::load(&model_path).map_err(|e| e.to_string())?;
    Ok(Served {
        model_path,
        daemon: last.expect("at least one set-up"),
        predictor,
        setup_s: median(&times),
    })
}

/// Boots one more daemon on the already-trained model.
pub fn boot_again(ctx: &Ctx, served: &Served, tag: &str) -> Result<Daemon, String> {
    Daemon::boot(
        &ctx.daemon_bin,
        &served.model_path,
        &ctx.out_dir.join(format!("daemon-{tag}.log")),
    )
}

/// One answered (or failed) arrival.
#[derive(Debug, Clone)]
pub struct Answer {
    pub item: usize,
    pub due: Instant,
    pub sent: Instant,
    pub received: Option<Instant>,
    pub conn_pos: usize,
    pub kind: Kind,
    /// `(value, digits)` of a successful prediction.
    pub value: Option<(f64, Vec<u8>)>,
    /// The response line of an error answer (empty otherwise).
    pub response: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ok,
    Shed,
    Deadline,
    Error,
    Lost,
}

/// One run of a load level.
#[derive(Debug, Clone)]
pub struct Level {
    /// The open-loop rate; infinite for a closed-loop (saturation) phase.
    pub rate: f64,
    pub answers: Vec<Answer>,
    /// Latency (ms) per arrival from its due time (open loop) or from when
    /// it was sent (closed loop); failures are infinite.
    pub lat_ms: Vec<f64>,
    pub p50_ms: f64,
    /// The [`TAIL`] percentile.
    pub tail_ms: f64,
    pub backlog_growing: bool,
    /// Seconds from the level's start to its last answer.
    pub span_s: f64,
    pub connections: usize,
}

impl Level {
    pub fn count(&self, kind: Kind) -> u64 {
        self.answers.iter().filter(|a| a.kind == kind).count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.answers.len() as u64 - self.count(Kind::Ok)
    }

    pub fn passes(&self, limit_ms: f64) -> bool {
        self.tail_ms <= limit_ms && !self.backlog_growing
    }

    pub fn lag_ms(&self) -> Vec<f64> {
        self.answers.iter().map(|a| ms(a.due, a.sent)).collect()
    }

    /// Responses the daemon produced for this level (everything but lost).
    pub fn responses(&self) -> u64 {
        self.answers.len() as u64 - self.count(Kind::Lost)
    }
}

/// Runs one open-loop level at `rate` for `seconds`.
pub fn run_level(
    addr: &str,
    pool: &RequestPool,
    spec: &Spec,
    rate: f64,
    seconds: f64,
    rng: &mut StdRng,
) -> Level {
    let schedule: Vec<Arrival> = inputs::paced_schedule(rng, rate, seconds, pool.bodies.len());
    let run = client::run(
        addr,
        &schedule,
        &line_of(pool, &schedule),
        spec.per_conn,
        Pace::Open,
    );
    level_from(run, &schedule, rate, spec.limit_ms)
}

/// Runs a closed-loop saturation phase for `seconds`: each lane keeps
/// [`WINDOW`] requests outstanding, so the requests it completes per
/// second are the most the daemon serves over two connections.
pub fn saturate(
    addr: &str,
    pool: &RequestPool,
    spec: &Spec,
    seconds: f64,
    rng: &mut StdRng,
) -> Level {
    let supply = (SATURATE_SUPPLY_RPS * seconds).ceil() as usize;
    let schedule: Vec<Arrival> = (0..supply)
        .map(|_| Arrival {
            due: Duration::ZERO,
            item: rng.gen_range(0..pool.bodies.len()),
        })
        .collect();
    let pace = Pace::Closed {
        window: WINDOW,
        seconds,
    };
    let run = client::run(
        addr,
        &schedule,
        &line_of(pool, &schedule),
        spec.per_conn,
        pace,
    );
    let taken = run.taken;
    level_from(run, &schedule[..taken], f64::INFINITY, spec.limit_ms)
}

/// The request line of arrival `i` of `schedule`.
fn line_of<'a>(
    pool: &'a RequestPool,
    schedule: &'a [Arrival],
) -> impl Fn(usize) -> String + Sync + 'a {
    move |i| format!("{{\"id\":{i},{}}}\n", pool.bodies[schedule[i].item])
}

fn level_from(run: PhaseRun, schedule: &[Arrival], rate: f64, limit_ms: f64) -> Level {
    let closed = rate.is_infinite();
    let mut slots: Vec<Option<client::Record>> = vec![None; schedule.len()];
    for r in run.records {
        let i = r.index;
        slots[i] = Some(r);
    }
    let mut answers = Vec::with_capacity(schedule.len());
    for (i, (a, rec)) in schedule.iter().zip(slots).enumerate() {
        let due = run.start + a.due;
        let answer = match rec {
            None => Answer {
                item: a.item,
                due,
                sent: due,
                received: None,
                conn_pos: 0,
                kind: Kind::Lost,
                value: None,
                response: String::new(),
            },
            Some(r) => {
                let due = if closed { r.sent } else { due };
                let (kind, value) = match r.received {
                    None => (Kind::Lost, None),
                    Some(_) => classify(&r.response, i),
                };
                Answer {
                    item: a.item,
                    due,
                    sent: r.sent,
                    received: r.received,
                    conn_pos: r.conn_pos,
                    kind,
                    value,
                    response: if kind == Kind::Error {
                        r.response
                    } else {
                        String::new()
                    },
                }
            }
        };
        answers.push(answer);
    }
    let lat_ms: Vec<f64> = answers
        .iter()
        .map(|a| match (a.kind, a.received) {
            (Kind::Ok, Some(t)) => ms(a.due, t),
            _ => f64::INFINITY,
        })
        .collect();
    // A queue that grows over the level shows as a rising latency: compare
    // the first and last quarters of the arrivals.
    let q = lat_ms.len() / 4;
    let backlog_growing =
        q > 0 && median(&lat_ms[lat_ms.len() - q..]) - median(&lat_ms[..q]) > limit_ms;
    let last_done = answers.iter().filter_map(|a| a.received).max();
    let span_s = last_done.map_or(0.0, |t| ms(run.start, t) / 1e3);
    Level {
        rate,
        p50_ms: median(&lat_ms),
        tail_ms: percentile(&lat_ms, TAIL),
        span_s,
        backlog_growing,
        lat_ms,
        answers,
        connections: run.connections,
    }
}

/// Classifies one response line; `index` is the id it must carry.
fn classify(line: &str, index: usize) -> (Kind, Option<(f64, Vec<u8>)>) {
    let Ok(v) = serde_json::parse_value(line) else {
        return (Kind::Error, None);
    };
    let get = |obj: &Value, key: &str| -> Option<Value> {
        obj.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let id_ok = matches!(get(&v, "id"), Some(Value::U64(n)) if n as usize == index)
        || matches!(get(&v, "id"), Some(Value::I64(n)) if n as usize == index);
    if !id_ok {
        return (Kind::Error, None);
    }
    if get(&v, "ok") == Some(Value::Bool(true)) {
        let pred = get(&v, "predictions")
            .and_then(|p| p.as_array().and_then(|a| a.first().cloned()))
            .and_then(|p| {
                let value = match get(&p, "value")? {
                    Value::F64(x) => x,
                    Value::U64(n) => n as f64,
                    Value::I64(n) => n as f64,
                    _ => return None,
                };
                let digits = get(&p, "digits")?
                    .as_array()?
                    .iter()
                    .map(|d| match d {
                        Value::U64(n) => u8::try_from(*n).ok(),
                        Value::I64(n) => u8::try_from(*n).ok(),
                        _ => None,
                    })
                    .collect::<Option<Vec<u8>>>()?;
                Some((value, digits))
            });
        return match pred {
            Some(p) => (Kind::Ok, Some(p)),
            None => (Kind::Error, None),
        };
    }
    let kind = get(&v, "error")
        .and_then(|e| get(&e, "kind"))
        .and_then(|k| k.as_str().map(str::to_string));
    match kind.as_deref() {
        Some("overloaded") => (Kind::Shed, None),
        Some("deadline_exceeded") => (Kind::Deadline, None),
        _ => (Kind::Error, None),
    }
}

/// Passes over the load levels (`low`, `high`, saturation). A stall of
/// the machine lands on one pass, and the open-loop levels report the
/// median over their passes.
const PASSES: usize = 3;

/// One load level: its run in each pass.
pub struct LevelRuns {
    pub name: &'static str,
    pub runs: Vec<Level>,
}

impl LevelRuns {
    fn median_of(&self, stat: impl Fn(&Level) -> f64) -> f64 {
        median(&self.runs.iter().map(stat).collect::<Vec<_>>())
    }

    /// Median over the passes of each pass's p50.
    pub fn p50_ms(&self) -> f64 {
        self.median_of(|l| l.p50_ms)
    }

    /// Median over the passes of each pass's [`TAIL`] percentile.
    pub fn tail_ms(&self) -> f64 {
        self.median_of(|l| l.tail_ms)
    }

    /// Requests completed per second over all passes. The host's speed
    /// swings within seconds, so the whole of the level's time averages
    /// it out better than a median over three short passes does.
    pub fn achieved_rps(&self) -> f64 {
        let ok: u64 = self.runs.iter().map(|l| l.count(Kind::Ok)).sum();
        let span_s: f64 = self.runs.iter().map(|l| l.span_s).sum();
        ok as f64 / span_s
    }
}

/// Runs [`PASSES`] passes of `low`, `high` and saturation, the run's
/// `seconds` split by their shares.
pub fn levels(
    daemon: &Daemon,
    pool: &RequestPool,
    spec: &Spec,
    seconds: f64,
    rng: &mut StdRng,
) -> [LevelRuns; 3] {
    let addr = daemon.addr.as_str();
    let pass_s = |share: f64| seconds * share / PASSES as f64;
    let mut rungs = ["low", "high", "saturate"].map(|name| LevelRuns {
        name,
        runs: Vec::new(),
    });
    for _ in 0..PASSES {
        let [low, high, sat] = &mut rungs;
        low.runs.push(run_level(
            addr,
            pool,
            spec,
            spec.low,
            pass_s(LOW_SHARE),
            rng,
        ));
        high.runs.push(run_level(
            addr,
            pool,
            spec,
            spec.high,
            pass_s(HIGH_SHARE),
            rng,
        ));
        sat.runs
            .push(saturate(addr, pool, spec, pass_s(SATURATE_SHARE), rng));
    }
    rungs
}

/// Correctness gates shared by every serving phase: each distinct request's
/// answer equals an in-process `Session::predict` on the same model file;
/// client counts reconcile; the daemon's counters match what the client
/// received.
pub fn check(
    served: &Served,
    pool: &RequestPool,
    levels: &[&Level],
    daemon_stats: &DaemonStats,
    gates: &mut Vec<String>,
) {
    let engine = EngineConfig::new().build();
    if let Err(e) = engine.load_predictor("default", &served.model_path) {
        gates.push(format!("in-process model load: {e}"));
        return;
    }
    let mut session = engine.session();
    let mut expected: Vec<Option<(f64, Vec<u8>)>> = vec![None; pool.requests.len()];
    let mut responses = 0u64;
    for level in levels {
        let attempted = level.answers.len() as u64;
        let sum: u64 = [
            Kind::Ok,
            Kind::Shed,
            Kind::Error,
            Kind::Deadline,
            Kind::Lost,
        ]
        .iter()
        .map(|&k| level.count(k))
        .sum();
        if sum != attempted {
            gates.push(format!(
                "level at {} req/s: attempted {attempted} != outcomes {sum}",
                level.rate
            ));
        }
        responses += level.responses();
    }
    answer_gates(
        levels,
        |item| match expected[item].as_ref() {
            Some(want) => Ok(want.clone()),
            None => {
                let r = session
                    .predict(&pool.requests[item])
                    .map_err(|e| e.to_string())?;
                let m = &r.items[0].metrics[0];
                let want = (m.value, m.digits.clone().unwrap_or_default());
                expected[item] = Some(want.clone());
                Ok(want)
            }
        },
        gates,
    );
    let daemon_total =
        daemon_stats.served + daemon_stats.errors + daemon_stats.shed + daemon_stats.deadline_shed;
    if daemon_total != responses {
        gates.push(format!(
            "daemon counted {daemon_total} answers (served+errors+shed+deadline) but the client received {responses}"
        ));
    }
}

/// Gate: every answer the daemon gave equals `expected(item)`, the
/// in-process prediction of the same request, in value and digits; an
/// error answer (error reply, wrong id or unreadable line) to a request
/// that predicts in-process fails it too. Shed, deadline and lost requests
/// are counted outcomes, not wrong answers.
pub fn answer_gates(
    levels: &[&Level],
    mut expected: impl FnMut(usize) -> Result<(f64, Vec<u8>), String>,
    gates: &mut Vec<String>,
) {
    let mut errors = 0usize;
    for a in levels.iter().flat_map(|l| &l.answers) {
        if !matches!(a.kind, Kind::Ok | Kind::Error) {
            continue;
        }
        let want = match expected(a.item) {
            Ok(want) => want,
            Err(e) => {
                gates.push(format!(
                    "request item {}: in-process predict failed: {e}",
                    a.item
                ));
                continue;
            }
        };
        match &a.value {
            Some(got) if got.0.to_bits() == want.0.to_bits() && got.1 == want.1 => {}
            Some(got) => gates.push(format!(
                "request item {}: daemon answered {got:?}, in-process predict {want:?}",
                a.item
            )),
            None => {
                if errors == 0 {
                    gates.push(format!(
                        "request item {}: daemon answered with an error (`{}`), in-process predict {want:?}",
                        a.item, a.response
                    ));
                }
                errors += 1;
            }
        }
    }
    if errors > 1 {
        gates.push(format!(
            "{errors} valid requests in all were answered with an error"
        ));
    }
}

/// End-to-end run of a serving workload.
pub fn run(ctx: &Ctx, w: Workload) -> Result<Outcome, String> {
    let spec = spec(w);
    let served = set_up(ctx, SETUP_REPS)?;
    let pool = request_pool(w, ctx.seed, &served.predictor);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let rungs = levels(&served.daemon, &pool, &spec, ctx.seconds, &mut rng);
    let stats = served.daemon.stats()?;
    // The daemon's high-water mark over the whole run: sampled earlier, it
    // still depended on which worker threads had met the largest requests
    // yet.
    let peak = served.daemon.peak_rss_mb()?;
    let levels: Vec<&Level> = rungs.iter().flat_map(|r| &r.runs).collect();
    let mut out = Outcome::default();
    check(&served, &pool, &levels, &stats, &mut out.gates);
    let [low, high, sat] = &rungs;
    let r = &mut out.report;
    r.put("setup_s", served.setup_s, "s");
    r.put("peak_rss_mb", peak, "MB");
    r.put("high.p50_ms", high.p50_ms(), "ms");
    r.put("max_rate_rps", sat.achieved_rps(), "1/s");
    out.extra.put("low.p50_ms", low.p50_ms(), "ms");
    out.extra.put("low.p90_ms", low.tail_ms(), "ms");
    out.extra.put("high.p90_ms", high.tail_ms(), "ms");
    out.extra.put("saturate.p50_ms", sat.p50_ms(), "ms");
    for l in &levels {
        out.attempted += l.answers.len() as u64;
        out.failed += l.failed();
    }
    for rung in &rungs {
        let lat: Vec<f64> = rung
            .runs
            .iter()
            .flat_map(|l| l.lat_ms.iter().copied())
            .collect();
        let lag: Vec<f64> = rung.runs.iter().flat_map(Level::lag_ms).collect();
        let rate = rung.runs[0].rate;
        let pace = if rate.is_finite() {
            format!("{rate:>6.0} req/s")
        } else {
            format!("{WINDOW} per lane ")
        };
        out.notes.push(format!(
            "{:<8} {pace}: n={:<5} conns {:<4} p50 {:>8.3} ms  p90 {:>8.3} ms (medians of {} passes; pooled p99 {:.3} ms)  achieved {:>7.1} req/s  lag p99 {:>7.3} ms{}",
            rung.name,
            lat.len(),
            rung.runs.iter().map(|l| l.connections).sum::<usize>(),
            rung.p50_ms(),
            rung.tail_ms(),
            rung.runs.len(),
            percentile(&lat, 99.0),
            rung.achieved_rps(),
            percentile(&lag, 99.0),
            if rate.is_finite() {
                let passing = rung.runs.iter().filter(|l| l.passes(spec.limit_ms));
                format!("  passes meeting the limit: {}", passing.count())
            } else {
                String::new()
            },
        ));
    }
    out.notes.push(format!(
        "daemon over all levels: served {}, p50 {:.3} ms, p99 {:.3} ms",
        stats.served,
        stats.p50_us / 1e3,
        stats.p99_us / 1e3
    ));
    // On a level whose backlog grows, and in the closed loop, lanes wait
    // on the daemon by design; elsewhere a late generator means the
    // latencies are its own.
    let lag: Vec<f64> = levels
        .iter()
        .filter(|l| !l.backlog_growing && l.rate.is_finite())
        .flat_map(|l| l.lag_ms())
        .collect();
    let lag_p99 = percentile(&lag, 99.0);
    out.extra.put("gen.lag_p99_ms", lag_p99, "ms");
    if lag_p99 > spec.limit_ms / 5.0 {
        out.notes.push(format!(
            "UNTRUSTED: generator lag p99 {lag_p99:.3} ms on steady levels exceeds a fifth of the {} ms limit",
            spec.limit_ms
        ));
    }
    out.extra.put(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.daemon_flags = served.daemon.flags.join(" ");
    out.model_hash = model_hash(&served.model_path)?;
    served.daemon.drain(&stats)?;
    Ok(out)
}

/// Content hash (FNV-1a, 64-bit) of a model file, hex.
pub fn model_hash(path: &std::path::Path) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(hash_hex(&bytes))
}

/// FNV-1a (64-bit) of `bytes`, hex.
pub fn hash_hex(bytes: &[u8]) -> String {
    format!("{:016x}", llmulator::route_key(bytes))
}

/// Client-side and daemon-side metrics of one traced level on a fresh
/// daemon (the `cli` layer), with each request recorded as spans.
pub fn cli_layer(level: &Level, stats: &DaemonStats, tracer: &Tracer, report: &mut Report) {
    for (i, a) in level.answers.iter().enumerate() {
        if let Some(t) = a.received {
            let req = i as u64;
            let parent = tracer.record("cli.request", req, a.due, t, None);
            tracer.record("cli.gen_lag", req, a.due, a.sent, parent);
            tracer.record("cli.round_trip", req, a.sent, t, parent);
        }
    }
    let first: Vec<f64> = level
        .answers
        .iter()
        .zip(&level.lat_ms)
        .filter(|(a, _)| a.conn_pos == 0)
        .map(|(_, l)| *l)
        .collect();
    let later: Vec<f64> = level
        .answers
        .iter()
        .zip(&level.lat_ms)
        .filter(|(a, _)| a.conn_pos > 0)
        .map(|(_, l)| *l)
        .collect();
    let d50 = stats.p50_us / 1e3;
    let d99 = stats.p99_us / 1e3;
    report.put("cli.first_req_p50_ms", median(&first), "ms");
    report.put("cli.later_req_p50_ms", median(&later), "ms");
    report.put("cli.daemon_p50_ms", d50, "ms");
    report.put("cli.daemon_p99_ms", d99, "ms");
    report.put("cli.gap_p50_ms", level.p50_ms - d50, "ms");
    report.put(
        "cli.gap_p99_ms",
        percentile(&level.lat_ms, 99.0) - d99,
        "ms",
    );
    report.put("cli.served", stats.served as f64, "count");
    report.put("cli.shed", stats.shed as f64, "count");
    report.put("cli.errors", stats.errors as f64, "count");
    report.put(
        "cli.slow_client_disconnects",
        stats.slow_client_disconnects as f64,
        "count",
    );
    report.put("gen.lag_p99_ms", percentile(&level.lag_ms(), 99.0), "ms");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A level whose arrival `i` (all of pool item 0) got `lines[i]`.
    fn level_of(lines: &[&str]) -> Level {
        let start = Instant::now();
        let schedule: Vec<Arrival> = (0..lines.len())
            .map(|_| Arrival {
                due: Duration::ZERO,
                item: 0,
            })
            .collect();
        let records = lines
            .iter()
            .enumerate()
            .map(|(index, line)| client::Record {
                index,
                sent: start,
                received: Some(start),
                conn_pos: index,
                response: line.to_string(),
            })
            .collect();
        let run = PhaseRun {
            start,
            records,
            taken: lines.len(),
            connections: 1,
        };
        level_from(run, &schedule, 1.0, 10.0)
    }

    const OK: &str =
        r#"{"id":0,"ok":true,"predictions":[{"metric":"cycles","value":120.0,"digits":[1,2,0]}]}"#;

    fn gates_of(level: &Level) -> Vec<String> {
        let mut gates = Vec::new();
        answer_gates(&[level], |_| Ok((120.0, vec![1, 2, 0])), &mut gates);
        gates
    }

    #[test]
    fn equal_answers_and_counted_outcomes_pass() {
        let level = level_of(&[
            OK,
            r#"{"id":1,"ok":false,"error":{"kind":"overloaded","message":"queue full"}}"#,
            r#"{"id":2,"ok":false,"error":{"kind":"deadline_exceeded","message":"late"}}"#,
        ]);
        let kinds: Vec<Kind> = level.answers.iter().map(|a| a.kind).collect();
        assert_eq!(kinds, [Kind::Ok, Kind::Shed, Kind::Deadline]);
        assert!(gates_of(&level).is_empty());
    }

    #[test]
    fn error_answers_to_valid_requests_fail_the_gate() {
        for bad in [
            r#"{"id":1,"ok":false,"error":{"kind":"bad_request","message":"no"}}"#,
            // The right answer under another request's id.
            r#"{"id":7,"ok":true,"predictions":[{"metric":"cycles","value":120.0,"digits":[1,2,0]}]}"#,
            "not json",
        ] {
            let level = level_of(&[OK, bad]);
            assert_eq!(level.answers[1].kind, Kind::Error, "{bad}");
            let gates = gates_of(&level);
            assert_eq!(gates.len(), 1, "{bad}: {gates:?}");
            assert!(gates[0].contains("error"), "{gates:?}");
        }
    }

    #[test]
    fn wrong_values_fail_the_gate() {
        let level = level_of(&[
            r#"{"id":0,"ok":true,"predictions":[{"metric":"cycles","value":130.0,"digits":[1,3,0]}]}"#,
        ]);
        assert_eq!(gates_of(&level).len(), 1);
    }
}
