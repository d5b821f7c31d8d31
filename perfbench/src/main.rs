//! Seeded benchmark of the llmulator suite: four workloads against the
//! real system, end-to-end metrics by name and unit, correctness gates, and
//! a separate traced run with per-layer metrics.
//!
//! ```text
//! bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.sh` builds the `llmulator` daemon and this program from the
//! checkout's sources, then runs this program with `--daemon <binary>`.
//! Workloads: `serve-programs`, `serve-short-churn` (TCP daemon, open
//! loop), `calibrate-adaptive`, `profile-sweep` (library, closed loop).
//! Every metric is printed with its unit; the last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). Run metadata and the full report are also written to
//! `.bench_out/` in the working directory, together with the trace spans.
//! A failed correctness gate prints `"correct": false` and exits 1; a
//! harness error exits 2 without a result.

mod client;
mod daemon;
mod inproc;
mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use stats::Report;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServePrograms,
    ServeShortChurn,
    CalibrateAdaptive,
    ProfileSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServePrograms,
        Workload::ServeShortChurn,
        Workload::CalibrateAdaptive,
        Workload::ProfileSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePrograms => "serve-programs",
            Workload::ServeShortChurn => "serve-short-churn",
            Workload::CalibrateAdaptive => "calibrate-adaptive",
            Workload::ProfileSweep => "profile-sweep",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The end-to-end metrics every untraced run reports, with their units, in
/// the order of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("high.p50_ms", "ms"),
    ("max_rate_rps", "1/s"),
];

/// The per-layer metrics every traced run reports, with their units, in
/// the order of `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("cli.first_req_p50_ms", "ms"),
    ("cli.later_req_p50_ms", "ms"),
    ("cli.gap_p50_ms", "ms"),
    ("cli.gap_p99_ms", "ms"),
    ("cli.daemon_p50_ms", "ms"),
    ("cli.daemon_p99_ms", "ms"),
    ("cli.served", "count"),
    ("cli.shed", "count"),
    ("cli.errors", "count"),
    ("cli.slow_client_disconnects", "count"),
    ("gen.lag_p99_ms", "ms"),
    ("pool.service_p50_ms", "ms"),
    ("pool.queue_wait_est_ms", "ms"),
    ("engine.predict_ms", "ms"),
    ("engine.microbatch4_ms_per_req", "ms"),
    ("engine.microbatch16_ms_per_req", "ms"),
    ("ir.parse_us", "us"),
    ("ir.taint_us", "us"),
    ("token.tokenize_us", "us"),
    ("token.tokens_per_req", "count"),
    ("nn.forward_ms", "ms"),
    ("nn.forward_packed_ms_per_seq", "ms"),
    ("nn.flops_per_req", "FLOP"),
    ("nn.forward_gflops", "GFLOP/s"),
    ("decode.beam_us", "us"),
    ("calib.observe_ms", "ms"),
    ("calib.dpo_step_ms", "ms"),
    ("calib.ref_logprob_ms", "ms"),
    ("calib.grad_steps", "count"),
    ("calib.skipped_triples", "count"),
    ("calib.ape_first", "ratio"),
    ("calib.ape_last", "ratio"),
    ("hls.compile_us", "us"),
    ("sim.compile_us", "us"),
    ("sim.run_us", "us"),
    ("sim.region_coverage", "ratio"),
    ("sim.exec_oracle_us", "us"),
    ("trace.overhead_ms", "ms"),
];

/// Puts `report` in the order of `want` and checks that it holds exactly
/// those metrics, with those units, each a finite number.
fn conform(report: &mut Report, want: &[(&str, &str)]) -> Result<(), String> {
    let mut ordered = Report::default();
    for &(name, unit) in want {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if m.unit != unit || !m.value.is_finite() {
            return Err(format!(
                "metric `{name}` = {} {} (want a finite value in {unit})",
                m.value, m.unit
            ));
        }
        ordered.metrics.push(m.clone());
    }
    if let Some(extra) = report
        .metrics
        .iter()
        .find(|m| !want.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!(
            "metric `{}` is not in the benchmark's list",
            extra.name
        ));
    }
    *report = ordered;
    Ok(())
}

/// Run settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon_bin: PathBuf,
    /// Scratch directory for models, daemon logs, traces and results.
    pub out_dir: PathBuf,
    /// Whether an earlier workload ran in this process (`--workload all`).
    pub after_other_workloads: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The contract metrics (end-to-end, or per-layer when traced).
    pub report: Report,
    /// Further figures printed for the reader but not in the result line.
    pub extra: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness gates (empty = correct).
    pub gates: Vec<String>,
    pub notes: Vec<String>,
    pub daemon_flags: String,
    pub model_hash: String,
}

struct Args {
    workloads: Vec<Workload>,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let workload = value("--workload")?.ok_or("--workload <name|all> is required")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?]
    };
    let seed = value("--seed")?
        .unwrap_or("1")
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .unwrap_or("12")
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let daemon_bin =
        PathBuf::from(value("--daemon")?.ok_or("--daemon <path to llmulator> is required")?);
    if !daemon_bin.is_file() {
        return Err(format!("daemon binary {} not found", daemon_bin.display()));
    }
    let out_dir = PathBuf::from(value("--out-dir")?.unwrap_or(".bench_out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    Ok(Args {
        workloads,
        ctx: Ctx {
            seed,
            seconds,
            trace,
            daemon_bin,
            out_dir,
            after_other_workloads: false,
        },
    })
}

/// The checkout's git commit, read from `.git` without leaving it.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "none".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        .unwrap_or_else(|| "none".into())
}

fn json_metrics(report: &Report) -> String {
    let mut out = String::from("{");
    for (i, m) in report.metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push('}');
    out
}

fn result_line(correct: bool, attempted: u64, failed: u64, report: &Report) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(report)
    )
}

fn run_one(ctx: &Ctx, w: Workload) -> Result<Outcome, String> {
    if ctx.trace {
        return layers::run(ctx, w);
    }
    match w {
        Workload::ServePrograms | Workload::ServeShortChurn => serve::run(ctx, w),
        Workload::CalibrateAdaptive => inproc::run_calibrate(ctx),
        Workload::ProfileSweep => inproc::run_sweep(ctx),
    }
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut total = Report::default();
    let (mut all_correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut last_line = String::new();
    for (i, &w) in args.workloads.iter().enumerate() {
        args.ctx.after_other_workloads = i > 0;
        let ctx = &args.ctx;
        let want: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
        let out = match run_one(ctx, w)
            .and_then(|mut out| conform(&mut out.report, want).map(|()| out))
        {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                return ExitCode::from(2);
            }
        };
        let correct = out.gates.is_empty() && out.attempted > 0;
        let meta = format!(
            "{{\"workload\": \"{}\", \"git_sha\": \"{}\", \"available_parallelism\": {}, \"seed\": {}, \
             \"seconds\": {}, \"traced\": {}, \"daemon_flags\": \"{}\", \"model_hash\": \"{}\"}}",
            w.name(),
            git_sha(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            ctx.seed,
            ctx.seconds,
            ctx.trace,
            out.daemon_flags,
            out.model_hash
        );
        println!(
            "== {} (seed {}, {} s, trace {})",
            w.name(),
            ctx.seed,
            ctx.seconds,
            u8::from(ctx.trace)
        );
        println!("meta: {meta}");
        for note in &out.notes {
            println!("  {note}");
        }
        for m in out.report.metrics.iter().chain(&out.extra.metrics) {
            println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
        println!("  attempted {}  failed {}", out.attempted, out.failed);
        for g in &out.gates {
            println!("  GATE FAILED: {g}");
        }
        let line = result_line(correct, out.attempted, out.failed, &out.report);
        let path = ctx.out_dir.join(format!(
            "result-{}-seed{}-trace{}.json",
            w.name(),
            ctx.seed,
            u8::from(ctx.trace)
        ));
        let all = Report {
            metrics: out
                .report
                .metrics
                .iter()
                .chain(&out.extra.metrics)
                .cloned()
                .collect(),
        };
        let file = format!(
            "{{\"meta\": {meta}, \"result\": {line}, \"all_metrics\": {}}}\n",
            json_metrics(&all)
        );
        if let Err(e) = std::fs::write(&path, file) {
            eprintln!("perfbench: {}: {e}", path.display());
            return ExitCode::from(2);
        }
        all_correct &= correct;
        attempted += out.attempted;
        failed += out.failed;
        for m in &out.report.metrics {
            total.put(&format!("{}.{}", w.name(), m.name), m.value, m.unit);
        }
        last_line = line;
    }
    if args.workloads.len() > 1 {
        last_line = result_line(all_correct, attempted, failed, &total);
    }
    println!("{last_line}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the program checks its reports against are the
    /// ones `BENCHMARK.json` declares, in the same order and units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = serde_json::parse_value(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            let field = |v: &serde_json::Value, k: &str| {
                v.as_object()
                    .and_then(|o| o.iter().find(|(n, _)| n == k))
                    .and_then(|(_, v)| v.as_str().map(str::to_string))
                    .expect("string field")
            };
            json.as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == key))
                .and_then(|(_, v)| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(&END_TO_END));
        assert_eq!(list("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn conform_orders_and_rejects_strays() {
        let mut r = Report::default();
        r.put("b", 2.0, "ms");
        r.put("a", 1.0, "s");
        conform(&mut r, &[("a", "s"), ("b", "ms")]).expect("conforms");
        assert_eq!(r.metrics[0].name, "a");
        r.put("c", 3.0, "ms");
        assert!(conform(&mut r, &[("a", "s"), ("b", "ms")]).is_err());
        let mut r = Report::default();
        r.put("a", f64::NAN, "s");
        assert!(conform(&mut r, &[("a", "s")]).is_err());
    }
}
