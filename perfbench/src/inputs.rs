//! Seeded inputs: the evaluation programs at scaled inputs, synthesized
//! programs, short token requests, arrival schedules, and the two models
//! the benchmark trains at set-up.
//!
//! The benchmark seed only chooses inputs. The models are trained from
//! fixed seeds, so every run of one commit serves the same weights.

use llmulator::{Dataset, NumericPredictor, PredictorConfig, Sample, TrainOptions};
use llmulator_ir::{render::render_program, AdaptivityClass, InputData, Program};
use llmulator_synth::{ast_gen, dataflow_gen, hw_sweep, llm_gen, random_inputs, AstGenConfig};
use llmulator_workloads::Workload;
use rand::prelude::*;
use std::path::Path;
use std::time::Duration;

/// Seed of the serving model's training data and initial weights.
const SERVE_MODEL_SEED: u64 = 7;
/// Seed of the calibration workload's static model.
pub const CALIB_MODEL_SEED: u64 = 11;
/// Synthesized samples the serving model is trained on.
const SERVE_TRAIN_SAMPLES: usize = 24;

/// The 27 evaluation workloads: Polybench, modern dataflow, accelerators.
pub fn suite() -> Vec<Workload> {
    let mut all = llmulator_workloads::polybench::all();
    all.extend(llmulator_workloads::modern::all());
    all.extend(llmulator_workloads::accelerators::all());
    all
}

/// One program at one input binding.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    pub name: String,
    pub program: Program,
    pub data: InputData,
}

impl DesignPoint {
    /// Integer scalar bindings (what a wire request can carry).
    pub fn int_inputs(&self) -> Vec<(String, i64)> {
        self.data
            .iter()
            .filter_map(|(k, v)| v.as_i64().map(|i| (k.to_string(), i)))
            .collect()
    }

    /// The `"program"`/`"inputs"` body of a wire request (no braces, no id).
    pub fn request_body(&self) -> String {
        let inputs: Vec<String> = self
            .int_inputs()
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        format!(
            "\"program\":{},\"inputs\":{{{}}},\"metrics\":[\"cycles\"]",
            json_str(&render_program(&self.program)),
            inputs.join(",")
        )
    }
}

/// JSON string literal.
fn json_str(s: &str) -> String {
    serde_json::Value::Str(s.to_string()).to_string()
}

/// Each suite workload at `per_program` seeded input scales in [lo, hi]
/// (the paper's ±50% protocol is [0.5, 1.5]), one drawn from each of
/// `per_program` equal strata so every seed covers the whole range.
pub fn scaled_suite(rng: &mut StdRng, per_program: usize, lo: f64, hi: f64) -> Vec<DesignPoint> {
    let mut out = Vec::new();
    for w in suite() {
        for j in 0..per_program {
            let u: f64 = rng.gen();
            let factor = lo + (hi - lo) * (j as f64 + u) / per_program as f64;
            out.push(DesignPoint {
                name: w.name.clone(),
                data: w.scaled_inputs(factor),
                program: w.program.clone(),
            });
        }
    }
    out
}

/// The suite's shape- and data-adaptive workloads (taint class not static).
pub fn adaptive_suite() -> Vec<Workload> {
    suite()
        .into_iter()
        .filter(|w| {
            llmulator_ir::analyze_program_taint(&w.program).class != AdaptivityClass::Static
        })
        .collect()
}

/// Seed of the synthesized program corpus. The benchmark seed chooses the
/// corpus programs' inputs, not the programs, so every seed sweeps designs
/// of the same structure and cost mix.
pub const SYNTH_CORPUS_SEED: u64 = 13;

/// `count` paper-mix synthesized programs (30% AST, 50% dataflow, 20%
/// LLM-style variants, hardware sweeps on) from [`SYNTH_CORPUS_SEED`], each
/// with random inputs drawn from `rng`; generation only, no profiling.
/// Programs with an error-severity lint are skipped, as the synthesizer
/// does.
pub fn synthesized(rng: &mut StdRng, count: usize) -> Vec<DesignPoint> {
    let corpus = &mut StdRng::seed_from_u64(SYNTH_CORPUS_SEED);
    let ast = AstGenConfig::default();
    let mut seeds: Vec<Program> = Vec::new();
    let mut out = Vec::new();
    let mut index = 0usize;
    while out.len() < count {
        index += 1;
        let roll = corpus.gen_range(0..10);
        let mut program = if roll < 3 {
            let mut p = ast_gen::gen_program(index, &ast, corpus);
            hw_sweep::random_loop_mapping(&mut p, corpus);
            p
        } else if roll < 8 || seeds.is_empty() {
            let p = if corpus.gen_bool(0.5) {
                dataflow_gen::gen_single(index, corpus)
            } else {
                dataflow_gen::gen_chain(index, corpus.gen_range(1..=3), corpus)
            };
            if seeds.len() < 16 {
                seeds.push(p.clone());
            }
            p
        } else {
            let seed = seeds.choose(corpus).expect("non-empty").clone();
            match llm_gen::variants(&seed, 1, corpus).pop() {
                Some(v) => v,
                None => continue,
            }
        };
        hw_sweep::random_mem_delay(&mut program, corpus);
        let data = random_inputs(&program, rng);
        if llmulator_ir::lint_program(&program).is_valid() {
            out.push(DesignPoint {
                name: format!("synth-{index}"),
                program,
                data,
            });
        }
    }
    out
}

/// `count` short token requests of 3–24 ids each.
pub fn short_token_requests(rng: &mut StdRng, count: usize, vocab: usize) -> Vec<Vec<u32>> {
    let vocab = u32::try_from(vocab).expect("vocabulary fits u32");
    (0..count)
        .map(|_| {
            let len = rng.gen_range(3..=24usize);
            (0..len).map(|_| rng.gen_range(0..vocab)).collect()
        })
        .collect()
}

/// One arrival of an open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// When the request is due, from the start of the phase.
    pub due: Duration,
    /// Index into the request pool.
    pub item: usize,
}

/// Paced arrivals at `rate` per second for `seconds`: arrival `i` is due
/// at `(i + j) / rate` with a seeded jitter `j` in [-0.5, 0.5), each naming
/// a uniformly chosen pool item.
pub fn paced_schedule(rng: &mut StdRng, rate: f64, seconds: f64, pool: usize) -> Vec<Arrival> {
    let n = (rate * seconds) as usize;
    (0..n)
        .map(|i| {
            let j: f64 = rng.gen::<f64>() - 0.5;
            Arrival {
                due: Duration::from_secs_f64(((i as f64 + 0.5 + j) / rate).max(0.0)),
                item: rng.gen_range(0..pool),
            }
        })
        .collect()
}

fn predictor(seed: u64) -> NumericPredictor {
    NumericPredictor::new(PredictorConfig {
        seed,
        ..PredictorConfig::default()
    })
}

/// Trains the serving model (Medium scale, direct format, fixed seed) and
/// saves it to `path`.
pub fn train_serve_model(path: &Path) -> Result<(), String> {
    let mut config =
        llmulator_synth::SynthesisConfig::paper_mix(SERVE_TRAIN_SAMPLES, SERVE_MODEL_SEED);
    config.format = llmulator_synth::DataFormat::Direct;
    let dataset = llmulator_synth::synthesize(&config);
    let mut model = predictor(SERVE_MODEL_SEED);
    model.fit(&dataset, train_options(1));
    model
        .save(path)
        .map_err(|e| format!("cannot save model {}: {e}", path.display()))
}

/// Trains the calibration workload's static model on the adaptive
/// workloads at small inputs (half and three quarters of their defaults).
pub fn train_static_model() -> Result<NumericPredictor, String> {
    let mut dataset = Dataset::new();
    for w in adaptive_suite() {
        for factor in [0.5, 0.75] {
            let sample = Sample::profile(&w.program, Some(&w.scaled_inputs(factor)))
                .map_err(|e| format!("profiling {} for training: {e}", w.name))?;
            dataset.push(sample);
        }
    }
    let mut model = predictor(CALIB_MODEL_SEED);
    model.fit(&dataset, train_options(2));
    Ok(model)
}

fn train_options(epochs: usize) -> TrainOptions {
    TrainOptions {
        epochs,
        batch_size: 8,
        lr: 3e-3,
        threads: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_at_a_seed_and_keep_the_rate() {
        let a = paced_schedule(&mut StdRng::seed_from_u64(3), 200.0, 5.0, 10);
        let b = paced_schedule(&mut StdRng::seed_from_u64(3), 200.0, 5.0, 10);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due == y.due && x.item == y.item));
        assert!((800..1200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    }

    #[test]
    fn token_requests_are_short_and_in_vocabulary() {
        let reqs = short_token_requests(&mut StdRng::seed_from_u64(1), 50, 100);
        assert!(reqs.iter().all(|r| (3..=24).contains(&r.len())));
        assert!(reqs.iter().flatten().all(|&t| t < 100));
    }

    #[test]
    fn request_body_carries_program_and_int_inputs() {
        let w = &suite()[0];
        let point = DesignPoint {
            name: w.name.clone(),
            program: w.program.clone(),
            data: w.inputs.clone(),
        };
        let line = format!("{{\"id\":1,{}}}", point.request_body());
        let v = serde_json::parse_value(&line).expect("valid JSON");
        assert!(v
            .as_object()
            .expect("object")
            .iter()
            .any(|(k, _)| k == "program"));
    }
}
