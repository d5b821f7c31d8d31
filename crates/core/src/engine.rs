//! The long-lived prediction engine behind every serving surface.
//!
//! The paper's deployment story is a cost model queried repeatedly —
//! design-space sweeps, online calibration against profiler feedback
//! (Sec. 5.1) — which needs a persistent query engine, not one-shot entry
//! points. This module is that engine:
//!
//! * an [`Engine`] owns a registry of named loaded models (the
//!   [`NumericPredictor`] and any [`CostModel`] baseline, behind the
//!   object-safe [`ServableModel`] trait) plus serving defaults
//!   ([`EngineConfig`], builder-style);
//! * a [`Session`] holds the per-client mutable state — a
//!   [`Scratch`] arena and [`BeamScratch`] reused across requests so
//!   steady-state serving allocates nothing per call;
//! * typed [`PredictRequest`] / [`PredictResponse`] messages carry program
//!   source or pre-tokenized input, a metric subset, beam-width and
//!   thread-count overrides, and optional profiler feedback.
//!
//! Predictions route through the fused
//! [`NumericPredictor::predict_tokens_batch_threads`] path (or the
//! session-scratch single-input path, which is bit-identical to it), so an
//! engine answer is exactly equal to calling the predictor directly.
//! [`Session::predict_micro_batch`] additionally packs the inputs of many
//! queued requests into one fused batch — the `llmulator serve` daemon's
//! hot path.

use crate::calibrate::PreferenceTriple;
use crate::dataset::{CostModel, Sample};
use crate::encode::SegmentedText;
use crate::error::Error;
use crate::model::{NumericPredictor, Prediction};
use crate::numeric::{metric_to_int, BeamScratch};
use crate::online::{
    abs_rel_error, AbRouter, CalibrationCounters, CalibrationStats, FeedbackQueue, Scoreboard,
};
use llmulator_ir::{parse, InputData, Program};
use llmulator_nn::Scratch;
use llmulator_sim::{CostVector, Metric};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Read-locks, recovering from poisoning (registry writes are
/// structurally atomic — a panic mid-registration leaves a valid list).
fn read_unpoisoned<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks, recovering from poisoning (same rationale).
fn write_unpoisoned<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The unified object-safe interface every servable model implements.
///
/// Baselines come in through the blanket [`CostModel`] supertrait; the
/// [`NumericPredictor`] additionally exposes itself via
/// [`ServableModel::as_predictor`], which unlocks the fused token path,
/// pre-tokenized inputs, digit confidences and calibration feedback.
pub trait ServableModel: CostModel + Send + Sync {
    /// The numeric predictor behind this model, when it is one.
    fn as_predictor(&self) -> Option<&NumericPredictor> {
        None
    }
}

impl ServableModel for NumericPredictor {
    fn as_predictor(&self) -> Option<&NumericPredictor> {
        Some(self)
    }
}

/// Adapter giving any [`CostModel`] a [`ServableModel`] face (used by
/// [`Engine::register_baseline`]; a blanket impl would conflict with the
/// predictor's specialized one).
struct BaselineModel<M>(M);

impl<M: CostModel> CostModel for BaselineModel<M> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn predict(&self, sample: &Sample) -> CostVector {
        self.0.predict(sample)
    }

    fn predict_batch(&self, samples: &[Sample]) -> Vec<CostVector> {
        self.0.predict_batch(samples)
    }

    fn try_predict_batch(&self, samples: &[Sample]) -> Result<Vec<CostVector>, Error> {
        self.0.try_predict_batch(samples)
    }
}

impl<M: CostModel + Send + Sync> ServableModel for BaselineModel<M> {}

/// Serving defaults, built builder-style:
///
/// ```
/// use llmulator::{Engine, EngineConfig};
/// let engine: Engine = EngineConfig::new()
///     .default_model("prod")
///     .threads(2)
///     .feedback_capacity(32)
///     .build();
/// assert!(engine.model_names().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    default_model: String,
    threads: usize,
    feedback_capacity: usize,
    score_window: usize,
}

impl EngineConfig {
    /// Defaults: model name `"default"`, one prediction worker per
    /// available core, shared feedback queue disabled, rolling-accuracy
    /// window of 64.
    pub fn new() -> EngineConfig {
        EngineConfig {
            default_model: "default".to_string(),
            threads: llmulator_nn::available_threads(),
            feedback_capacity: 0,
            score_window: 64,
        }
    }

    /// Name resolved when a request does not pick a model.
    #[must_use]
    pub fn default_model(mut self, name: impl Into<String>) -> EngineConfig {
        self.default_model = name.into();
        self
    }

    /// Worker threads for batch prediction (clamped to at least 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> EngineConfig {
        self.threads = threads.max(1);
        self
    }

    /// Capacity of the engine's shared cross-session [`FeedbackQueue`]
    /// (0 = disabled, the default — enable it when a
    /// [`crate::online::Calibrator`] consumes the queue).
    #[must_use]
    pub fn feedback_capacity(mut self, capacity: usize) -> EngineConfig {
        self.feedback_capacity = capacity;
        self
    }

    /// Rolling window of the per-model accuracy [`Scoreboard`].
    #[must_use]
    pub fn score_window(mut self, window: usize) -> EngineConfig {
        self.score_window = window;
        self
    }

    /// Finishes the builder into an empty engine.
    #[must_use]
    pub fn build(self) -> Engine {
        Engine::new(self)
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new()
    }
}

/// One registry entry: the model, behind an [`Arc`] so in-flight requests
/// finish on the version they resolved even while a hot swap replaces it.
struct Registered {
    name: String,
    epoch: u64,
    model: Arc<dyn ServableModel>,
}

/// A resolved model: owned name + swap epoch + a strong reference to the
/// exact version the request will be served by. Holding the [`Arc`] (not a
/// registry borrow) is what makes hot swaps non-blocking: a swap only
/// retires the old version once its last in-flight request drops it.
#[derive(Clone)]
pub struct Resolved {
    /// The registered model name the request resolved to.
    pub name: String,
    /// The swap epoch of this registration (monotonic across the engine;
    /// echoed in [`PredictResponse::epoch`]).
    pub epoch: u64,
    /// The model version itself.
    pub model: Arc<dyn ServableModel>,
}

impl std::fmt::Debug for Resolved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resolved")
            .field("name", &self.name)
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// A long-lived prediction engine: named model registry, serving defaults
/// and the online-calibration surfaces (feedback queue, A/B router,
/// per-model scoreboard, calibration counters).
///
/// The engine is `Sync` and every mutating surface takes `&self` behind
/// interior locks, so one engine can back many concurrent [`Session`]s
/// while a background [`crate::online::Calibrator`] hot-swaps models into
/// the registry (latest wins; see [`Resolved`] for why serving threads
/// never block on a swap).
pub struct Engine {
    config: EngineConfig,
    models: RwLock<Vec<Registered>>,
    swap_epoch: AtomicU64,
    router: RwLock<Option<AbRouter>>,
    feedback: FeedbackQueue,
    scores: Scoreboard,
    calibration: CalibrationCounters,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("models", &self.model_names())
            .field("swap_epoch", &self.swap_epoch())
            .finish()
    }
}

impl Engine {
    /// Empty engine with the given serving defaults.
    pub fn new(config: EngineConfig) -> Engine {
        let feedback = FeedbackQueue::new(config.feedback_capacity);
        let scores = Scoreboard::new(config.score_window);
        Engine {
            config,
            models: RwLock::new(Vec::new()),
            swap_epoch: AtomicU64::new(0),
            router: RwLock::new(None),
            feedback,
            scores,
            calibration: CalibrationCounters::default(),
        }
    }

    /// The serving defaults.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Registers any servable model under `name`. Re-registering a name
    /// replaces the previous model (latest wins) — this is the hot-swap
    /// primitive: in-flight requests keep the version they resolved, new
    /// requests see the replacement and a fresh swap epoch.
    pub fn register_model(
        &self,
        name: impl Into<String>,
        model: Box<dyn ServableModel>,
    ) -> &Engine {
        let name = name.into();
        let model: Arc<dyn ServableModel> = Arc::from(model);
        let mut models = write_unpoisoned(&self.models);
        let epoch = self.swap_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        match models.iter_mut().find(|r| r.name == name) {
            Some(slot) => {
                slot.model = model;
                slot.epoch = epoch;
            }
            None => models.push(Registered { name, epoch, model }),
        }
        self
    }

    /// Registers a trained numeric predictor under `name`.
    pub fn register_predictor(&self, name: impl Into<String>, model: NumericPredictor) -> &Engine {
        self.register_model(name, Box::new(model))
    }

    /// Registers a baseline cost model under `name`.
    pub fn register_baseline<M: CostModel + Send + Sync + 'static>(
        &self,
        name: impl Into<String>,
        model: M,
    ) -> &Engine {
        self.register_model(name, Box::new(BaselineModel(model)))
    }

    /// Loads a predictor from a model file (see [`NumericPredictor::save`])
    /// and registers it under `name`.
    ///
    /// # Errors
    ///
    /// Returns a [`Error::Persist`]-rooted chain naming the file on
    /// filesystem, decode or format-version failure.
    pub fn load_predictor(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<&Engine, Error> {
        let path = path.as_ref();
        let model = NumericPredictor::load(path).map_err(|e| {
            Error::from(e).context(format!("cannot load model `{}`", path.display()))
        })?;
        Ok(self.register_predictor(name, model))
    }

    /// Registered model names, in registration order.
    pub fn model_names(&self) -> Vec<String> {
        read_unpoisoned(&self.models)
            .iter()
            .map(|r| r.name.clone())
            .collect()
    }

    /// True when `name` is registered.
    pub fn has_model(&self, name: &str) -> bool {
        read_unpoisoned(&self.models).iter().any(|r| r.name == name)
    }

    /// The current swap epoch: increments on every (re)registration, so
    /// comparing two responses' [`PredictResponse::epoch`] says whether a
    /// hot swap happened between them.
    pub fn swap_epoch(&self) -> u64 {
        self.swap_epoch.load(Ordering::Relaxed)
    }

    /// Resolves a request's model choice (`None` means the configured
    /// default) against the registry. The returned [`Resolved`] owns a
    /// strong reference to the version it picked.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownModel`] listing the loaded names.
    pub fn resolve(&self, name: Option<&str>) -> Result<Resolved, Error> {
        let wanted = name.unwrap_or(&self.config.default_model);
        let models = read_unpoisoned(&self.models);
        models
            .iter()
            .find(|r| r.name == wanted)
            .map(|r| Resolved {
                name: r.name.clone(),
                epoch: r.epoch,
                model: Arc::clone(&r.model),
            })
            .ok_or_else(|| Error::UnknownModel {
                name: wanted.to_string(),
                available: models.iter().map(|r| r.name.clone()).collect(),
            })
    }

    /// Resolves like [`Engine::resolve`], but requests that name no model
    /// are split across variants by the configured [`AbRouter`] (when one
    /// is set) using `route_key` — the serving path's entry point.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownModel`] listing the loaded names.
    pub fn resolve_routed(&self, name: Option<&str>, route_key: u64) -> Result<Resolved, Error> {
        if name.is_none() {
            let picked = read_unpoisoned(&self.router)
                .as_ref()
                .map(|router| router.pick(route_key).to_string());
            if let Some(variant) = picked {
                return self.resolve(Some(&variant));
            }
        }
        self.resolve(name)
    }

    /// Installs (or clears) the A/B router splitting default-model traffic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownModel`] when a routed variant is not
    /// registered — a router must never send traffic into a resolution
    /// error.
    pub fn set_router(&self, router: Option<AbRouter>) -> Result<(), Error> {
        if let Some(router) = &router {
            for (name, weight) in router.variants() {
                if *weight > 0 && !self.has_model(name) {
                    return Err(Error::UnknownModel {
                        name: name.clone(),
                        available: self.model_names(),
                    });
                }
            }
        }
        *write_unpoisoned(&self.router) = router;
        Ok(())
    }

    /// The installed A/B router, when one is set.
    pub fn router(&self) -> Option<AbRouter> {
        read_unpoisoned(&self.router).clone()
    }

    /// The shared cross-session feedback queue (disabled unless
    /// [`EngineConfig::feedback_capacity`] is positive).
    pub fn feedback(&self) -> &FeedbackQueue {
        &self.feedback
    }

    /// The per-model rolling accuracy/latency scoreboard.
    pub fn scoreboard(&self) -> &Scoreboard {
        &self.scores
    }

    /// Lifetime calibration counters (written by the background
    /// [`crate::online::Calibrator`]).
    pub fn calibration(&self) -> &CalibrationCounters {
        &self.calibration
    }

    /// A point-in-time snapshot of the calibration subsystem.
    pub fn calibration_stats(&self) -> CalibrationStats {
        CalibrationStats {
            updates: self.calibration.updates.load(Ordering::Relaxed),
            hot_swaps: self.calibration.hot_swaps.load(Ordering::Relaxed),
            calibrations_rolled_back: self.calibration.rolled_back.load(Ordering::Relaxed),
            checkpoints: self.calibration.checkpoints.load(Ordering::Relaxed),
            checkpoint_errors: self.calibration.checkpoint_errors.load(Ordering::Relaxed),
            queue_depth: self.feedback.len(),
            feedback_accepted: self.feedback.accepted(),
            feedback_dropped: self.feedback.dropped(),
        }
    }

    /// Opens a serving session against this engine.
    pub fn session(&self) -> Session<'_> {
        Session {
            engine: self,
            scratch: Scratch::new(),
            beam: BeamScratch::new(),
            served: 0,
        }
    }
}

/// One prediction input.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictInput {
    /// Program source in the CLI's C-like surface syntax plus scalar input
    /// bindings; parsed, validated and encoded exactly like the direct data
    /// format (no profiling — this is a prediction, not ground truth).
    Source {
        /// The program text.
        program: String,
        /// `name = value` runtime bindings.
        inputs: Vec<(String, i64)>,
    },
    /// Pre-tokenized model input (predictor models only — baselines
    /// featurize the IR and cannot consume raw tokens).
    Tokens(Vec<u32>),
    /// An already-built sample (e.g. from a dataset or cache).
    Sample(Box<Sample>),
}

/// Calibration feedback for one request item: the profiler's ground truth
/// against the model's earlier prediction, in the metric's natural unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Feedback {
    /// Index of the request input the feedback belongs to.
    pub item: usize,
    /// The profiled metric.
    pub metric: Metric,
    /// Ground-truth ("winning") value.
    pub actual: f64,
    /// Model-predicted ("losing") value.
    pub predicted: f64,
}

/// A typed prediction request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredictRequest {
    /// Model name; `None` resolves the engine's configured default.
    pub model: Option<String>,
    /// One or more inputs, predicted as a batch.
    pub inputs: Vec<PredictInput>,
    /// Metric subset (response order follows this); `None` means all four.
    pub metrics: Option<Vec<Metric>>,
    /// Beam-width override for digit decoding.
    pub beam_width: Option<usize>,
    /// Worker-thread override for this request.
    pub threads: Option<usize>,
    /// Optional profiler feedback routed into the engine's shared feedback
    /// queue and accuracy scoreboard.
    pub feedback: Option<Feedback>,
    /// A/B routing key (e.g. a hash of the wire request id). Only consulted
    /// when `model` is `None` and the engine has a router; absent keys
    /// route as key 0.
    pub route_key: Option<u64>,
}

impl PredictRequest {
    /// Empty request (add inputs with the builder methods).
    pub fn new() -> PredictRequest {
        PredictRequest::default()
    }

    /// Request for one pre-tokenized input.
    pub fn tokens(tokens: Vec<u32>) -> PredictRequest {
        PredictRequest::new().input(PredictInput::Tokens(tokens))
    }

    /// Request for one program source with bindings.
    pub fn source(program: impl Into<String>, inputs: Vec<(String, i64)>) -> PredictRequest {
        PredictRequest::new().input(PredictInput::Source {
            program: program.into(),
            inputs,
        })
    }

    /// Request for one existing sample.
    pub fn sample(sample: Sample) -> PredictRequest {
        PredictRequest::new().input(PredictInput::Sample(Box::new(sample)))
    }

    /// Appends an input.
    #[must_use]
    pub fn input(mut self, input: PredictInput) -> PredictRequest {
        self.inputs.push(input);
        self
    }

    /// Targets a specific registered model.
    #[must_use]
    pub fn for_model(mut self, name: impl Into<String>) -> PredictRequest {
        self.model = Some(name.into());
        self
    }

    /// Restricts the response to a metric subset.
    #[must_use]
    pub fn metrics(mut self, metrics: Vec<Metric>) -> PredictRequest {
        self.metrics = Some(metrics);
        self
    }

    /// Overrides the decode beam width.
    #[must_use]
    pub fn beam_width(mut self, width: usize) -> PredictRequest {
        self.beam_width = Some(width);
        self
    }

    /// Overrides the worker-thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> PredictRequest {
        self.threads = Some(threads);
        self
    }

    /// Attaches calibration feedback.
    #[must_use]
    pub fn feedback(mut self, feedback: Feedback) -> PredictRequest {
        self.feedback = Some(feedback);
        self
    }

    /// Sets the A/B routing key (see [`PredictRequest::route_key`]).
    #[must_use]
    pub fn route_key(mut self, key: u64) -> PredictRequest {
        self.route_key = Some(key);
        self
    }

    /// A copy of the request with any calibration feedback stripped. The
    /// serve pool uses this when retrying a request singly after a
    /// contained batch panic: `predict_micro_batch` records feedback during
    /// planning (before the fused predict runs), so replaying the original
    /// request would count the triple twice.
    #[must_use]
    pub fn without_feedback(&self) -> PredictRequest {
        PredictRequest {
            feedback: None,
            ..self.clone()
        }
    }
}

/// One metric of one predicted item. Predictor models fill the digit-level
/// fields; baselines report the value alone.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Which metric.
    pub metric: Metric,
    /// Predicted value in the metric's natural unit.
    pub value: f64,
    /// Chosen digits, MSB first (predictor models).
    pub digits: Option<Vec<u8>>,
    /// Final-position confidence (predictor models).
    pub confidence: Option<f32>,
    /// Geometric-mean confidence (predictor models).
    pub mean_confidence: Option<f32>,
}

/// All requested metrics for one input.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemPrediction {
    /// One entry per requested metric, in request order.
    pub metrics: Vec<MetricValue>,
}

impl ItemPrediction {
    /// The value for one metric, when it was requested.
    pub fn value(&self, metric: Metric) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.metric == metric)
            .map(|m| m.value)
    }
}

/// A typed prediction response.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictResponse {
    /// The resolved model name that served the request.
    pub model: String,
    /// The swap epoch of the model version that served the request —
    /// attributes every answer to an exact registry generation across hot
    /// swaps.
    pub epoch: u64,
    /// One entry per request input, in input order.
    pub items: Vec<ItemPrediction>,
}

/// Per-client serving state: reusable scratch arenas. Sessions are cheap;
/// open one per connection/worker.
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e Engine,
    scratch: Scratch,
    beam: BeamScratch,
    served: usize,
}

impl<'e> Session<'e> {
    /// The engine this session serves from.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// Requests served so far (successful predictions only).
    pub fn served(&self) -> usize {
        self.served
    }

    /// Answers one request.
    ///
    /// Predictor-backed answers are bit-identical to calling
    /// [`NumericPredictor::predict_batch_threads`] /
    /// [`NumericPredictor::predict_tokens_batch_threads`] directly with the
    /// same inputs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownModel`] for an unregistered model,
    /// [`Error::InvalidRequest`] for structural problems (no inputs, empty
    /// metric list, token input to a baseline, feedback out of range) and
    /// [`Error::Ir`] chains for unparseable program source.
    pub fn predict(&mut self, request: &PredictRequest) -> Result<PredictResponse, Error> {
        let engine = self.engine;
        let resolved = engine.resolve_routed(
            request.model.as_deref(),
            request.route_key.unwrap_or_default(),
        )?;
        let metrics = resolve_metrics(request.metrics.as_deref())?;
        if request.inputs.is_empty() {
            return Err(Error::InvalidRequest("request has no inputs".into()));
        }
        let items = match resolved.model.as_predictor() {
            Some(predictor) => {
                let seqs = tokenize_inputs(predictor, &request.inputs)?;
                let beam = resolve_beam_width(predictor, request.beam_width)?;
                let threads = request.threads.unwrap_or(engine.config.threads).max(1);
                if let Some(fb) = request.feedback {
                    self.record_feedback(&resolved.name, &seqs, fb)?;
                }
                let preds = self.predict_seqs(predictor, &seqs, threads, beam);
                preds
                    .iter()
                    .map(|p| item_from_prediction(p, &metrics))
                    .collect()
            }
            None => {
                if request.feedback.is_some() {
                    return Err(Error::InvalidRequest(format!(
                        "calibration feedback requires a predictor model, `{}` is a baseline",
                        resolved.name
                    )));
                }
                let samples = baseline_samples(&request.inputs)?;
                let costs = resolved.model.try_predict_batch(&samples)?;
                costs.iter().map(|c| item_from_cost(c, &metrics)).collect()
            }
        };
        self.served += 1;
        Ok(PredictResponse {
            model: resolved.name,
            epoch: resolved.epoch,
            items,
        })
    }

    /// Answers a queue of requests, micro-batching across them: all inputs
    /// of all requests that resolve to the same predictor model and beam
    /// width are packed into **one**
    /// [`NumericPredictor::predict_tokens_batch_threads`] call (one fused
    /// GEMM per layer per length group), then split back per request.
    /// Requests that fail to resolve or tokenize get their own `Err` slot
    /// without poisoning the batch; baseline-targeted requests fall back to
    /// [`Session::predict`]. Responses keep request order and are exactly
    /// the responses `predict` would have produced one at a time.
    pub fn predict_micro_batch(
        &mut self,
        requests: &[PredictRequest],
    ) -> Vec<Result<PredictResponse, Error>> {
        struct Plan {
            request: usize,
            resolved: Resolved,
            seqs: Vec<Vec<u32>>,
            metrics: Vec<Metric>,
            beam: usize,
            threads: usize,
        }

        let engine = self.engine;
        let mut out: Vec<Option<Result<PredictResponse, Error>>> =
            (0..requests.len()).map(|_| None).collect();
        let mut plans: Vec<Plan> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let plan = (|| -> Result<Option<Plan>, Error> {
                let resolved = engine.resolve_routed(
                    request.model.as_deref(),
                    request.route_key.unwrap_or_default(),
                )?;
                if resolved.model.as_predictor().is_none() {
                    return Ok(None); // baseline: served unfused below
                }
                let metrics = resolve_metrics(request.metrics.as_deref())?;
                if request.inputs.is_empty() {
                    return Err(Error::InvalidRequest("request has no inputs".into()));
                }
                let predictor = resolved
                    .model
                    .as_predictor()
                    .expect("checked to be a predictor above");
                let seqs = tokenize_inputs(predictor, &request.inputs)?;
                // Validate everything before recording feedback: a request
                // `predict` would reject must not leave its feedback triple
                // in the shared queue either.
                let beam = resolve_beam_width(predictor, request.beam_width)?;
                if let Some(fb) = request.feedback {
                    self.record_feedback(&resolved.name, &seqs, fb)?;
                }
                Ok(Some(Plan {
                    request: i,
                    resolved,
                    seqs,
                    metrics,
                    beam,
                    threads: request.threads.unwrap_or(engine.config.threads).max(1),
                }))
            })();
            match plan {
                Ok(Some(p)) => plans.push(p),
                Ok(None) => out[i] = Some(self.predict(&requests[i])),
                Err(e) => out[i] = Some(Err(e)),
            }
        }

        // Fuse plans sharing (model, epoch, beam): one packed batch per
        // group. Keying on the epoch (not just the name) means two plans
        // that straddled a hot swap run on their own resolved versions —
        // every plan holds its model `Arc`, so no re-resolution can miss.
        let mut remaining = plans;
        while !remaining.is_empty() {
            let key = (
                remaining[0].resolved.name.clone(),
                remaining[0].resolved.epoch,
                remaining[0].beam,
            );
            let (mut group, rest): (Vec<Plan>, Vec<Plan>) = remaining.into_iter().partition(|p| {
                (p.resolved.name.as_str(), p.resolved.epoch, p.beam)
                    == (key.0.as_str(), key.1, key.2)
            });
            remaining = rest;
            // Move (not clone) every plan's sequences into the fused batch,
            // remembering each plan's span for the response split.
            let mut all: Vec<Vec<u32>> =
                Vec::with_capacity(group.iter().map(|p| p.seqs.len()).sum());
            let mut counts = Vec::with_capacity(group.len());
            for plan in &mut group {
                counts.push(plan.seqs.len());
                all.append(&mut plan.seqs);
            }
            let threads = group.iter().map(|p| p.threads).max().unwrap_or(1);
            let model = Arc::clone(&group[0].resolved.model);
            let predictor = model
                .as_predictor()
                .expect("only predictor-backed requests are planned");
            let preds = predictor.predict_tokens_batch_threads_width(&all, threads, key.2);
            let mut offset = 0;
            for (plan, count) in group.iter().zip(counts) {
                let slice = &preds[offset..offset + count];
                offset += count;
                out[plan.request] = Some(Ok(PredictResponse {
                    model: plan.resolved.name.clone(),
                    epoch: plan.resolved.epoch,
                    items: slice
                        .iter()
                        .map(|p| item_from_prediction(p, &plan.metrics))
                        .collect(),
                }));
                self.served += 1;
            }
        }

        out.into_iter()
            .map(|slot| slot.expect("every request answered exactly once"))
            .collect()
    }

    /// Predicts token sequences through the fused batch path, or — for a
    /// single sequence on one thread — through the session's scratch arena
    /// (bit-identical, allocation-free in steady state).
    fn predict_seqs(
        &mut self,
        predictor: &NumericPredictor,
        seqs: &[Vec<u32>],
        threads: usize,
        beam: usize,
    ) -> Vec<Prediction> {
        if let [tokens] = seqs {
            let (seq, pooled) = llmulator_nn::forward(
                predictor.encoder(),
                predictor.store(),
                tokens,
                None,
                &mut self.scratch,
            );
            let preds = predictor.decode_pooled_rows_scratch(&pooled, beam, &mut self.beam);
            self.scratch.recycle(seq);
            self.scratch.recycle(pooled);
            preds
        } else {
            predictor.predict_tokens_batch_threads_width(seqs, threads, beam)
        }
    }

    /// Routes a feedback triple into the engine's shared feedback queue
    /// (when enabled) and the per-model scoreboard. Exact predictions carry no preference signal and are
    /// skipped as training data (mirroring
    /// [`crate::calibrate::DpoCalibrator::observe`]) but still count as
    /// accuracy signal on the scoreboard.
    fn record_feedback(&self, model: &str, seqs: &[Vec<u32>], fb: Feedback) -> Result<(), Error> {
        let tokens = seqs.get(fb.item).ok_or_else(|| {
            Error::InvalidRequest(format!(
                "feedback.item {} out of range ({} inputs)",
                fb.item,
                seqs.len()
            ))
        })?;
        self.engine
            .scoreboard()
            .record_feedback_error(model, abs_rel_error(fb.actual, fb.predicted));
        let y_w = metric_to_int(fb.metric, fb.actual);
        let y_l = metric_to_int(fb.metric, fb.predicted);
        if y_w != y_l && self.engine.feedback().is_enabled() {
            self.engine.feedback().push(PreferenceTriple {
                tokens: tokens.clone(),
                metric: fb.metric,
                y_w,
                y_l,
            });
        }
        Ok(())
    }
}

/// Hard ceiling on per-request beam widths. Beam memory grows as
/// `width × base` hypotheses per digit position, so an unchecked
/// wire-supplied width (e.g. `beam_width: 1e9` on one JSONL line) would
/// allocate gigabytes mid-decode; widths beyond the full digit lattice
/// carry no extra information anyway.
pub const MAX_BEAM_WIDTH: usize = 256;

/// Resolves a request's beam-width override against [`MAX_BEAM_WIDTH`]
/// (`None` = the model's own width; 0 clamps to 1).
fn resolve_beam_width(
    predictor: &NumericPredictor,
    requested: Option<usize>,
) -> Result<usize, Error> {
    let width = requested.unwrap_or(predictor.beam_width()).max(1);
    if width > MAX_BEAM_WIDTH {
        return Err(Error::InvalidRequest(format!(
            "beam_width {width} exceeds the maximum of {MAX_BEAM_WIDTH}"
        )));
    }
    Ok(width)
}

/// Validates and resolves a metric subset (`None` = all four).
fn resolve_metrics(metrics: Option<&[Metric]>) -> Result<Vec<Metric>, Error> {
    match metrics {
        None => Ok(Metric::all().to_vec()),
        Some([]) => Err(Error::InvalidRequest(
            "metric subset is empty (omit `metrics` for all four)".into(),
        )),
        Some(subset) => Ok(subset.to_vec()),
    }
}

/// Parses and encodes a source input into the same segmented text the
/// direct data format uses (no `<think>` segment, no profiling).
fn source_to_tokens(
    predictor: &NumericPredictor,
    program: &str,
    inputs: &[(String, i64)],
) -> Result<Vec<u32>, Error> {
    let (parsed, data) = parse_source(program, inputs)?;
    let text = SegmentedText::from_program(&parsed, Some(&data), None);
    Ok(text
        .tokenize(predictor.tokenizer(), predictor.config().max_len)
        .tokens)
}

/// Parses + validates program source and builds its input bindings.
fn parse_source(program: &str, inputs: &[(String, i64)]) -> Result<(Program, InputData), Error> {
    let parsed = parse::parse_program(program)
        .map_err(|e| Error::from(e).context("cannot parse program source"))?;
    parsed
        .validate()
        .map_err(|e| Error::from(e).context("program failed validation"))?;
    let mut data = InputData::new();
    for (name, value) in inputs {
        data.bind(name.as_str(), *value);
    }
    Ok((parsed, data))
}

/// Tokenizes every input of a predictor-bound request.
fn tokenize_inputs(
    predictor: &NumericPredictor,
    inputs: &[PredictInput],
) -> Result<Vec<Vec<u32>>, Error> {
    inputs
        .iter()
        .map(|input| match input {
            PredictInput::Tokens(tokens) => Ok(tokens.clone()),
            PredictInput::Source { program, inputs } => {
                source_to_tokens(predictor, program, inputs)
            }
            PredictInput::Sample(sample) => Ok(predictor.tokenize_sample(sample).tokens),
        })
        .collect()
}

/// Builds the samples a baseline model featurizes. Token inputs carry no IR
/// and are rejected; source inputs get a zeroed cost vector (prediction
/// inputs have no ground truth by definition — no baseline reads it).
fn baseline_samples(inputs: &[PredictInput]) -> Result<Vec<Sample>, Error> {
    inputs
        .iter()
        .map(|input| match input {
            PredictInput::Sample(sample) => Ok((**sample).clone()),
            PredictInput::Source { program, inputs } => {
                let (parsed, data) = parse_source(program, inputs)?;
                let text = SegmentedText::from_program(&parsed, Some(&data), None);
                Ok(Sample {
                    text,
                    program: parsed,
                    data,
                    cost: CostVector {
                        power_mw: 0.0,
                        area_um2: 0.0,
                        ff: 0,
                        cycles: 0,
                    },
                })
            }
            PredictInput::Tokens(_) => Err(Error::InvalidRequest(
                "baseline models featurize the IR and cannot consume pre-tokenized input".into(),
            )),
        })
        .collect()
}

/// Projects a full digit-level [`Prediction`] onto the requested metrics.
fn item_from_prediction(pred: &Prediction, metrics: &[Metric]) -> ItemPrediction {
    ItemPrediction {
        metrics: metrics
            .iter()
            .map(|&m| {
                let mp = pred.metric(m);
                MetricValue {
                    metric: m,
                    value: mp.value,
                    digits: Some(mp.digits.clone()),
                    confidence: Some(mp.confidence),
                    mean_confidence: Some(mp.mean_confidence),
                }
            })
            .collect(),
    }
}

/// Projects a baseline cost vector onto the requested metrics.
fn item_from_cost(cost: &CostVector, metrics: &[Metric]) -> ItemPrediction {
    ItemPrediction {
        metrics: metrics
            .iter()
            .map(|&m| MetricValue {
                metric: m,
                value: cost.metric(m),
                digits: None,
                confidence: None,
                mean_confidence: None,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelScale, PredictorConfig};
    use crate::numeric::DigitCodec;
    use llmulator_ir::builder::OperatorBuilder;
    use llmulator_ir::{Expr, LValue, Stmt};
    use llmulator_token::NumericMode;

    fn tiny_predictor(seed: u64) -> NumericPredictor {
        NumericPredictor::new(PredictorConfig {
            scale: ModelScale::Small,
            codec: DigitCodec::decimal(4),
            numeric_mode: NumericMode::Digits,
            max_len: 48,
            seed,
        })
    }

    fn program(n: usize) -> Program {
        let op = OperatorBuilder::new("inc")
            .array_param("a", [n])
            .loop_nest(&[("i", n)], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone()]) + Expr::int(1),
                )]
            })
            .build();
        Program::single_op(op)
    }

    fn sample(n: usize) -> Sample {
        Sample::profile(&program(n), None).expect("profiles")
    }

    fn engine_with_default() -> Engine {
        let engine = EngineConfig::new().threads(2).build();
        engine.register_predictor("default", tiny_predictor(3));
        engine
    }

    /// A baseline that predicts constants (enough to exercise the adapter).
    struct Fixed(f64);

    impl CostModel for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }

        fn predict(&self, _sample: &Sample) -> CostVector {
            CostVector {
                power_mw: self.0,
                area_um2: self.0,
                ff: self.0 as u64,
                cycles: self.0 as u64,
            }
        }
    }

    #[test]
    fn session_predictions_match_the_direct_batch_path_exactly() {
        let engine = engine_with_default();
        let resolved = engine.resolve(None).expect("default registered");
        let predictor = resolved.model.as_predictor().expect("is a predictor");
        let samples: Vec<Sample> = [4usize, 8, 4, 12].iter().map(|&n| sample(n)).collect();
        let oracle = predictor.predict_batch_threads(&samples, 2);

        let mut session = engine.session();
        let mut request = PredictRequest::new();
        for s in &samples {
            request = request.input(PredictInput::Sample(Box::new(s.clone())));
        }
        let response = session.predict(&request).expect("serves");
        assert_eq!(response.model, "default");
        assert_eq!(response.items.len(), samples.len());
        for (item, pred) in response.items.iter().zip(&oracle) {
            for mv in &item.metrics {
                let mp = pred.metric(mv.metric);
                assert!(mv.value.to_bits() == mp.value.to_bits(), "bit-identical");
                assert_eq!(mv.digits.as_deref(), Some(mp.digits.as_slice()));
                assert_eq!(mv.confidence, Some(mp.confidence));
            }
        }
    }

    #[test]
    fn single_input_scratch_path_is_bit_identical_too() {
        let engine = engine_with_default();
        let resolved = engine.resolve(None).expect("default");
        let predictor = resolved.model.as_predictor().expect("predictor");
        let tokens: Vec<u32> = vec![3, 5, 7, 9, 11];
        let oracle = predictor.predict_tokens_batch_threads(std::slice::from_ref(&tokens), 1);
        let mut session = engine.session();
        // Serve the same request repeatedly: the session scratch path must
        // stay exact in steady state, not just on first use.
        for round in 0..3 {
            let response = session
                .predict(&PredictRequest::tokens(tokens.clone()).threads(1))
                .expect("serves");
            let item = &response.items[0];
            for (mv, mp) in item.metrics.iter().zip(&oracle[0].per_metric) {
                assert_eq!(mv.value.to_bits(), mp.value.to_bits(), "round {round}");
                assert_eq!(mv.digits.as_deref(), Some(mp.digits.as_slice()));
            }
        }
        assert_eq!(session.served(), 3);
    }

    #[test]
    fn metric_subset_filters_and_orders_the_response() {
        let engine = engine_with_default();
        let mut session = engine.session();
        let response = session
            .predict(
                &PredictRequest::tokens(vec![1, 2, 3]).metrics(vec![Metric::Cycles, Metric::Power]),
            )
            .expect("serves");
        let got: Vec<Metric> = response.items[0].metrics.iter().map(|m| m.metric).collect();
        assert_eq!(got, vec![Metric::Cycles, Metric::Power]);
        let err = session
            .predict(&PredictRequest::tokens(vec![1]).metrics(vec![]))
            .expect_err("empty subset");
        assert!(matches!(err, Error::InvalidRequest(_)));
    }

    #[test]
    fn unknown_model_and_empty_requests_are_typed_errors() {
        let engine = engine_with_default();
        let mut session = engine.session();
        let err = session
            .predict(&PredictRequest::tokens(vec![1]).for_model("nope"))
            .expect_err("unknown model");
        assert!(matches!(err, Error::UnknownModel { .. }), "{err:?}");
        assert!(err.to_string().contains("default"), "lists roster: {err}");
        let err = session
            .predict(&PredictRequest::new())
            .expect_err("no inputs");
        assert!(matches!(err, Error::InvalidRequest(_)));
    }

    #[test]
    fn source_inputs_parse_and_predict_like_the_equivalent_sample() {
        let engine = engine_with_default();
        let resolved = engine.resolve(None).expect("default");
        let predictor = resolved.model.as_predictor().expect("predictor");
        let text = program(8).render();
        // The direct-format sample for the same program/input pair.
        let s = sample(8);
        let oracle = predictor.predict_batch_threads(std::slice::from_ref(&s), 1);
        let mut session = engine.session();
        let response = session
            .predict(&PredictRequest::source(text, vec![]))
            .expect("parses and serves");
        assert_eq!(
            response.items[0].value(Metric::Cycles),
            Some(oracle[0].metric(Metric::Cycles).value)
        );

        let err = session
            .predict(&PredictRequest::source("void oops(", vec![]))
            .expect_err("syntax error");
        assert!(err.chain().contains("parse"), "{}", err.chain());
    }

    #[test]
    fn baselines_serve_values_without_digit_fields() {
        let engine = EngineConfig::new().default_model("fixed").build();
        engine.register_baseline("fixed", Fixed(7.0));
        let mut session = engine.session();
        let response = session
            .predict(&PredictRequest::sample(sample(4)))
            .expect("serves");
        let mv = &response.items[0].metrics[0];
        assert_eq!(mv.value, 7.0);
        assert!(mv.digits.is_none() && mv.confidence.is_none());
        // Token input to a baseline is a typed error, not a panic.
        let err = session
            .predict(&PredictRequest::tokens(vec![1, 2]))
            .expect_err("tokens need a predictor");
        assert!(matches!(err, Error::InvalidRequest(_)));
    }

    #[test]
    fn feedback_lands_in_the_shared_queue() {
        let engine = EngineConfig::new().threads(2).feedback_capacity(4).build();
        engine.register_predictor("default", tiny_predictor(3));
        let mut session = engine.session();
        let request = PredictRequest::tokens(vec![2, 4, 6]).feedback(Feedback {
            item: 0,
            metric: Metric::Cycles,
            actual: 120.0,
            predicted: 90.0,
        });
        session.predict(&request).expect("serves");
        assert_eq!(engine.feedback().accepted(), 1);
        // An exact prediction carries no signal.
        let request = PredictRequest::tokens(vec![2, 4, 6]).feedback(Feedback {
            item: 0,
            metric: Metric::Cycles,
            actual: 120.0,
            predicted: 120.0,
        });
        session.predict(&request).expect("serves");
        assert_eq!(engine.feedback().accepted(), 1, "exact match skipped");
        // Out-of-range item is a typed error.
        let request = PredictRequest::tokens(vec![2]).feedback(Feedback {
            item: 5,
            metric: Metric::Cycles,
            actual: 1.0,
            predicted: 2.0,
        });
        assert!(matches!(
            session.predict(&request),
            Err(Error::InvalidRequest(_))
        ));
        assert_eq!(
            engine.feedback().accepted(),
            1,
            "rejected request queues nothing"
        );
    }

    #[test]
    fn micro_batch_fuses_across_requests_and_isolates_errors() {
        let engine = EngineConfig::new().threads(2).build();
        engine.register_predictor("default", tiny_predictor(3));
        engine.register_baseline("fixed", Fixed(3.0));
        let resolved = engine.resolve(None).expect("default");
        let predictor = resolved.model.as_predictor().expect("predictor");

        let requests = vec![
            PredictRequest::tokens(vec![1, 2, 3]),
            PredictRequest::tokens(vec![9]).for_model("nope"),
            PredictRequest::sample(sample(4)).for_model("fixed"),
            PredictRequest::new()
                .input(PredictInput::Tokens(vec![4, 5]))
                .input(PredictInput::Tokens(vec![6, 7, 8, 9])),
        ];
        let mut session = engine.session();
        let results = session.predict_micro_batch(&requests);
        assert_eq!(results.len(), 4);
        // Request 0 and 3 were fused into one batch; answers must equal the
        // unfused oracle exactly.
        let oracle = predictor
            .predict_tokens_batch_threads(&[vec![1, 2, 3], vec![4, 5], vec![6, 7, 8, 9]], 2);
        let r0 = results[0].as_ref().expect("served");
        assert_eq!(
            r0.items[0].value(Metric::Cycles),
            Some(oracle[0].metric(Metric::Cycles).value)
        );
        let r3 = results[3].as_ref().expect("served");
        assert_eq!(r3.items.len(), 2);
        assert_eq!(
            r3.items[1].value(Metric::Power),
            Some(oracle[2].metric(Metric::Power).value)
        );
        assert!(matches!(results[1], Err(Error::UnknownModel { .. })));
        let r2 = results[2].as_ref().expect("baseline served");
        assert_eq!(r2.model, "fixed");
        assert_eq!(r2.items[0].value(Metric::Power), Some(3.0));
    }

    #[test]
    fn registry_replaces_on_reregistration_and_loads_from_disk() {
        let engine = EngineConfig::new().build();
        engine.register_predictor("m", tiny_predictor(1));
        engine.register_predictor("m", tiny_predictor(2));
        assert_eq!(engine.model_names(), vec!["m"]);

        let dir = std::env::temp_dir().join(format!(
            "llmulator_engine_test_{}_{}",
            std::process::id(),
            line!()
        ));
        let path = dir.join("model.json");
        tiny_predictor(9).save(&path).expect("saves");
        engine.load_predictor("disk", &path).expect("loads");
        assert!(engine.has_model("disk"));
        let err = engine
            .load_predictor("gone", dir.join("missing.json"))
            .expect_err("missing file");
        assert!(err.chain().contains("cannot load model"), "{}", err.chain());
        assert!(err.chain().contains("caused by"), "{}", err.chain());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn beam_width_override_keeps_the_decoded_value() {
        let engine = engine_with_default();
        let mut session = engine.session();
        let base = session
            .predict(&PredictRequest::tokens(vec![5, 6, 7]))
            .expect("serves");
        let wide = session
            .predict(&PredictRequest::tokens(vec![5, 6, 7]).beam_width(8))
            .expect("serves");
        assert_eq!(
            base.items[0].value(Metric::Cycles),
            wide.items[0].value(Metric::Cycles),
            "best hypothesis is width-invariant"
        );
        // Width 0 clamps instead of panicking.
        session
            .predict(&PredictRequest::tokens(vec![5]).beam_width(0))
            .expect("clamped");
        // A wire-scale width is rejected up front, not allocated.
        let err = session
            .predict(&PredictRequest::tokens(vec![5]).beam_width(1_000_000_000))
            .expect_err("capped");
        assert!(matches!(err, Error::InvalidRequest(_)), "{err:?}");
        assert!(err.to_string().contains(&MAX_BEAM_WIDTH.to_string()));
        // The micro-batch path enforces the same cap per request.
        let results = session.predict_micro_batch(&[
            PredictRequest::tokens(vec![5]),
            PredictRequest::tokens(vec![5]).beam_width(usize::MAX),
        ]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(Error::InvalidRequest(_))));
    }

    #[test]
    fn hot_swap_bumps_the_epoch_and_in_flight_resolutions_keep_their_version() {
        let engine = engine_with_default();
        let first = engine.resolve(None).expect("resolves");
        assert_eq!(first.epoch, 1, "first registration is epoch 1");
        // Hot-swap a different model under the same name.
        engine.register_predictor("default", tiny_predictor(99));
        let second = engine.resolve(None).expect("resolves");
        assert_eq!(second.epoch, 2, "swap bumped the epoch");
        assert_eq!(engine.swap_epoch(), 2);
        // The pre-swap resolution still serves the old version.
        let tokens: Vec<u32> = vec![4, 5, 6];
        let old = first
            .model
            .as_predictor()
            .expect("predictor")
            .predict_tokens(&tokens, None);
        let oracle = tiny_predictor(3).predict_tokens(&tokens, None);
        assert_eq!(
            old.metric(Metric::Cycles).value.to_bits(),
            oracle.metric(Metric::Cycles).value.to_bits(),
            "in-flight Arc pins the pre-swap weights"
        );
        // Responses carry the epoch of the version that served them.
        let mut session = engine.session();
        let response = session
            .predict(&PredictRequest::tokens(tokens))
            .expect("serves");
        assert_eq!(response.epoch, 2);
    }

    #[test]
    fn router_splits_unnamed_requests_and_explicit_model_bypasses_it() {
        use crate::online::AbRouter;
        let engine = engine_with_default();
        engine.register_predictor("calibrated", tiny_predictor(7));
        engine
            .set_router(Some(
                AbRouter::new(vec![("default".into(), 1), ("calibrated".into(), 1)])
                    .expect("valid"),
            ))
            .expect("variants registered");
        let mut session = engine.session();
        let mut seen = std::collections::BTreeSet::new();
        for key in 0..32u64 {
            let r = session
                .predict(&PredictRequest::tokens(vec![1, 2, 3]).route_key(key))
                .expect("serves");
            seen.insert(r.model.clone());
            // Same key re-routes identically.
            let again = session
                .predict(&PredictRequest::tokens(vec![1, 2, 3]).route_key(key))
                .expect("serves");
            assert_eq!(again.model, r.model, "sticky routing for key {key}");
        }
        assert_eq!(seen.len(), 2, "both variants get traffic: {seen:?}");
        // Naming a model bypasses the router entirely.
        let r = session
            .predict(
                &PredictRequest::tokens(vec![1, 2, 3])
                    .for_model("default")
                    .route_key(5),
            )
            .expect("serves");
        assert_eq!(r.model, "default");
        // A router over an unregistered variant is rejected up front.
        let err = engine
            .set_router(Some(
                AbRouter::new(vec![("ghost".into(), 1)]).expect("structurally valid"),
            ))
            .expect_err("unknown variant");
        assert!(matches!(err, Error::UnknownModel { .. }));
    }

    #[test]
    fn feedback_fans_out_to_the_shared_queue_and_scoreboard() {
        let engine = EngineConfig::new().threads(1).feedback_capacity(4).build();
        engine.register_predictor("default", tiny_predictor(3));
        let mut session = engine.session();
        let request = PredictRequest::tokens(vec![2, 4, 6]).feedback(Feedback {
            item: 0,
            metric: Metric::Cycles,
            actual: 120.0,
            predicted: 90.0,
        });
        session.predict(&request).expect("serves");
        assert_eq!(engine.feedback().accepted(), 1, "queue got the triple");
        let (err, n) = engine
            .scoreboard()
            .rolling_error("default")
            .expect("scored");
        assert_eq!(n, 1);
        assert!((err - 0.25).abs() < 1e-12, "|120-90|/120: {err}");
        // Exact predictions feed the scoreboard but not the queue.
        let request = PredictRequest::tokens(vec![2, 4, 6]).feedback(Feedback {
            item: 0,
            metric: Metric::Cycles,
            actual: 120.0,
            predicted: 120.0,
        });
        session.predict(&request).expect("serves");
        assert_eq!(engine.feedback().accepted(), 1, "no training signal");
        let (_, n) = engine
            .scoreboard()
            .rolling_error("default")
            .expect("scored");
        assert_eq!(n, 2, "accuracy signal recorded");
    }

    #[test]
    fn engine_is_sync_and_supports_concurrent_sessions() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Engine>();
        let engine = engine_with_default();
        let results: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let engine = &engine;
                    scope.spawn(move || {
                        let mut session = engine.session();
                        let r = session
                            .predict(&PredictRequest::tokens(vec![i, i + 1]))
                            .expect("serves");
                        r.items[0].value(Metric::Cycles).expect("cycles")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("joins"))
                .collect()
        });
        assert_eq!(results.len(), 3);
    }
}
