//! The end-to-end ICGMM system: fit (offline GMM training, paper §3) and
//! run (online cache simulation with the chosen policy, paper §5).

use crate::config::{IcgmmConfig, PolicyMode};
use crate::engine::{GmmPolicyEngine, TrainedModel};
use crate::error::IcgmmError;
use crate::online::AdaptiveEngine;
use icgmm_cache::{
    AdaptSink, AdaptStats, AdmissionPolicy, AlwaysAdmit, BeladyPolicy, EvictionPolicy,
    FailoverAdmission, FailoverEviction, FaultPlan, FaultSink, FaultStats, FaultyScore, FifoPolicy,
    GmmScorePolicy, LatencyModel, LfuPolicy, LruPolicy, RandomPolicy, RecordsRef, ReplayEvent,
    ReplayObserver, ScoreSource, ScorerHealth, SetAssocCache, ShardCtx, ShardPolicies,
    ShardedSimulator, SimReport, SpecStats, ThresholdAdmit, WindowedSimulator,
};
use icgmm_gmm::{calibrate_threshold, EmReport, EmTrainer, StandardScaler};
use icgmm_hw::{DataflowConfig, DataflowReport};
use icgmm_serve::{CacheServer, ServeConfig, ServeReport};
use icgmm_trace::{extract_weighted_cells_range, trim, Trace, TraceRecord};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Summary of one `fit` (offline training) invocation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FitSummary {
    /// Records remaining after trimming.
    pub records_used: usize,
    /// Deduplicated `(page, window)` training cells before subsampling.
    pub cells_total: usize,
    /// Cells actually used for EM.
    pub cells_trained: usize,
    /// EM convergence report.
    pub em: EmReport,
    /// Calibrated admission threshold.
    pub threshold: f64,
}

/// Result of one policy run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Which policy produced this.
    pub mode: PolicyMode,
    /// Simulator output (miss rates, latency).
    pub sim: SimReport,
    /// Policy-engine inferences performed (0 for score-free modes).
    ///
    /// With the speculative batcher this counts *speculated* inferences —
    /// the batched kernel also scores predicted misses that turn out to
    /// hit, exactly like the hardware pipeline scoring a window that a
    /// later admission decision partially discards.
    pub gmm_inferences: u64,
    /// Miss-window speculation telemetry (`None` for score-free modes,
    /// which take the streaming path).
    pub spec: Option<SpecStats>,
}

impl RunReport {
    /// Miss rate in percent.
    pub fn miss_rate_pct(&self) -> f64 {
        self.sim.miss_rate_pct()
    }

    /// Average access latency in µs.
    pub fn avg_us(&self) -> f64 {
        self.sim.avg_us
    }
}

/// One run's policy stack: everything a shard needs to replay `mode`,
/// built per shard by [`PolicyStack::shard_policies`] — the only code that
/// instantiates the admission and eviction policies, the scorer and their
/// adaptation, fault-injection and failover wrappers. Every entry point
/// replays what it builds: the single-threaded engines ([`Icgmm::run`],
/// [`Icgmm::run_dataflow`]) as one shard, [`Icgmm::run_sharded`] and
/// [`Icgmm::serve`] on their shard workers.
///
/// Each shard's telemetry travels by its own sink, replaced wholesale when
/// the shard is rebuilt (a supervisor re-replay after a worker panic), so
/// merged stats equal an undisturbed run's; [`PolicyStack::telemetry`]
/// merges the sinks in shard order. The sink tables sit behind mutexes
/// because the sharded engines build policies on their workers.
struct PolicyStack<'a> {
    sys: &'a Icgmm,
    mode: PolicyMode,
    engine: Option<GmmPolicyEngine>,
    threshold: f64,
    plan: FaultPlan,
    /// The contiguous trace prefix of a single-threaded run, from which
    /// its Belady oracle builds chunk-parallel; shards build theirs from
    /// their own views.
    oracle: Option<&'a [TraceRecord]>,
    fault_sinks: Mutex<Vec<FaultSink>>,
    adapt_sinks: Mutex<Vec<AdaptSink>>,
}

impl PolicyStack<'_> {
    /// Builds one shard's admission policy, eviction policy and scorer.
    ///
    /// The scorer is the policy engine, optionally inside the online refit
    /// loop (per-shard buffers and salted seeds), optionally behind the
    /// fault injector; a health monitor adds the LRU / admit-all failover
    /// to the GMM-driven policies. Empty plans wrap nothing, so plain runs
    /// replay exactly the bare policies and engine.
    fn shard_policies(&self, ctx: &ShardCtx<'_>) -> ShardPolicies {
        let sys = self.sys;
        let sets = sys.cfg.cache.num_sets();
        let ways = sys.cfg.cache.ways;
        let scored_eviction = matches!(
            self.mode,
            PolicyMode::GmmEvictionOnly | PolicyMode::GmmCachingEviction
        );
        let scored_admission = matches!(
            self.mode,
            PolicyMode::GmmCachingOnly | PolicyMode::GmmCachingEviction
        );
        let mut eviction: Box<dyn EvictionPolicy + Send> = match self.mode {
            PolicyMode::Fifo => Box::new(FifoPolicy::new(sets, ways)),
            PolicyMode::Random => Box::new(RandomPolicy::new(sys.cfg.em.seed)),
            PolicyMode::Lfu => Box::new(LfuPolicy::new(sets, ways)),
            // The oracle sees exactly the subsequence this shard replays,
            // positioned by the sequence numbers the replay presents
            // (order-isomorphic to the global ones).
            PolicyMode::Belady => Box::new(match self.oracle {
                Some(records) => BeladyPolicy::from_records(records, sets, ways),
                None => BeladyPolicy::from_pages(
                    ctx.warmup
                        .iter()
                        .chain(ctx.measured.iter())
                        .map(|r| r.page().raw()),
                    sets,
                    ways,
                ),
            }),
            PolicyMode::GmmEvictionOnly | PolicyMode::GmmCachingEviction => {
                Box::new(if sys.cfg.eviction_hit_bonus > 0.0 {
                    GmmScorePolicy::with_hit_bonus(sets, ways, sys.cfg.eviction_hit_bonus)
                } else {
                    GmmScorePolicy::new(sets, ways)
                })
            }
            PolicyMode::Lru | PolicyMode::GmmCachingOnly => Box::new(LruPolicy::new(sets, ways)),
        };
        let mut admission: Box<dyn AdmissionPolicy + Send> = if scored_admission {
            Box::new(ThresholdAdmit {
                threshold: self.threshold,
                admit_writes_always: sys.cfg.admit_writes_always,
            })
        } else {
            Box::new(AlwaysAdmit)
        };
        let Some(engine) = &self.engine else {
            return ShardPolicies {
                admission,
                eviction,
                score: None,
            };
        };

        // `shard` salts the adapt plan's seed, so each shard draws
        // independent reservoir and re-seed streams.
        let adaptive = (!sys.cfg.adapt.is_empty()).then(|| {
            let sink = AdaptSink::new();
            self.adapt_sinks
                .lock()
                .expect("adapt sink lock never poisoned")[ctx.shard] = sink.clone();
            let model = sys
                .model
                .as_ref()
                .expect("a GMM engine implies a trained model");
            AdaptiveEngine::new(
                engine.clone(),
                &model.gmm,
                sys.cfg.em,
                &sys.cfg.preprocess,
                sys.cfg.adapt,
                ctx.shard as u64,
                sink,
            )
            .expect("adapt plan is validated at configuration time")
        });
        let plan = self.plan;
        let guard = (plan.scorer_armed() || plan.monitor_armed()).then(|| {
            let sink = FaultSink::new();
            self.fault_sinks.lock().expect("sink lock never poisoned")[ctx.shard] = sink.clone();
            let health = plan.monitor_armed().then(|| ScorerHealth::new(&plan));
            (health, sink)
        });
        if let Some((Some(health), sink)) = &guard {
            if scored_eviction {
                eviction = Box::new(FailoverEviction::new(
                    eviction,
                    Box::new(LruPolicy::new(sets, ways)),
                    health.clone(),
                    sink.clone(),
                ));
            }
            if scored_admission {
                admission = Box::new(FailoverAdmission::new(
                    admission,
                    health.clone(),
                    sink.clone(),
                ));
            }
        }
        let score = match adaptive {
            Some(a) => behind_injector(a, plan, guard),
            None => behind_injector(engine.clone(), plan, guard),
        };
        ShardPolicies {
            admission,
            eviction,
            score: Some(score),
        }
    }

    /// The per-shard fault and adaptation telemetry, merged in shard order
    /// (deterministic for a given shard count).
    fn telemetry(self) -> (FaultStats, AdaptStats) {
        let mut fault = FaultStats::default();
        for sink in self
            .fault_sinks
            .into_inner()
            .expect("no worker holds the sink lock")
        {
            fault.merge(&sink.snapshot());
        }
        let mut adapt = AdaptStats::default();
        for sink in self
            .adapt_sinks
            .into_inner()
            .expect("no worker holds the adapt sink lock")
        {
            adapt.merge(&sink.snapshot());
        }
        (fault, adapt)
    }
}

/// Boxes `inner` as a shard's scorer, behind the fault injector when the
/// plan arms one (`guard` carries the shard's health monitor and sink).
/// Generic, so the injector calls its source statically and the replay
/// engines reach the whole stack through one `dyn` dispatch.
fn behind_injector<S: ScoreSource + Send + 'static>(
    inner: S,
    plan: FaultPlan,
    guard: Option<(Option<Arc<ScorerHealth>>, FaultSink)>,
) -> Box<dyn ScoreSource + Send> {
    match guard {
        Some((health, sink)) => Box::new(FaultyScore::new(inner, plan, health, sink)),
        None => Box::new(inner),
    }
}

/// Counts the replay events that consumed a score: a streaming replay's
/// policy-engine inferences.
#[derive(Default)]
struct ScoredCount(u64);

impl ReplayObserver for ScoredCount {
    fn on_record(&mut self, ev: &ReplayEvent<'_>) {
        self.0 += u64::from(ev.score.is_some());
    }
}

/// The ICGMM system: configuration + (after [`Icgmm::fit`]) a trained
/// policy engine.
///
/// ```no_run
/// use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
/// use icgmm_trace::synth::{Workload, WorkloadKind};
///
/// let trace = WorkloadKind::Memtier.default_workload().generate(200_000, 1);
/// let mut sys = Icgmm::new(IcgmmConfig::default())?;
/// sys.fit(&trace)?;
/// let lru = sys.run(&trace, PolicyMode::Lru)?;
/// let gmm = sys.run(&trace, PolicyMode::GmmCachingEviction)?;
/// assert!(gmm.miss_rate_pct() <= lru.miss_rate_pct());
/// # Ok::<(), icgmm::IcgmmError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Icgmm {
    cfg: IcgmmConfig,
    model: Option<TrainedModel>,
    last_fit: Option<FitSummary>,
}

impl Icgmm {
    /// Creates an untrained system.
    ///
    /// # Errors
    ///
    /// Returns [`IcgmmError::Config`] for invalid configuration.
    pub fn new(cfg: IcgmmConfig) -> Result<Self, IcgmmError> {
        cfg.validate()?;
        Ok(Icgmm {
            cfg,
            model: None,
            last_fit: None,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &IcgmmConfig {
        &self.cfg
    }

    /// The trained model, if any.
    pub fn model(&self) -> Option<&TrainedModel> {
        self.model.as_ref()
    }

    /// The last fit summary, if any.
    pub fn last_fit(&self) -> Option<&FitSummary> {
        self.last_fit.as_ref()
    }

    /// Installs an externally trained model (e.g. deserialized from disk).
    pub fn set_model(&mut self, model: TrainedModel) {
        self.model = Some(model);
    }

    /// Offline training (paper §3): trim the trace, extract weighted
    /// `(page, window)` cells, subsample, standardize, run EM, calibrate
    /// the admission threshold.
    ///
    /// # Errors
    ///
    /// [`IcgmmError::EmptyTrace`] when nothing survives trimming, or a
    /// wrapped GMM error from EM.
    pub fn fit(&mut self, trace: &Trace) -> Result<&FitSummary, IcgmmError> {
        let (start, end) = self.cfg.preprocess.kept_range(trace.len());
        if start >= end {
            return Err(IcgmmError::EmptyTrace);
        }
        // The Algorithm 1 clock runs from the start of the trace; only the
        // kept middle contributes training cells (paper §3.1).
        let cells = extract_weighted_cells_range(trace.records(), &self.cfg.preprocess, start, end);
        let records_used = end - start;
        let cells_total = cells.len();

        // Uniform subsample of cells (weights ride along, so weighted EM on
        // the subsample estimates the same mixture).
        let mut rng = StdRng::seed_from_u64(self.cfg.em.seed ^ 0x5EED_CE11);
        let sampled: Vec<&icgmm_trace::WeightedSample> = if cells.len() > self.cfg.max_train_cells {
            let mut idx: Vec<usize> = (0..cells.len()).collect();
            idx.shuffle(&mut rng);
            idx.truncate(self.cfg.max_train_cells);
            idx.into_iter().map(|i| &cells[i]).collect()
        } else {
            cells.iter().collect()
        };

        let mut xs: Vec<[f64; 2]> = sampled.iter().map(|c| [c.page, c.time]).collect();
        let ws: Vec<f64> = sampled.iter().map(|c| c.weight).collect();
        let scaler = StandardScaler::fit(&xs, &ws);
        scaler.transform_all(&mut xs);

        let trainer = EmTrainer::new(self.cfg.em)?;
        let (gmm, em_report) = trainer.fit(&xs, &ws)?;
        let threshold = calibrate_threshold(&gmm, &xs, &ws, &self.cfg.threshold);

        let summary = FitSummary {
            records_used,
            cells_total,
            cells_trained: xs.len(),
            em: em_report,
            threshold,
        };
        self.model = Some(TrainedModel {
            scaler,
            gmm,
            threshold,
        });
        self.last_fit = Some(summary);
        Ok(self.last_fit.as_ref().expect("just set"))
    }

    /// Builds a fresh policy engine from the trained model.
    ///
    /// # Errors
    ///
    /// [`IcgmmError::NotFitted`] before `fit`.
    pub fn policy_engine(&self) -> Result<GmmPolicyEngine, IcgmmError> {
        let model = self.model.as_ref().ok_or(IcgmmError::NotFitted)?;
        Ok(GmmPolicyEngine::new(
            model,
            &self.cfg.preprocess,
            self.cfg.fixed_point_inference,
        )?)
    }

    /// The evaluated portion of a trace (same trim as training — warm-up
    /// and tail are excluded from measurement, paper §3.1).
    pub fn eval_records<'a>(&self, trace: &'a Trace) -> &'a [TraceRecord] {
        trim(trace, &self.cfg.preprocess)
    }

    /// Splits a trace into its warm-up prefix and measured middle. The
    /// warm-up is replayed through the cache (state, policies and the
    /// Algorithm 1 clock all see it) but excluded from statistics.
    fn phases<'a>(&self, trace: &'a Trace) -> (&'a [TraceRecord], &'a [TraceRecord]) {
        let (start, end) = self.cfg.preprocess.kept_range(trace.len());
        (&trace.records()[..start], &trace.records()[start..end])
    }

    /// The policy stack for one run of `mode` over `shards` shards, with
    /// `plan` arming scorer faults and failover.
    fn policy_stack(
        &self,
        mode: PolicyMode,
        shards: usize,
        plan: FaultPlan,
    ) -> Result<PolicyStack<'_>, IcgmmError> {
        let engine = if mode.uses_gmm() {
            Some(self.policy_engine()?)
        } else {
            None
        };
        Ok(PolicyStack {
            sys: self,
            mode,
            engine,
            threshold: self.model.as_ref().map_or(0.0, |m| m.threshold),
            plan,
            oracle: None,
            fault_sinks: Mutex::new(vec![FaultSink::new(); shards]),
            adapt_sinks: Mutex::new(vec![AdaptSink::new(); shards]),
        })
    }

    /// The single-threaded engines' stack: the whole trace as one shard
    /// (slice views over the warm-up/measured split), built once.
    fn one_shard<'a>(
        &'a self,
        trace: &'a Trace,
        mode: PolicyMode,
        plan: FaultPlan,
    ) -> Result<(PolicyStack<'a>, ShardPolicies), IcgmmError> {
        let (warmup, measured) = self.phases(trace);
        let mut stack = self.policy_stack(mode, 1, plan)?;
        stack.oracle = Some(&trace.records()[..warmup.len() + measured.len()]);
        let pol = stack.shard_policies(&ShardCtx {
            shard: 0,
            shards: 1,
            warmup: RecordsRef::from_slice(warmup),
            measured: RecordsRef::from_slice(measured),
        });
        Ok((stack, pol))
    }

    /// The set-sharded engines' stack over the configured `sim_shards`.
    ///
    /// # Errors
    ///
    /// As for [`Icgmm::policy_stack`], plus [`IcgmmError::Config`] for
    /// [`PolicyMode::Random`] above one shard — random eviction draws
    /// victims from one global RNG stream, which set-partitioned replay
    /// cannot reproduce.
    fn sharded_stack(&self, mode: PolicyMode) -> Result<PolicyStack<'_>, IcgmmError> {
        let shards = self.cfg.sim_shards;
        if shards > 1 && mode == PolicyMode::Random {
            return Err(IcgmmError::Config(format!(
                "random eviction is not shard-deterministic; use sim_shards = 1 \
                 (requested {shards})"
            )));
        }
        self.policy_stack(mode, shards, self.cfg.fault)
    }

    /// Runs one policy mode over the (trimmed) trace with the analytic
    /// latency model — the paper's Fig. 6 / Table 1 measurement.
    ///
    /// # Errors
    ///
    /// [`IcgmmError::NotFitted`] if `mode.uses_gmm()` and the system is
    /// untrained; cache-geometry errors otherwise.
    pub fn run(&self, trace: &Trace, mode: PolicyMode) -> Result<RunReport, IcgmmError> {
        self.run_with_latency(trace, mode, &self.cfg.latency)
    }

    /// [`Icgmm::run`] with an explicit latency model (SSD sweeps).
    ///
    /// # Errors
    ///
    /// As for [`Icgmm::run`].
    pub fn run_with_latency(
        &self,
        trace: &Trace,
        mode: PolicyMode,
        latency: &LatencyModel,
    ) -> Result<RunReport, IcgmmError> {
        let (warmup, measured) = self.phases(trace);
        let mut cache = SetAssocCache::new(self.cfg.cache)?;
        let plan = self.cfg.fault;
        let (stack, mut pol) = self.one_shard(trace, mode, plan)?;

        // Engines at paper-scale K lookahead-classify `sim_window`
        // requests and ride the batched scoring kernel; small-K engines
        // (where scalar scoring is too cheap to out-earn the speculation
        // overhead) and score-free modes take the streaming loop —
        // bit-identical either way.
        let use_batched = pol.score.as_ref().is_some_and(|s| s.prefers_batching());
        let mut wsim = WindowedSimulator::with_params(self.cfg.spec_params());
        if use_batched && plan.breaker_armed() {
            wsim.set_breaker(plan.breaker_storm_windows, plan.breaker_cooldown_records);
        }
        let mut scored = ScoredCount::default();
        let score = pol.score.as_deref_mut().map(|s| s as &mut dyn ScoreSource);
        let (adm, ev) = (pol.admission.as_mut(), pol.eviction.as_mut());
        let mut sim = if use_batched {
            wsim.run(warmup, measured, &mut cache, adm, ev, score, latency, None)
        } else {
            icgmm_cache::simulate_streaming_observed_with_warmup(
                warmup,
                measured,
                &mut cache,
                adm,
                ev,
                score,
                latency,
                None,
                &mut scored,
            )
        };
        let gmm_inferences = if use_batched {
            sim.fault.merge(wsim.fault_stats());
            wsim.spec_stats().scores_computed()
        } else {
            scored.0
        };
        let (fault, adapt) = stack.telemetry();
        sim.fault.merge(&fault);
        sim.adapt.merge(&adapt);
        Ok(RunReport {
            mode,
            sim,
            gmm_inferences,
            spec: use_batched.then(|| *wsim.spec_stats()),
        })
    }

    /// [`Icgmm::run`] with the cache partitioned by set index into the
    /// configuration's `sim_shards` independent shards, replayed on scoped
    /// threads and deterministically merged.
    ///
    /// Each shard owns the sets congruent to its index, with its own
    /// policy state, its own miss-window speculation and its own policy-
    /// engine clone kept on the *global* Algorithm 1 clock (foreign-shard
    /// requests fast-forward the clock in O(1)), so the merged
    /// [`RunReport::sim`] is **bit-identical** to [`Icgmm::run`]'s for
    /// every shard count — enforced by the differential suite in
    /// `tests/shard_differential.rs` and the property grid in
    /// `crates/cache/tests/shard_equivalence.rs`. [`RunReport::spec`] is
    /// the field-wise sum of per-shard telemetry (identical to the
    /// single-threaded batcher's at one shard); `gmm_inferences` counts
    /// the inferences the sharded replay actually performed, which above
    /// one shard may differ from the single-threaded count (speculation
    /// windows are per-shard).
    ///
    /// # Errors
    ///
    /// As for [`Icgmm::run`], plus [`IcgmmError::Config`] when more than
    /// one shard is requested with [`PolicyMode::Random`] — random
    /// eviction draws victims from one global RNG stream, which
    /// set-partitioned replay cannot reproduce.
    pub fn run_sharded(&self, trace: &Trace, mode: PolicyMode) -> Result<RunReport, IcgmmError> {
        self.run_sharded_with_latency(trace, mode, &self.cfg.latency)
    }

    /// [`Icgmm::run_sharded`] with an explicit latency model (SSD sweeps).
    ///
    /// # Errors
    ///
    /// As for [`Icgmm::run_sharded`].
    pub fn run_sharded_with_latency(
        &self,
        trace: &Trace,
        mode: PolicyMode,
        latency: &LatencyModel,
    ) -> Result<RunReport, IcgmmError> {
        let stack = self.sharded_stack(mode)?;
        let (warmup, measured) = self.phases(trace);
        let ssim = ShardedSimulator::with_params(self.cfg.sim_shards, self.cfg.spec_params())
            .with_faults(self.cfg.fault);
        let mut rep = ssim.run(
            warmup,
            measured,
            self.cfg.cache,
            &|ctx| stack.shard_policies(ctx),
            latency,
            None,
        )?;
        let scored = stack.engine.is_some();
        let (fault, adapt) = stack.telemetry();
        rep.sim.fault.merge(&fault);
        rep.sim.adapt.merge(&adapt);
        let gmm_inferences = if !scored {
            0
        } else if rep.batched {
            rep.spec.scores_computed()
        } else {
            rep.scores_consumed
        };
        Ok(RunReport {
            mode,
            sim: rep.sim,
            gmm_inferences,
            spec: (scored && rep.batched).then_some(rep.spec),
        })
    }

    /// Serves the (trimmed) trace through the concurrent
    /// [`icgmm_serve::CacheServer`]: `serve_clients` submitter threads
    /// feed `sim_shards` shard workers through bounded ingestion queues of
    /// depth `serve_queue_depth`, the workers decide at speculation speed,
    /// and a sequence-number merge re-accounts the outcome stream in
    /// global trace order — incrementally, in O(shards) memory.
    ///
    /// The semantic half of the returned [`ServeReport`] (`sim`,
    /// `scores_consumed`) is **bit-identical** to [`Icgmm::run_sharded`]
    /// over the same trace and mode — concurrency buys throughput and
    /// costs latency, never decisions (`tests/serve_differential.rs`
    /// holds the line). On top, the report carries what an offline replay
    /// cannot measure: requests/sec at saturation and p50/p99
    /// admission-decision latencies.
    ///
    /// The configuration's [`icgmm_cache::FaultPlan`] plugs in unchanged:
    /// shard-worker panics are supervisor-recovered mid-service, scorer
    /// faults ride each worker's [`FaultyScore`] wrapper with the health
    /// monitor and failover policies, and the speculation breaker guards
    /// batched workers. (Scorer-fault runs are routed to the streaming
    /// engine: injection interacts with speculative dense scoring, whose
    /// window boundaries serving necessarily cuts differently.)
    ///
    /// # Errors
    ///
    /// As for [`Icgmm::run_sharded`] (including the `Random`-above-one-
    /// shard rejection), plus [`IcgmmError::ShardFailed`] when a shard
    /// worker dies *and* the supervisor's re-replay dies too.
    pub fn serve(&self, trace: &Trace, mode: PolicyMode) -> Result<ServeReport, IcgmmError> {
        self.serve_with_latency(trace, mode, &self.cfg.latency)
    }

    /// [`Icgmm::serve`] with an explicit latency model (SSD sweeps).
    ///
    /// # Errors
    ///
    /// As for [`Icgmm::serve`].
    pub fn serve_with_latency(
        &self,
        trace: &Trace,
        mode: PolicyMode,
        latency: &LatencyModel,
    ) -> Result<ServeReport, IcgmmError> {
        let stack = self.sharded_stack(mode)?;
        let (warmup, measured) = self.phases(trace);
        let server = CacheServer::new(ServeConfig {
            shards: self.cfg.sim_shards,
            clients: self.cfg.serve_clients,
            queue_depth: self.cfg.serve_queue_depth,
            completion_depth: self.cfg.serve_completion_depth,
            params: self.cfg.spec_params(),
            fault: self.cfg.fault,
            ..ServeConfig::default()
        })?;
        let mut rep = server.serve(
            warmup,
            measured,
            self.cfg.cache,
            &|ctx| stack.shard_policies(ctx),
            latency,
            None,
        )?;
        let (fault, adapt) = stack.telemetry();
        rep.sim.fault.merge(&fault);
        rep.sim.adapt.merge(&adapt);
        Ok(rep)
    }

    /// Runs one mode through the cycle-approximate dataflow hardware model
    /// instead of the analytic latency constants.
    ///
    /// The policies, the scorer and their adaptation, fault-injection and
    /// failover wrappers are [`Icgmm::run`]'s, so the replayed
    /// [`DataflowReport::stats`] equal `run`'s under every plan. Host
    /// replay follows the same routing too: engines at paper-scale K
    /// ([`icgmm_cache::ScoreSource::prefers_batching`]) ride the
    /// speculative miss-window batcher with this configuration's
    /// `sim_window`/`sim_window_floor`/`sim_stream_miss_div` knobs,
    /// small-K engines and score-free modes stream. The modeled timing is
    /// bit-identical either way; [`DataflowReport::spec`] carries the
    /// speculation telemetry of batched runs.
    ///
    /// # Errors
    ///
    /// As for [`Icgmm::run`].
    pub fn run_dataflow(
        &self,
        trace: &Trace,
        mode: PolicyMode,
        config: &DataflowConfig,
    ) -> Result<DataflowReport, IcgmmError> {
        // This configuration's fault plan rides along unless the dataflow
        // config armed its own: device faults and the circuit breaker act
        // inside the hardware model, scorer faults and policy failover in
        // the policy stack, and everything lands in the report's fault
        // block.
        let effective;
        let config = if config.fault.is_empty() && !self.cfg.fault.is_empty() {
            effective = DataflowConfig {
                fault: self.cfg.fault,
                ..config.clone()
            };
            &effective
        } else {
            config
        };
        let (warmup, measured) = self.phases(trace);
        let (stack, mut pol) = self.one_shard(trace, mode, config.fault)?;
        let use_batched = pol.score.as_ref().is_some_and(|s| s.prefers_batching());
        let score = pol.score.as_deref_mut().map(|s| s as &mut dyn ScoreSource);
        let (adm, ev) = (pol.admission.as_mut(), pol.eviction.as_mut());
        let mut report = if use_batched {
            icgmm_hw::run_dataflow_batched_with_warmup(
                warmup,
                measured,
                self.cfg.cache,
                adm,
                ev,
                score,
                config,
                self.cfg.spec_params(),
            )?
        } else {
            icgmm_hw::run_dataflow_streaming_with_warmup(
                warmup,
                measured,
                self.cfg.cache,
                adm,
                ev,
                score,
                config,
            )?
        };
        report.fault.merge(&stack.telemetry().0);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icgmm_cache::{AdaptPlan, CacheConfig};
    use icgmm_gmm::EmConfig;
    use icgmm_trace::synth::WorkloadKind;
    use icgmm_trace::PreprocessConfig;

    /// A small config that trains in milliseconds.
    fn small_cfg() -> IcgmmConfig {
        IcgmmConfig {
            cache: CacheConfig {
                capacity_bytes: 256 * 4096,
                block_bytes: 4096,
                ways: 8,
            },
            em: EmConfig {
                k: 16,
                max_iters: 20,
                ..Default::default()
            },
            preprocess: PreprocessConfig {
                len_window: 32,
                len_access_shot: 1_000,
                ..Default::default()
            },
            max_train_cells: 20_000,
            ..Default::default()
        }
    }

    #[test]
    fn gmm_modes_require_fit() {
        let sys = Icgmm::new(small_cfg()).unwrap();
        let trace = WorkloadKind::Memtier.default_workload().generate(5_000, 1);
        let err = sys.run(&trace, PolicyMode::GmmCachingOnly).unwrap_err();
        assert!(matches!(err, IcgmmError::NotFitted));
        // Score-free modes work untrained.
        assert!(sys.run(&trace, PolicyMode::Lru).is_ok());
        assert!(sys.run(&trace, PolicyMode::Belady).is_ok());
    }

    #[test]
    fn fit_then_run_all_fig6_modes() {
        let mut sys = Icgmm::new(small_cfg()).unwrap();
        let trace = WorkloadKind::Memtier.default_workload().generate(60_000, 2);
        let fit = sys.fit(&trace).unwrap().clone();
        assert!(fit.cells_trained > 0);
        assert!(fit.cells_trained <= fit.cells_total);
        assert!(fit.threshold.is_finite());

        for mode in PolicyMode::fig6_modes() {
            let rep = sys.run(&trace, mode).unwrap();
            assert_eq!(rep.mode, mode);
            assert!(rep.sim.stats.accesses() > 0);
            if mode.uses_gmm() {
                assert!(rep.gmm_inferences > 0, "{mode} did not use the engine");
            } else {
                assert_eq!(rep.gmm_inferences, 0);
            }
        }
    }

    #[test]
    fn belady_bounds_every_other_policy() {
        let mut sys = Icgmm::new(small_cfg()).unwrap();
        let trace = WorkloadKind::Memtier.default_workload().generate(50_000, 3);
        sys.fit(&trace).unwrap();
        let belady = sys.run(&trace, PolicyMode::Belady).unwrap();
        for mode in [
            PolicyMode::Lru,
            PolicyMode::Fifo,
            PolicyMode::GmmEvictionOnly,
        ] {
            let rep = sys.run(&trace, mode).unwrap();
            assert!(
                belady.miss_rate_pct() <= rep.miss_rate_pct() + 1e-9,
                "belady {} vs {mode} {}",
                belady.miss_rate_pct(),
                rep.miss_rate_pct()
            );
        }
    }

    #[test]
    fn sim_window_does_not_change_results() {
        // W = 1 degenerates to per-request speculation; W = default batches
        // thousands of requests. The SimReport must be bit-identical, with
        // speculation telemetry present for GMM modes only.
        let mut small = small_cfg();
        let mut wide = small_cfg();
        // K >= 64 so the engine prefers the batched path (small-K engines
        // route to streaming — see `GmmPolicyEngine::prefers_batching`).
        small.em.k = 64;
        wide.em.k = 64;
        small.sim_window = 1;
        wide.sim_window = 4096;
        let trace = WorkloadKind::Memtier.default_workload().generate(40_000, 9);
        let mut sys_small = Icgmm::new(small).unwrap();
        let mut sys_wide = Icgmm::new(wide).unwrap();
        sys_small.fit(&trace).unwrap();
        sys_wide.fit(&trace).unwrap();
        for mode in [PolicyMode::Lru, PolicyMode::GmmCachingEviction] {
            let a = sys_small.run(&trace, mode).unwrap();
            let b = sys_wide.run(&trace, mode).unwrap();
            assert_eq!(a.sim, b.sim, "{mode}");
            if mode.uses_gmm() {
                let spec = b.spec.expect("gmm modes speculate");
                assert!(spec.batched_scores > 0, "{spec:?}");
            } else {
                assert!(a.spec.is_none() && b.spec.is_none());
            }
        }
    }

    #[test]
    fn dataflow_sim_window_does_not_change_results() {
        // The dataflow model rides the batched replay engine at paper-scale
        // K; the speculation depth is a host-side economics knob and must
        // leave every modeled quantity — stats and all timing fields —
        // bit-identical.
        let mut narrow = small_cfg();
        let mut wide = small_cfg();
        narrow.em.k = 64;
        wide.em.k = 64;
        narrow.sim_window = 1;
        wide.sim_window = 4096;
        let trace = WorkloadKind::Memtier
            .default_workload()
            .generate(30_000, 11);
        let mut sys_narrow = Icgmm::new(narrow).unwrap();
        sys_narrow.fit(&trace).unwrap();
        let mut sys_wide = Icgmm::new(wide).unwrap();
        sys_wide.set_model(sys_narrow.model().expect("fitted").clone());
        let cfg = DataflowConfig::default();
        let a = sys_narrow
            .run_dataflow(&trace, PolicyMode::GmmCachingEviction, &cfg)
            .unwrap();
        let b = sys_wide
            .run_dataflow(&trace, PolicyMode::GmmCachingEviction, &cfg)
            .unwrap();
        assert!(a.spec.is_some() && b.spec.is_some(), "K=64 must batch");
        let (mut a2, mut b2) = (a.clone(), b.clone());
        a2.spec = None;
        b2.spec = None;
        assert_eq!(a2, b2, "sim_window must not change the dataflow report");
        // Score-free modes keep the streaming engine (no telemetry).
        let lru = sys_narrow
            .run_dataflow(&trace, PolicyMode::Lru, &cfg)
            .unwrap();
        assert!(lru.spec.is_none());
    }

    #[test]
    fn run_sharded_is_bit_identical_to_run_for_every_mode_and_shard_count() {
        let mut base = small_cfg();
        base.em.k = 64; // engine prefers the batched path
        let trace = WorkloadKind::Memtier
            .default_workload()
            .generate(30_000, 17);
        let mut reference_sys = Icgmm::new(base).unwrap();
        reference_sys.fit(&trace).unwrap();
        let model = reference_sys.model().expect("fitted").clone();
        let modes = [
            PolicyMode::Lru,
            PolicyMode::Fifo,
            PolicyMode::Lfu,
            PolicyMode::Belady,
            PolicyMode::GmmCachingOnly,
            PolicyMode::GmmEvictionOnly,
            PolicyMode::GmmCachingEviction,
        ];
        for mode in modes {
            let reference = reference_sys.run(&trace, mode).unwrap();
            for shards in [1usize, 2, 4, 8] {
                let mut cfg = base;
                cfg.sim_shards = shards;
                let mut sys = Icgmm::new(cfg).unwrap();
                sys.set_model(model.clone());
                let sharded = sys.run_sharded(&trace, mode).unwrap();
                assert_eq!(
                    reference.sim, sharded.sim,
                    "{mode} diverged at {shards} shards"
                );
                if shards == 1 {
                    // One shard replays the whole trace through the same
                    // engine: telemetry and inference counts are exact.
                    assert_eq!(reference.spec, sharded.spec, "{mode}");
                    assert_eq!(reference.gmm_inferences, sharded.gmm_inferences, "{mode}");
                }
                if mode.uses_gmm() {
                    assert!(sharded.gmm_inferences > 0, "{mode} at {shards} shards");
                }
            }
        }

        // Every entry point replays the same policy stack: at one shard,
        // under a scorer-fault plan and under online adaptation on a
        // prefix-fit model, on the streaming (K = 16) and the batched
        // (K = 64) route, `run_sharded` and `run_dataflow` agree with `run`.
        // (`run` never injects shard-worker panics, so none are armed.)
        let faults = FaultPlan {
            seed: 3,
            scorer_nan_per_mille: 200,
            scorer_outage_per_mille: 5,
            scorer_outage_len: 64,
            scorer_demote_after: 4,
            scorer_promote_after: 16,
            shard_panic_per_mille: 0,
            ..FaultPlan::default()
        };
        let plans = [
            ("faults", faults, AdaptPlan::default()),
            ("adapt", FaultPlan::default(), AdaptPlan::drifty(5)),
        ];
        let scorer_faults = |f: &FaultStats| {
            (
                f.scorer_nan_injected,
                f.scorer_outage_scores,
                f.scorer_demotions,
                f.scorer_repromotions,
                f.degraded_scores,
                f.degraded_victims,
                f.degraded_admits,
            )
        };
        let prefix: Trace = trace.records()[..10_000].iter().copied().collect();
        for k in [16, 64] {
            let mut fitted = Icgmm::new(IcgmmConfig {
                em: EmConfig { k, ..base.em },
                ..base
            })
            .unwrap();
            fitted.fit(&prefix).unwrap();
            for (name, fault, adapt) in plans {
                let mut sys = Icgmm::new(IcgmmConfig {
                    fault,
                    adapt,
                    sim_shards: 1,
                    ..*fitted.config()
                })
                .unwrap();
                sys.set_model(fitted.model().expect("fitted").clone());
                for mode in [
                    PolicyMode::GmmCachingOnly,
                    PolicyMode::GmmEvictionOnly,
                    PolicyMode::GmmCachingEviction,
                ] {
                    let at = format!("{mode} at K = {k} under {name}");
                    let run = sys.run(&trace, mode).unwrap();
                    assert!(
                        run.sim.fault.injected() + run.sim.adapt.refits > 0,
                        "{at}: the plan never fired"
                    );
                    assert_eq!(run.spec.is_some(), k == 64, "{at}: routing");
                    let sharded = sys.run_sharded(&trace, mode).unwrap();
                    assert_eq!(run.sim, sharded.sim, "{at}: run_sharded");
                    assert_eq!(run.gmm_inferences, sharded.gmm_inferences, "{at}");
                    assert_eq!(run.spec, sharded.spec, "{at}");
                    let df = sys
                        .run_dataflow(&trace, mode, &DataflowConfig::default())
                        .unwrap();
                    assert_eq!(run.sim.stats, df.stats, "{at}: run_dataflow");
                    assert_eq!(
                        scorer_faults(&run.sim.fault),
                        scorer_faults(&df.fault),
                        "{at}: run_dataflow fault counters"
                    );
                }
            }
        }
    }

    #[test]
    fn run_sharded_rejects_random_above_one_shard() {
        let mut cfg = small_cfg();
        cfg.sim_shards = 2;
        let sys = Icgmm::new(cfg).unwrap();
        let trace = WorkloadKind::Memtier.default_workload().generate(5_000, 1);
        assert!(matches!(
            sys.run_sharded(&trace, PolicyMode::Random),
            Err(IcgmmError::Config(_))
        ));
        // At one shard Random replays exactly like `run`.
        let sys1 = Icgmm::new(small_cfg()).unwrap();
        let a = sys1.run(&trace, PolicyMode::Random).unwrap();
        let b = sys1.run_sharded(&trace, PolicyMode::Random).unwrap();
        assert_eq!(a.sim, b.sim);
    }

    #[test]
    fn empty_trace_fit_fails_cleanly() {
        let mut sys = Icgmm::new(small_cfg()).unwrap();
        assert!(matches!(
            sys.fit(&Trace::new()),
            Err(IcgmmError::EmptyTrace)
        ));
    }

    #[test]
    fn dataflow_and_analytic_agree_functionally() {
        let mut sys = Icgmm::new(small_cfg()).unwrap();
        let trace = WorkloadKind::Memtier.default_workload().generate(30_000, 4);
        sys.fit(&trace).unwrap();
        let a = sys.run(&trace, PolicyMode::GmmCachingEviction).unwrap();
        let d = sys
            .run_dataflow(
                &trace,
                PolicyMode::GmmCachingEviction,
                &DataflowConfig::default(),
            )
            .unwrap();
        assert_eq!(a.sim.stats, d.stats, "functional divergence");
        let rel = (d.avg_request_us - a.avg_us()).abs() / a.avg_us().max(1e-9);
        assert!(rel < 0.05, "latency divergence {rel}");
    }

    #[test]
    fn fixed_point_mode_runs_and_stays_close() {
        let mut cfg = small_cfg();
        let trace = WorkloadKind::Memtier.default_workload().generate(40_000, 5);
        let mut f64_sys = Icgmm::new(cfg).unwrap();
        f64_sys.fit(&trace).unwrap();
        cfg.fixed_point_inference = true;
        let mut fx_sys = Icgmm::new(cfg).unwrap();
        fx_sys.fit(&trace).unwrap();
        let a = f64_sys.run(&trace, PolicyMode::GmmCachingEviction).unwrap();
        let b = fx_sys.run(&trace, PolicyMode::GmmCachingEviction).unwrap();
        // Quantization may flip a few marginal decisions, not the outcome.
        assert!(
            (a.miss_rate_pct() - b.miss_rate_pct()).abs() < 1.0,
            "f64 {} vs fixed {}",
            a.miss_rate_pct(),
            b.miss_rate_pct()
        );
    }
}
