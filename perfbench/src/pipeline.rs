//! The workload's calls, made two ways.
//!
//! * [`facade_rep`] makes them through the `icgmm` facade exactly as a
//!   user would: `run` for each Fig. 6 mode, `run_dataflow`,
//!   `run_sharded` and `serve` (gmm-both). The end-to-end metrics time
//!   these calls.
//! * [`Stack`] assembles the same policies and scorers from the substrate
//!   crates' public constructors and drives the replay engines directly,
//!   so the traced run can time the layers in between (scoring, per-shard
//!   set-up, fan-out) from outside the program. Its reports must equal the
//!   facade's bit for bit; the checks in `checks.rs` enforce that.

use crate::spans::{SpanId, Tracer};
use crate::timed::TimedScore;
use crate::workload::SHARDS;
use crate::yardstick::Reading;
use icgmm::{AdaptPlan, AdaptiveEngine, Icgmm, IcgmmConfig, PolicyMode, RunReport, TrainedModel};
use icgmm_cache::{
    simulate_streaming_observed_with_warmup, AdaptSink, AdmissionPolicy, AlwaysAdmit,
    EvictionPolicy, GmmScorePolicy, LruPolicy, ReplayEvent, ReplayObserver, ScoreSource,
    SetAssocCache, ShardCtx, ShardPartition, ShardPolicies, ShardedSimulator, ThresholdAdmit,
    WindowedSimulator,
};
use icgmm_hw::{DataflowConfig, DataflowReport};
use icgmm_serve::{CacheServer, ServeConfig, ServeReport};
use icgmm_trace::{Trace, TraceRecord};
use std::fmt::Display;
use std::sync::Mutex;
use std::time::Instant;

/// The four bars of the paper's Fig. 6, in order.
pub const MODES: [PolicyMode; 4] = [
    PolicyMode::Lru,
    PolicyMode::GmmCachingOnly,
    PolicyMode::GmmEvictionOnly,
    PolicyMode::GmmCachingEviction,
];

/// The mode of the dataflow, sharded and serving calls.
pub const BOTH: PolicyMode = PolicyMode::GmmCachingEviction;

/// `serve` calls per repetition of the facade's calls. A serving session
/// is the shortest call and its tail latency the most variable figure, so
/// each repetition serves the trace several times to give the serving
/// metrics as many samples as the others.
pub const SERVES: usize = 3;

/// One call's wall time and its result (errors as text).
#[derive(Clone, Debug)]
pub struct Timed<T> {
    /// Host wall time of the call, seconds.
    pub secs: f64,
    /// The reference loop timed right before the call (see
    /// `yardstick.rs`), for calls timed for an end-to-end metric.
    pub reference: Option<Reading>,
    /// The call's report, or its error.
    pub out: Result<T, String>,
}

impl<T> Timed<T> {
    /// Times `f`.
    pub fn of<E: Display>(f: impl FnOnce() -> Result<T, E>) -> Self {
        let start = Instant::now();
        let out = f().map_err(|e| e.to_string());
        Timed {
            secs: start.elapsed().as_secs_f64(),
            reference: None,
            out,
        }
    }

    /// Times the reference loop on `threads` threads, then `f`.
    pub fn scaled<E: Display>(threads: usize, f: impl FnOnce() -> Result<T, E>) -> Self {
        let reference = Reading::take(threads);
        Timed {
            reference: Some(reference),
            ..Timed::of(f)
        }
    }

    /// `secs`, or another duration measured during the call, at the
    /// nominal host speed.
    ///
    /// # Panics
    ///
    /// Panics when the call was timed without the reference loop.
    pub fn scale(&self, secs: f64) -> f64 {
        self.reference
            .expect("the call was timed with the reference loop")
            .scale(secs)
    }
}

/// One repetition of a workload's calls.
#[derive(Clone, Debug)]
pub struct Rep {
    /// `run` for each of [`MODES`].
    pub runs: Vec<Timed<RunReport>>,
    /// `run_dataflow` in gmm-both mode.
    pub dataflow: Timed<DataflowReport>,
    /// `run_sharded` in gmm-both mode.
    pub sharded: Timed<RunReport>,
    /// `serve` in gmm-both mode: [`SERVES`] sessions through the facade,
    /// one in a traced repetition.
    pub serves: Vec<Timed<ServeReport>>,
}

impl Rep {
    /// Wall time of the workload's offline replay calls: `run` for each
    /// Fig. 6 mode.
    pub fn replay_secs(&self) -> f64 {
        self.runs.iter().map(|t| t.secs).sum()
    }

    /// [`Rep::replay_secs`] at the nominal host speed, each call scaled
    /// by the reference loop timed right before it.
    pub fn replay_scaled_secs(&self) -> f64 {
        self.runs.iter().map(|t| t.scale(t.secs)).sum()
    }

    /// Requests the offline replay calls measure, given the requests one
    /// call measures.
    pub fn replayed(&self, measured: f64) -> f64 {
        measured * self.runs.len() as f64
    }

    /// Whether every offline replay call succeeded.
    pub fn replays_ok(&self) -> bool {
        self.runs.iter().all(|t| t.out.is_ok())
    }
}

/// Records replayed by one offline call (the warm-up prefix included)
/// and records measured by it (the warm-up prefix excluded).
pub fn phases<'a>(cfg: &IcgmmConfig, trace: &'a Trace) -> (&'a [TraceRecord], &'a [TraceRecord]) {
    let (start, end) = cfg.preprocess.kept_range(trace.len());
    (&trace.records()[..start], &trace.records()[start..end])
}

/// Makes the workload's calls through the facade, timing the reference
/// loop right before each call an end-to-end metric times: on one thread
/// before the single-threaded `run` and `run_dataflow`, on two before a
/// serving session, whose client, shard workers and merger keep both
/// vCPUs busy.
pub fn facade_rep(sys: &Icgmm, trace: &Trace) -> Rep {
    Rep {
        runs: MODES
            .iter()
            .map(|&m| Timed::scaled(1, || sys.run(trace, m)))
            .collect(),
        dataflow: Timed::scaled(1, || {
            sys.run_dataflow(trace, BOTH, &DataflowConfig::default())
        }),
        sharded: Timed::of(|| sys.run_sharded(trace, BOTH)),
        serves: (0..SERVES)
            .map(|_| Timed::scaled(2, || sys.serve(trace, BOTH)))
            .collect(),
    }
}

/// Counts replay events that consumed a score.
#[derive(Default)]
struct Consumed(u64);

impl ReplayObserver for Consumed {
    fn on_record(&mut self, ev: &ReplayEvent<'_>) {
        self.0 += u64::from(ev.score.is_some());
    }
}

/// Where a stack's spans go: the tracer and the span they hang under.
pub type Probe<'a> = Option<(&'a Tracer, SpanId)>;

/// A sharded replay's report plus the scores it consumed.
#[derive(Clone, Debug)]
pub struct ShardedOut {
    /// The report as `Icgmm::run_sharded` builds it.
    pub run: RunReport,
    /// Replay events that consumed a score.
    pub scores_consumed: u64,
}

/// Policies and scorers assembled from public constructors, mirroring
/// what the facade builds for an empty fault plan.
pub struct Stack<'a> {
    sys: &'a Icgmm,
    cfg: IcgmmConfig,
    model: &'a TrainedModel,
}

impl<'a> Stack<'a> {
    /// A stack over a fitted system.
    ///
    /// # Panics
    ///
    /// Panics when `sys` is not fitted.
    pub fn new(sys: &'a Icgmm) -> Self {
        Stack {
            sys,
            cfg: *sys.config(),
            model: sys.model().expect("the stack needs a fitted system"),
        }
    }

    fn admission(&self, mode: PolicyMode) -> Box<dyn AdmissionPolicy + Send> {
        match mode {
            PolicyMode::GmmCachingOnly | PolicyMode::GmmCachingEviction => {
                Box::new(ThresholdAdmit {
                    threshold: self.model.threshold,
                    admit_writes_always: self.cfg.admit_writes_always,
                })
            }
            _ => Box::new(AlwaysAdmit),
        }
    }

    fn eviction(&self, mode: PolicyMode) -> Box<dyn EvictionPolicy + Send> {
        let (sets, ways) = (self.cfg.cache.num_sets(), self.cfg.cache.ways);
        match mode {
            PolicyMode::GmmEvictionOnly | PolicyMode::GmmCachingEviction => {
                if self.cfg.eviction_hit_bonus > 0.0 {
                    Box::new(GmmScorePolicy::with_hit_bonus(
                        sets,
                        ways,
                        self.cfg.eviction_hit_bonus,
                    ))
                } else {
                    Box::new(GmmScorePolicy::new(sets, ways))
                }
            }
            _ => Box::new(LruPolicy::new(sets, ways)),
        }
    }

    /// The bare policy engine `Icgmm::run` and `Icgmm::run_dataflow` score
    /// with.
    fn engine(&self) -> Box<dyn ScoreSource + Send> {
        Box::new(self.sys.policy_engine().expect("fitted system"))
    }

    /// The policy engine, wrapped in the online refit loop when `plan` is
    /// armed (stats land in `sink`).
    fn scorer(&self, shard: u64, plan: AdaptPlan, sink: &AdaptSink) -> Box<dyn ScoreSource + Send> {
        if plan.is_empty() {
            self.engine()
        } else {
            Box::new(
                AdaptiveEngine::new(
                    self.sys.policy_engine().expect("fitted system"),
                    &self.model.gmm,
                    self.cfg.em,
                    &self.cfg.preprocess,
                    plan,
                    shard,
                    sink.clone(),
                )
                .expect("adapt plan validated by Icgmm::new"),
            )
        }
    }

    /// The single-threaded replay `Icgmm::run` makes (adaptation off),
    /// through `WindowedSimulator` (scored modes) or the streaming loop;
    /// returns the report and the scores it consumed.
    pub fn run(
        &self,
        trace: &Trace,
        mode: PolicyMode,
        probe: Probe<'_>,
    ) -> Result<(RunReport, u64), String> {
        let (warmup, measured) = phases(&self.cfg, trace);
        let mut cache = SetAssocCache::new(self.cfg.cache).map_err(|e| e.to_string())?;
        let (mut adm, mut ev) = (self.admission(mode), self.eviction(mode));
        let mut score = mode.uses_gmm().then(|| timed_scorer(self.engine(), probe));
        // `Icgmm::run` routes on the bare engine's preference.
        let use_batched = mode.uses_gmm()
            && self
                .sys
                .policy_engine()
                .expect("fitted system")
                .prefers_batching();
        let mut consumed = Consumed::default();
        let mut wsim = WindowedSimulator::with_params(self.cfg.spec_params());
        let dyn_score = score.as_mut().map(|s| s as &mut dyn ScoreSource);
        let mut sim = if use_batched {
            wsim.run_observed(
                warmup,
                measured,
                &mut cache,
                adm.as_mut(),
                ev.as_mut(),
                dyn_score,
                &self.cfg.latency,
                None,
                &mut consumed,
            )
        } else {
            simulate_streaming_observed_with_warmup(
                warmup,
                measured,
                &mut cache,
                adm.as_mut(),
                ev.as_mut(),
                dyn_score,
                &self.cfg.latency,
                None,
                &mut consumed,
            )
        };
        if use_batched {
            sim.fault.merge(wsim.fault_stats());
        }
        Ok((
            RunReport {
                mode,
                sim,
                gmm_inferences: score.as_ref().map_or(0, TimedScore::scores),
                spec: use_batched.then(|| *wsim.spec_stats()),
            },
            consumed.0,
        ))
    }

    /// The dataflow replay `Icgmm::run_dataflow` makes (gmm-both, plain
    /// engine: the facade never arms adaptation there).
    pub fn dataflow(&self, trace: &Trace, probe: Probe<'_>) -> Result<DataflowReport, String> {
        let (warmup, measured) = phases(&self.cfg, trace);
        let (mut adm, mut ev) = (self.admission(BOTH), self.eviction(BOTH));
        let mut score = timed_scorer(self.engine(), probe);
        icgmm_hw::run_dataflow_with_warmup(
            warmup,
            measured,
            self.cfg.cache,
            adm.as_mut(),
            ev.as_mut(),
            Some(&mut score),
            &DataflowConfig::default(),
        )
        .map_err(|e| e.to_string())
    }

    /// Builds one shard's policies; under a probe, opens the shard's
    /// `cache.shard.busy` span (closed when its scorer is dropped) and
    /// times construction as `cache.shard.setup`.
    fn shard_policies(
        &self,
        ctx: &ShardCtx<'_>,
        plan: AdaptPlan,
        sinks: &Mutex<Vec<AdaptSink>>,
        probe: Probe<'_>,
    ) -> ShardPolicies {
        let spans = probe.map(|(t, parent)| {
            let busy = t.open("cache.shard.busy", Some(parent));
            (t, busy, t.open("cache.shard.setup", Some(busy)))
        });
        let sink = AdaptSink::new();
        sinks.lock().expect("sink lock never poisoned")[ctx.shard] = sink.clone();
        let inner = self.scorer(ctx.shard as u64, plan, &sink);
        let score: Box<dyn ScoreSource + Send> = match spans {
            Some((t, busy, _)) => {
                Box::new(TimedScore::new(inner, t, Some(busy)).close_on_drop(busy))
            }
            None => inner,
        };
        let pol = ShardPolicies {
            admission: self.admission(BOTH),
            eviction: self.eviction(BOTH),
            score: Some(score),
        };
        if let Some((t, _, setup)) = spans {
            t.close(setup, 0);
        }
        pol
    }

    /// The sharded replay `Icgmm::run_sharded` makes (gmm-both) with the
    /// given adaptation plan.
    pub fn sharded(
        &self,
        trace: &Trace,
        plan: AdaptPlan,
        probe: Probe<'_>,
    ) -> Result<ShardedOut, String> {
        let (warmup, measured) = phases(&self.cfg, trace);
        let sinks = Mutex::new(vec![AdaptSink::new(); SHARDS]);
        let ssim = ShardedSimulator::with_params(SHARDS, self.cfg.spec_params())
            .with_faults(self.cfg.fault);
        let mut rep = ssim
            .run(
                warmup,
                measured,
                self.cfg.cache,
                &|ctx| self.shard_policies(ctx, plan, &sinks, probe),
                &self.cfg.latency,
                None,
            )
            .map_err(|e| e.to_string())?;
        for sink in sinks.into_inner().expect("workers joined") {
            rep.sim.adapt.merge(&sink.snapshot());
        }
        let gmm_inferences = if rep.batched {
            rep.spec.scores_computed()
        } else {
            rep.scores_consumed
        };
        Ok(ShardedOut {
            run: RunReport {
                mode: BOTH,
                sim: rep.sim,
                gmm_inferences,
                spec: rep.batched.then_some(rep.spec),
            },
            scores_consumed: rep.scores_consumed,
        })
    }

    /// The serving session `Icgmm::serve` runs (gmm-both).
    pub fn serve(&self, trace: &Trace, probe: Probe<'_>) -> Result<ServeReport, String> {
        let (warmup, measured) = phases(&self.cfg, trace);
        let sinks = Mutex::new(vec![AdaptSink::new(); SHARDS]);
        let server = CacheServer::new(ServeConfig {
            shards: SHARDS,
            clients: self.cfg.serve_clients,
            queue_depth: self.cfg.serve_queue_depth,
            completion_depth: self.cfg.serve_completion_depth,
            params: self.cfg.spec_params(),
            fault: self.cfg.fault,
            ..ServeConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let mut rep = server
            .serve(
                warmup,
                measured,
                self.cfg.cache,
                &|ctx| self.shard_policies(ctx, self.cfg.adapt, &sinks, probe),
                &self.cfg.latency,
                None,
            )
            .map_err(|e| e.to_string())?;
        for sink in sinks.into_inner().expect("workers joined") {
            rep.sim.adapt.merge(&sink.snapshot());
        }
        Ok(rep)
    }

    /// Routes the trace into per-shard position lists exactly as the
    /// sharded engines' fan-out does.
    pub fn partition(&self, trace: &Trace) -> Result<ShardPartition, String> {
        let (warmup, measured) = phases(&self.cfg, trace);
        ShardPartition::build(SHARDS, &self.cfg.cache, warmup, measured).map_err(|e| e.to_string())
    }
}

/// Wraps a scorer in the timing decorator; without a probe the decorator
/// records into a throwaway tracer (its spans are never read).
fn timed_scorer(
    inner: Box<dyn ScoreSource + Send>,
    probe: Probe<'_>,
) -> TimedScore<Box<dyn ScoreSource + Send>> {
    match probe {
        Some((t, parent)) => TimedScore::new(inner, t, Some(parent)),
        None => TimedScore::new(inner, &Tracer::new(), None),
    }
}
