//! The traced run: the set-up split into its layers, and the workload's
//! calls remade through [`Stack`] with every scorer behind the timing
//! decorator. Per-layer metrics are derived from the spans.

use crate::pipeline::{phases, Rep, Stack, Timed, MODES};
use crate::spans::{SpanId, SpanSet, Tracer};
use crate::workload::{Scale, Workload};
use icgmm::{AdaptPlan, Icgmm, IcgmmError, TrainedModel};
use icgmm_cache::SpecStats;
use icgmm_gmm::{calibrate_threshold, EmReport, EmTrainer, StandardScaler};
use icgmm_trace::{extract_weighted_cells_range, Trace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// What the traced set-up measured.
pub struct TracedSetup {
    /// The generated trace.
    pub trace: Trace,
    /// The model fitted step by step.
    pub model: TrainedModel,
    /// Deduplicated training cells before subsampling.
    pub cells_total: usize,
    /// Cells EM trained on.
    pub cells_trained: usize,
    /// EM convergence report.
    pub em: EmReport,
}

/// `Workload::setup` split into its layers, each call timed as a span
/// under `root`: trace generation, cell extraction, subsampling and
/// scaling, EM, threshold calibration. The steps are `Icgmm::fit`'s, made
/// through the trace and gmm crates' public functions; the caller checks
/// that the model equals the facade's.
///
/// # Errors
///
/// Propagates configuration, empty-trace and EM errors.
pub fn setup(
    w: Workload,
    scale: Scale,
    seed: u64,
    tracer: &Tracer,
    root: SpanId,
) -> Result<TracedSetup, IcgmmError> {
    let cfg = w.config(scale);
    let trace = tracer.time("trace.generate", Some(root), || w.generate(scale, seed));
    let (start, end) = cfg.preprocess.kept_range(trace.len());
    if start >= end {
        return Err(IcgmmError::EmptyTrace);
    }
    let cells = tracer.time("trace.cells", Some(root), || {
        extract_weighted_cells_range(trace.records(), &cfg.preprocess, start, end)
    });
    // `Icgmm::fit`'s uniform cell subsample and feature scaling.
    let (xs, ws, scaler) = tracer.time("gmm.prepare", Some(root), || {
        let mut rng = StdRng::seed_from_u64(cfg.em.seed ^ 0x5EED_CE11);
        let sampled: Vec<&icgmm_trace::WeightedSample> = if cells.len() > cfg.max_train_cells {
            let mut idx: Vec<usize> = (0..cells.len()).collect();
            idx.shuffle(&mut rng);
            idx.truncate(cfg.max_train_cells);
            idx.into_iter().map(|i| &cells[i]).collect()
        } else {
            cells.iter().collect()
        };
        let mut xs: Vec<[f64; 2]> = sampled.iter().map(|c| [c.page, c.time]).collect();
        let ws: Vec<f64> = sampled.iter().map(|c| c.weight).collect();
        let scaler = StandardScaler::fit(&xs, &ws);
        scaler.transform_all(&mut xs);
        (xs, ws, scaler)
    });
    let (gmm, em) = tracer.time("gmm.em", Some(root), || {
        EmTrainer::new(cfg.em).and_then(|t| t.fit(&xs, &ws))
    })?;
    let threshold = tracer.time("gmm.calibrate", Some(root), || {
        calibrate_threshold(&gmm, &xs, &ws, &cfg.threshold)
    });
    Ok(TracedSetup {
        cells_total: cells.len(),
        cells_trained: xs.len(),
        em,
        model: TrainedModel {
            scaler,
            gmm,
            threshold,
        },
        trace,
    })
}

/// Per-layer figures of one traced repetition, before averaging over
/// repetitions.
pub type Layers = BTreeMap<&'static str, f64>;

/// One traced repetition: the workload's calls through [`Stack`] with
/// every scorer timed, plus the fan-out and the adaptation counterpart: a
/// sharded replay with `AdaptPlan::drifty(seed)` armed, which the
/// workload's own calls never arm. Returns the calls as a [`Rep`] (for
/// the output checks), the per-layer figures read off the spans, and
/// whether the counterpart replay succeeded.
pub fn rep(sys: &Icgmm, trace: &Trace, seed: u64, tracer: &Tracer) -> (Rep, Layers, bool) {
    let stack = Stack::new(sys);
    let cfg = *sys.config();
    let measured = phases(&cfg, trace).1.len() as u64;
    let root = tracer.open("rep", None);
    let spanned = |name: &'static str| {
        let id = tracer.open(name, Some(root));
        (id, Some((tracer, id)))
    };

    let mut consumed = 0u64;
    let mut replay_ids = Vec::new();
    let runs = MODES
        .iter()
        .map(|&mode| {
            let (id, probe) = spanned("cache.replay");
            replay_ids.push(id);
            let t = Timed::of(|| stack.run(trace, mode, probe));
            tracer.close(id, measured);
            Timed {
                secs: t.secs,
                reference: None,
                out: t.out.map(|(r, c)| {
                    consumed += c;
                    r
                }),
            }
        })
        .collect();
    let (dataflow_id, probe) = spanned("hw.dataflow");
    let dataflow = Timed::of(|| stack.dataflow(trace, probe));
    tracer.close(dataflow_id, measured);
    let _ = std::hint::black_box(tracer.time("cache.shard.partition", Some(root), || {
        stack.partition(trace)
    }));
    let (shard_id, probe) = spanned("cache.shard.run");
    let sharded = Timed::of(|| stack.sharded(trace, cfg.adapt, probe));
    tracer.close(shard_id, measured);
    let (armed_id, probe) = spanned("core.adapt.counterpart");
    let armed = stack.sharded(trace, AdaptPlan::drifty(seed), probe);
    tracer.close(armed_id, measured);
    let (serve_id, probe) = spanned("serve");
    let serve = Timed::of(|| stack.serve(trace, probe));
    tracer.close(serve_id, measured);
    tracer.close(root, 0);

    let rep = Rep {
        runs,
        dataflow,
        sharded: Timed {
            secs: sharded.secs,
            reference: None,
            out: sharded.out.map(|s| s.run),
        },
        serves: vec![serve],
    };
    let set = SpanSet::new(tracer);
    let wall = |id: SpanId| set.get(id).secs();
    let mut l = Layers::new();

    // The workload's offline replay calls: the single-threaded replays.
    let replay_wall: f64 = replay_ids.iter().map(|&i| wall(i)).sum();
    let specs: Vec<SpecStats> = rep
        .runs
        .iter()
        .filter_map(|t| t.out.as_ref().ok().and_then(|r| r.spec))
        .collect();
    let under = |name: &str, roots: &[SpanId]| {
        roots.iter().fold((0.0, 0u64, 0u64), |(t, c, n), &p| {
            let (pt, pc, pn) = set.total(name, p);
            (t + pt, c + pc, n + pn)
        })
    };
    let (replay_score, replay_scores, replay_calls) = under("gmm.score", &replay_ids);
    let (df_score, df_scores, df_calls) = under("gmm.score", &[dataflow_id]);
    let scores = replay_scores + df_scores;
    l.insert("gmm.score_s", replay_score + df_score);
    l.insert("gmm.scores", scores as f64);
    l.insert("gmm.score_calls", (replay_calls + df_calls) as f64);
    l.insert(
        "gmm.ns_per_score",
        (replay_score + df_score) * 1e9 / scores.max(1) as f64,
    );
    l.insert("cache.replay_self_s", replay_wall - replay_score);
    l.insert("hw.dataflow_self_s", wall(dataflow_id) - df_score);
    l.insert("traced_replay_s", replay_wall);

    let computed: u64 = specs.iter().map(SpecStats::scores_computed).sum();
    let sum = |f: fn(&SpecStats) -> u64| specs.iter().map(f).sum::<u64>() as f64;
    l.insert("cache.spec.batched_scores", sum(|s| s.batched_scores));
    l.insert("cache.spec.streamed_records", sum(|s| s.streamed_records));
    l.insert("cache.spec.divergences", sum(SpecStats::divergences));
    l.insert(
        "cache.spec.useful_ratio",
        consumed as f64 / computed.max(1) as f64,
    );

    // Sharded fan-out, per-shard set-up and the serial tail.
    let busy: Vec<f64> = set
        .named("cache.shard.busy", shard_id)
        .map(|s| s.secs())
        .collect();
    let partition_s = set.total("cache.shard.partition", root).0;
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    let busy_mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    l.insert("cache.shard.partition_s", partition_s);
    l.insert(
        "cache.shard.setup_s",
        set.total("cache.shard.setup", shard_id).0,
    );
    l.insert("cache.shard.busy_max_s", busy_max);
    l.insert(
        "cache.shard.imbalance",
        busy_max / busy_mean.max(f64::MIN_POSITIVE),
    );
    l.insert(
        "cache.shard.tail_s",
        wall(shard_id) - partition_s - busy_max,
    );

    // Adaptation: armed minus empty-plan sharded replay of the same trace.
    let adapt = armed
        .as_ref()
        .map_or_else(|_| Default::default(), |o| o.run.sim.adapt);
    l.insert("core.adapt_s", wall(armed_id) - wall(shard_id));
    l.insert("core.adapt.refits", adapt.refits as f64);
    l.insert("core.adapt.checks", adapt.checks as f64);
    l.insert("core.adapt.evals", adapt.evals as f64);

    // Serving: wall minus the slowest shard's busy time in the sharded
    // replay of the same trace (a serving worker's own lifetime
    // includes its waits on the ingestion queue).
    l.insert("serve.transport_s", wall(serve_id) - busy_max);
    if let Ok(s) = &rep.serves[0].out {
        l.insert("serve.sheds", s.sheds as f64);
        l.insert("serve.overlap_saved_us", s.overlap.overlap_saved_us);
    }
    if let Ok(d) = &rep.dataflow.out {
        l.insert("hw.gmm_busy_us", d.gmm_busy_us);
        l.insert("hw.overlap_saved_us", d.overlap_saved_us);
        l.insert("hw.avg_queue_us", d.avg_queue_us);
        l.insert("hw.ssd_utilization", d.ssd_utilization());
    }
    l.insert("unattributed_pct", 100.0 * set.self_secs(root) / wall(root));
    (rep, l, armed.is_ok())
}
