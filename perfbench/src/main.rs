//! Pipeline benchmark of the ICGMM reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! Each run sets the workload up several times (trace generation,
//! `Icgmm::new`, `Icgmm::fit`), then repeats the workload's calls for
//! `--seconds` seconds and checks every report. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` prints the per-layer metrics of a
//! traced run and writes its spans as JSON lines (by default under
//! `perfbench/out/`). The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` for the workloads and the layer-to-metric map.

mod checks;
mod pipeline;
mod spans;
mod timed;
mod traced;
mod workload;
mod yardstick;

use checks::{check_rep, digest, fingerprint, Tally};
use icgmm::benchmarks::paper_numbers;
use icgmm::{Icgmm, PolicyMode};
use icgmm_hw::DataflowConfig;
use icgmm_serve::ServeReport;
use pipeline::{facade_rep, phases, Rep, ShardedOut, Stack, Timed, BOTH, MODES, SERVES};
use spans::Tracer;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Scale, Workload, CLIENTS, SHARDS};
use yardstick::Reading;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Repetitions of the workload's calls per run, at least.
const MIN_REPS: usize = 2;

/// One metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run prints.
struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of `xs` once sorted
/// (all of them below four values). Robust to the occasional disturbed
/// repetition like a median, and smoother than one where a value comes
/// from bucketed quantiles.
fn iqm(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "mean of nothing");
    xs.sort_by(f64::total_cmp);
    let cut = xs.len() / 4;
    let mid = &xs[cut..xs.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The host and the thread budget, recorded with every run.
fn context(w: Workload, scale: Scale, seed: u64, sys: &Icgmm) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let em_threads = match sys.config().em.threads {
        0 => nproc,
        t => t,
    };
    vec![
        format!("workload {} seed {seed}: {} requests, max_train_cells {}, K = {}, cache {} blocks",
            w.name(), scale.requests, scale.max_train_cells, sys.config().em.k,
            sys.config().cache.num_blocks()),
        format!("host: nproc {nproc}; threads: {CLIENTS} serving client, {SHARDS} shard workers, {em_threads} EM threads"),
    ]
}

/// The reference every repetition is checked against (see `checks.rs`).
fn reference(sys: &Icgmm, trace: &icgmm_trace::Trace) -> Result<ShardedOut, String> {
    Stack::new(sys).sharded(trace, sys.config().adapt, None)
}

/// Repeats `rep` until `seconds` have passed (at least [`MIN_REPS`]
/// times), checking each repetition.
fn repeat(
    seconds: u64,
    reference: &ShardedOut,
    baseline: &mut Vec<String>,
    tally: &mut Tally,
    mut rep: impl FnMut(usize) -> Vec<(Rep, &'static str)>,
) -> Vec<Vec<Rep>> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out: Vec<Vec<Rep>> = Vec::new();
    let mut i = 0;
    while i < MIN_REPS || start.elapsed() < budget {
        for (j, (r, label)) in rep(i).into_iter().enumerate() {
            tally.merge(check_rep(
                &r,
                reference,
                baseline,
                &format!("{label} rep {i}"),
            ));
            let loop_s = |t: Option<Reading>| {
                t.map_or(String::new(), |r| {
                    format!(" [loop {:.4} s on {}]", r.secs, r.threads)
                })
            };
            eprintln!(
                "{label} rep {i}: replay {}; dataflow {:.3} s{}; serve {}",
                r.runs
                    .iter()
                    .map(|t| format!("{:.3} s{}", t.secs, loop_s(t.reference)))
                    .collect::<Vec<_>>()
                    .join(", "),
                r.dataflow.secs,
                loop_s(r.dataflow.reference),
                r.serves
                    .iter()
                    .map(|t| match &t.out {
                        Ok(s) => format!(
                            "{:.3} s{} (admission p50 {} us, p99 {} us)",
                            t.secs,
                            loop_s(t.reference),
                            s.admission_p50_us,
                            s.admission_p99_us
                        ),
                        Err(_) => format!("{:.3} s (failed)", t.secs),
                    })
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            if baseline.is_empty() {
                *baseline = fingerprint(&r);
            }
            if out.len() <= j {
                out.push(Vec::new());
            }
            out[j].push(r);
        }
        i += 1;
    }
    out
}

fn rps(requests: f64, secs: f64) -> f64 {
    requests / secs
}

/// The untraced run: end-to-end metrics.
fn untraced(w: Workload, scale: Scale, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let start = Instant::now();
    let (trace, sys) = w
        .setup(scale, seed)
        .map_err(|e| format!("set-up failed: {e}"))?;
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    let trace = &trace;
    let mut lines = context(w, scale, seed, &sys);
    let reference = reference(&sys, trace)?;

    let mut tally = Tally::default();
    let mut baseline = Vec::new();
    // The mark once the set-up, the reference sharded replay and one
    // untimed pass of the single-threaded calls have run (their results
    // are checked in the repetitions). Serving is left out: its threads
    // raise the mark by a further 2 to 20 MB from run to run of one seed,
    // depending on how glibc's per-thread arenas happen to be reused. So
    // are the further set-ups: a second and third fit left 2.5 MB more
    // resident in some runs of a seed and not in others.
    for mode in MODES {
        let _ = std::hint::black_box(sys.run(trace, mode));
    }
    let _ = std::hint::black_box(sys.run_dataflow(trace, BOTH, &DataflowConfig::default()));
    let peak = peak_rss_mib()?;
    for _ in 1..SETUP_REPS {
        let start = Instant::now();
        let again = w
            .setup(scale, seed)
            .map_err(|e| format!("set-up failed: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        drop(again);
    }
    let reps = repeat(seconds, &reference, &mut baseline, &mut tally, |_| {
        vec![(facade_rep(&sys, trace), "facade")]
    })
    .remove(0);

    let measured = phases(sys.config(), trace).1.len() as f64;
    let ok = |f: &dyn Fn(&Rep) -> Option<f64>| -> Result<f64, String> {
        let xs: Vec<f64> = reps.iter().filter_map(f).collect();
        if xs.is_empty() {
            Err("every repetition of a call failed".into())
        } else {
            Ok(iqm(xs))
        }
    };
    let served = |f: &dyn Fn(&Timed<ServeReport>) -> Option<f64>| -> Result<f64, String> {
        let xs: Vec<f64> = reps.iter().flat_map(|r| &r.serves).filter_map(f).collect();
        if xs.is_empty() {
            Err("every serving session failed".into())
        } else {
            Ok(iqm(xs))
        }
    };
    let replay = |r: &Rep| {
        r.replays_ok()
            .then(|| rps(r.replayed(measured), r.replay_scaled_secs()))
    };
    let first = &reps[0];
    let both = first.sharded.out.as_ref().map_err(|e| e.clone())?;
    let dataflow = first.dataflow.out.as_ref().map_err(|e| e.clone())?;
    let metrics = vec![
        ("setup_s", median(setup_s), "s"),
        ("replay_rps", ok(&replay)?, "req/s"),
        (
            "dataflow_rps",
            ok(&|r| {
                r.dataflow
                    .out
                    .is_ok()
                    .then(|| rps(measured, r.dataflow.scale(r.dataflow.secs)))
            })?,
            "req/s",
        ),
        (
            "serve_rps",
            served(&|t| t.out.is_ok().then(|| rps(measured, t.scale(t.secs))))?,
            "req/s",
        ),
        (
            "serve_p50_us",
            served(&|t| t.out.as_ref().ok().map(|s| t.scale(s.admission_p50_us)))?,
            "us",
        ),
        (
            "serve_p99_us",
            served(&|t| t.out.as_ref().ok().map(|s| t.scale(s.admission_p99_us)))?,
            "us",
        ),
        ("miss_rate_pct", both.miss_rate_pct(), "%"),
        ("avg_access_us", both.avg_us(), "us"),
        ("dataflow_avg_request_us", dataflow.avg_request_us, "us"),
        ("peak_rss_mib", peak, "MiB"),
    ];

    lines.push(format!(
        "repetitions: {} set-ups, {} of the workload's calls ({} serving sessions each)",
        SETUP_REPS,
        reps.len(),
        SERVES
    ));
    let readings: Vec<Reading> = reps
        .iter()
        .flat_map(|r| {
            r.runs
                .iter()
                .map(|t| t.reference)
                .chain([r.dataflow.reference])
                .chain(r.serves.iter().map(|t| t.reference))
        })
        .flatten()
        .collect();
    let loop_s = |threads: usize| {
        iqm(readings
            .iter()
            .filter(|r| r.threads == threads)
            .map(|r| r.secs)
            .collect())
    };
    lines.push(format!(
        "unscaled (wall-time) figures: replay {:.0} req/s, dataflow {:.0} req/s, \
         serve {:.0} req/s, admission p50 {:.1} us, p99 {:.1} us; reference loop {:.4} s on one \
         thread, {:.4} s on two (nominal {:?} s)",
        ok(&|r| r
            .replays_ok()
            .then(|| rps(r.replayed(measured), r.replay_secs())))?,
        ok(&|r| r
            .dataflow
            .out
            .is_ok()
            .then(|| rps(measured, r.dataflow.secs)))?,
        served(&|t| t.out.is_ok().then(|| rps(measured, t.secs)))?,
        served(&|t| t.out.as_ref().ok().map(|s| s.admission_p50_us))?,
        served(&|t| t.out.as_ref().ok().map(|s| s.admission_p99_us))?,
        loop_s(1),
        loop_s(2),
        yardstick::NOMINAL_SECS,
    ));
    lines.push(format!("fingerprint {:016x}", digest(&baseline)));
    lines.extend(paper_reference(w, first));
    Ok(Outcome {
        tally,
        metrics,
        lines,
    })
}

/// The simulated Fig. 6 / Table 1 figures beside the published ones.
fn paper_reference(w: Workload, rep: &Rep) -> Vec<String> {
    let sim = |mode: PolicyMode| {
        MODES
            .iter()
            .zip(&rep.runs)
            .find(|(m, _)| **m == mode)
            .and_then(|(_, t)| t.out.as_ref().ok())
            .map(|r| (r.miss_rate_pct(), r.avg_us()))
    };
    let mut lines = Vec::new();
    if let (Some(lru), Some(gmm)) = (sim(PolicyMode::Lru), sim(PolicyMode::GmmCachingEviction)) {
        lines.push(format!(
            "simulated (synthetic trace): lru miss {:.2}% avg {:.2} us; gmm-both miss {:.2}% avg {:.2} us",
            lru.0, lru.1, gmm.0, gmm.1
        ));
    }
    let kind = w.preset();
    let p = paper_numbers(kind);
    lines.push(format!(
        "published FPGA numbers on real {kind} traces (paper Fig. 6 / Table 1, not comparable as an error): \
         lru miss {:.2}% avg {:.2} us; gmm miss {:.2}% avg {:.2} us",
        p.lru_miss_pct, p.lru_avg_us, p.gmm_miss_pct, p.gmm_avg_us
    ));
    lines
}

/// The traced run: per-layer metrics.
fn traced(
    w: Workload,
    scale: Scale,
    seed: u64,
    seconds: u64,
    spans_path: &str,
) -> Result<Outcome, String> {
    let (trace, sys) = w
        .setup(scale, seed)
        .map_err(|e| format!("set-up failed: {e}"))?;
    let trace = &trace;
    let mut lines = context(w, scale, seed, &sys);
    let mut tally = Tally::default();

    // The set-up, layer by layer; its model must be the facade's.
    let setup_tracer = Tracer::new();
    let root = setup_tracer.open("setup", None);
    let split = traced::setup(w, scale, seed, &setup_tracer, root)
        .map_err(|e| format!("traced set-up failed: {e}"))?;
    setup_tracer.close(root, 0);
    tally.op(Some(&split.model) == sys.model(), || {
        "traced set-up: model differs from Icgmm::fit's".into()
    });
    tally.op(split.trace.records() == trace.records(), || {
        "traced set-up: trace differs from the facade set-up's".into()
    });

    let reference = reference(&sys, trace)?;
    let mut baseline = Vec::new();
    let mut layers = Vec::new();
    let mut last_tracer = Tracer::new();
    let mut counterpart = Tally::default();
    let reps = repeat(seconds, &reference, &mut baseline, &mut tally, |_| {
        let tracer = Tracer::new();
        let (traced_rep, l, other_ok) = traced::rep(&sys, trace, seed, &tracer);
        counterpart.op(other_ok, || "adaptation counterpart replay failed".into());
        layers.push(l);
        last_tracer = tracer;
        vec![(facade_rep(&sys, trace), "facade"), (traced_rep, "traced")]
    });
    tally.merge(counterpart);

    let measured = phases(sys.config(), trace).1.len() as f64;
    let untraced_rps = iqm(reps[0]
        .iter()
        .map(|r| rps(r.replayed(measured), r.replay_secs()))
        .collect());
    let traced_rps = iqm(reps[1]
        .iter()
        .zip(&layers)
        .map(|(r, l)| rps(r.replayed(measured), l["traced_replay_s"]))
        .collect());
    let layer = |name: &str| iqm(layers.iter().filter_map(|l| l.get(name).copied()).collect());

    let set = spans::SpanSet::new(&setup_tracer);
    let secs = |name: &str| set.total(name, root).0;
    let em_s = secs("gmm.em");
    let k = sys.config().em.k as f64;
    let point_comps = split.cells_trained as f64 * k * split.em.iterations as f64;
    let mut metrics: Vec<Metric> = vec![
        ("trace.generate_s", secs("trace.generate"), "s"),
        ("trace.cells_s", secs("trace.cells"), "s"),
        ("trace.cells", split.cells_total as f64, "count"),
        ("gmm.em_s", em_s, "s"),
        ("gmm.em_iters", split.em.iterations as f64, "count"),
        ("gmm.em_ns_per_point_comp", em_s * 1e9 / point_comps, "ns"),
        ("gmm.calibrate_s", secs("gmm.calibrate"), "s"),
    ];
    for (name, unit) in [
        ("gmm.score_s", "s"),
        ("gmm.scores", "count"),
        ("gmm.score_calls", "count"),
        ("gmm.ns_per_score", "ns"),
        ("cache.replay_self_s", "s"),
        ("cache.spec.batched_scores", "count"),
        ("cache.spec.streamed_records", "count"),
        ("cache.spec.divergences", "count"),
        ("cache.spec.useful_ratio", "ratio"),
        ("cache.shard.partition_s", "s"),
        ("cache.shard.setup_s", "s"),
        ("cache.shard.busy_max_s", "s"),
        ("cache.shard.imbalance", "ratio"),
        ("cache.shard.tail_s", "s"),
        ("core.adapt_s", "s"),
        ("core.adapt.refits", "count"),
        ("core.adapt.checks", "count"),
        ("core.adapt.evals", "count"),
        ("serve.transport_s", "s"),
        ("serve.sheds", "count"),
        ("serve.overlap_saved_us", "us"),
        ("hw.dataflow_self_s", "s"),
        ("hw.gmm_busy_us", "us"),
        ("hw.overlap_saved_us", "us"),
        ("hw.avg_queue_us", "us"),
        ("hw.ssd_utilization", "ratio"),
        ("unattributed_pct", "%"),
    ] {
        metrics.push((name, layer(name), unit));
    }
    metrics.push((
        "trace_overhead_pct",
        100.0 * (untraced_rps / traced_rps - 1.0),
        "%",
    ));

    let path = std::path::PathBuf::from(spans_path);
    let mut all = setup_tracer.snapshot();
    let offset = all.len();
    all.extend(last_tracer.snapshot().into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
    spans::write_jsonl(&path, &all)
        .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;

    lines.push(format!(
        "repetitions: {} untraced and {} traced; spans of the set-up and the last traced repetition in {}",
        reps[0].len(),
        reps[1].len(),
        path.display()
    ));
    lines.push(format!(
        "fingerprint {:016x} (traced and untraced reports bit-identical when no operation failed)",
        digest(&baseline)
    ));
    Ok(Outcome {
        tally,
        metrics,
        lines,
    })
}

/// The result line: one JSON object.
fn result_json(o: &Outcome) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        o.tally.failed == 0,
        o.tally.attempted,
        o.tally.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = args.workload.scale();
    let outcome = if args.trace {
        let spans = args.spans.clone().unwrap_or_else(|| {
            format!(
                "perfbench/out/spans-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            )
        });
        traced(args.workload, scale, args.seed, args.seconds, &spans)
    } else {
        untraced(args.workload, scale, args.seed, args.seconds)
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &o.lines {
        println!("{line}");
    }
    for (name, value, unit) in &o.metrics {
        println!("{name:<28} {value:>16.4} {unit}");
    }
    println!(
        "operations: {} attempted, {} failed ({:.2}% failed)",
        o.tally.attempted,
        o.tally.failed,
        100.0 * o.tally.failed as f64 / o.tally.attempted.max(1) as f64
    );
    for note in &o.tally.notes {
        println!("failure: {note}");
    }
    if o.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: a metric is not finite");
        return ExitCode::from(1);
    }
    println!("{}", result_json(&o));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 7;

    /// Metric names listed in one section of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<String> {
        let json = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closed name")].to_string())
            .collect()
    }

    fn names(o: &Outcome) -> Vec<String> {
        o.metrics.iter().map(|(n, _, _)| n.to_string()).collect()
    }

    #[test]
    fn every_workload_runs_and_its_checks_pass() {
        for w in Workload::ALL {
            let o = untraced(w, Scale::TINY, SEED, 0).expect("untraced run");
            assert!(o.tally.attempted > 0);
            assert_eq!(o.tally.failed, 0, "{}: {:?}", w.name(), o.tally.notes);
            assert_eq!(names(&o), listed("end_to_end"), "{}", w.name());
            assert!(o.metrics.iter().all(|(_, v, _)| v.is_finite()));

            let spans = format!(
                "{}/out/test-spans-{}.jsonl",
                env!("CARGO_MANIFEST_DIR"),
                w.name()
            );
            let o = traced(w, Scale::TINY, SEED, 0, &spans).expect("traced run");
            assert_eq!(o.tally.failed, 0, "{}: {:?}", w.name(), o.tally.notes);
            assert_eq!(names(&o), listed("per_layer"), "{}", w.name());
            assert!(o.metrics.iter().all(|(_, v, _)| v.is_finite()));
            assert!(std::fs::metadata(&spans).is_ok_and(|m| m.len() > 0));
        }
    }

    #[test]
    fn iqm_drops_the_outer_quarters() {
        assert_eq!(iqm(vec![100.0, 2.0, 1.0, 3.0]), 2.5);
        assert_eq!(iqm(vec![4.0, 2.0]), 3.0);
    }

    #[test]
    fn a_perturbed_reference_is_a_failed_operation() {
        let (trace, sys) = Workload::HashmapOffline
            .setup(Scale::TINY, SEED)
            .expect("set-up");
        let good = reference(&sys, &trace).expect("reference");
        let rep = facade_rep(&sys, &trace);
        let baseline = fingerprint(&rep);
        let clean = check_rep(&rep, &good, &baseline, "clean");
        assert_eq!(clean.failed, 0, "{:?}", clean.notes);

        // run (gmm-both), run_sharded and every serve compare their
        // simulation against the reference.
        let mut bad = good.clone();
        bad.run.sim.stats.reads += 1;
        let t = check_rep(&rep, &bad, &baseline, "perturbed sim");
        assert_eq!(t.failed, 2 + SERVES as u64, "{:?}", t.notes);

        let mut bad = good.clone();
        bad.scores_consumed += 1;
        assert_eq!(
            check_rep(&rep, &bad, &baseline, "perturbed consumed").failed,
            SERVES as u64
        );

        // A serving session that differs from the repetition's first one
        // breaks the exact repeat.
        let mut odd = rep.clone();
        if let Ok(s) = odd.serves[SERVES - 1].out.as_mut() {
            s.overlap.overlap_saved_us += 1.0;
        }
        assert_eq!(check_rep(&odd, &good, &[], "perturbed serve").failed, 1);

        // run_dataflow is checked against the repetition's own run.
        let mut odd = rep.clone();
        if let Ok(d) = odd.dataflow.out.as_mut() {
            d.stats.dirty_evictions += 1;
        }
        assert_eq!(check_rep(&odd, &good, &[], "perturbed dataflow").failed, 1);

        let mut drifted = baseline.clone();
        drifted[0].push('!');
        assert_eq!(
            check_rep(&rep, &good, &drifted, "perturbed fingerprint").failed,
            1
        );
    }
}
