//! Output checks and the exact-repeat fingerprint.
//!
//! Each replay, dataflow and serving call is one operation. It fails when
//! it errors, disagrees with its reference, or disagrees with the same
//! call in the first repetition (the fingerprint). Each request a serving
//! session sheds is one more attempted and failed operation.
//!
//! The reference is a sharded gmm-both replay assembled from the cache
//! crate's public constructors ([`crate::pipeline::Stack::sharded`]), made
//! once per run outside any timing:
//!
//! * `run_sharded` must equal it (report, inference count, speculation);
//! * `serve` must equal it in `.sim` and `scores_consumed`;
//! * `run` (gmm-both) must equal it in `.sim`, so `run`, `run_sharded` and
//!   `serve` agree;
//! * `run_dataflow` must equal `run` (gmm-both) in `CacheStats`.

use crate::pipeline::{Rep, ShardedOut, Timed, BOTH, MODES};
use icgmm_serve::ServeReport;
use std::fmt::Debug;

/// Operations attempted and failed, with a note per failure.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Adds another tally's counts and notes.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

fn fp<T: Debug>(t: &Timed<T>) -> String {
    match &t.out {
        Ok(r) => format!("{r:?}"),
        Err(e) => format!("error: {e}"),
    }
}

/// The deterministic part of every call's report, one entry per call:
/// `CacheStats`, speculation and adaptation telemetry, the simulated
/// latencies and the dataflow model's timing. Serving speculation
/// telemetry and host timings depend on thread interleaving and are left
/// out. Every serving session of a repetition must print the same, so
/// only the first one's print is kept.
pub fn fingerprint(rep: &Rep) -> Vec<String> {
    let mut out: Vec<String> = rep.runs.iter().map(fp).collect();
    out.push(fp(&rep.dataflow));
    out.push(fp(&rep.sharded));
    out.push(rep.serves.first().map_or_else(String::new, serve_fp));
    out
}

fn serve_fp(t: &Timed<ServeReport>) -> String {
    match &t.out {
        Ok(s) => format!(
            "{:?} consumed={} requests={} sheds={} {:?}",
            s.sim, s.scores_consumed, s.requests, s.sheds, s.overlap
        ),
        Err(e) => format!("error: {e}"),
    }
}

/// FNV-1a over a fingerprint, for printing.
pub fn digest(fingerprint: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in fingerprint.iter().flat_map(|s| s.bytes().chain([0])) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Checks one repetition against `want`, the reference sharded replay,
/// and against `baseline`, the fingerprint of the first repetition
/// (empty for the first one).
pub fn check_rep(rep: &Rep, want: &ShardedOut, baseline: &[String], label: &str) -> Tally {
    let mut tally = Tally::default();
    let prints = fingerprint(rep);
    let repeats = |i: usize| baseline.is_empty() || baseline[i] == prints[i];

    for (i, (mode, t)) in MODES.iter().zip(&rep.runs).enumerate() {
        let agrees = match &t.out {
            Ok(r) => *mode != BOTH || r.sim == want.run.sim,
            Err(_) => false,
        };
        tally.op(agrees && repeats(i), || {
            format!(
                "{label}: run {mode} failed or disagrees: {}",
                short(&prints[i])
            )
        });
    }

    let own = rep
        .runs
        .last()
        .and_then(|t| t.out.as_ref().ok())
        .map(|r| r.sim.stats);
    let i = rep.runs.len();
    let agrees = match (&rep.dataflow.out, own) {
        (Ok(d), Some(stats)) => d.stats == stats,
        _ => false,
    };
    tally.op(agrees && repeats(i), || {
        format!(
            "{label}: run_dataflow failed or disagrees with run: {}",
            short(&prints[i])
        )
    });

    let agrees = rep.sharded.out.as_ref().is_ok_and(|r| *r == want.run);
    tally.op(agrees && repeats(i + 1), || {
        format!(
            "{label}: run_sharded failed or disagrees: {}",
            short(&prints[i + 1])
        )
    });

    for serve in &rep.serves {
        let print = serve_fp(serve);
        let (agrees, sheds) = match &serve.out {
            Ok(s) => (
                s.sim == want.run.sim && s.scores_consumed == want.scores_consumed,
                s.sheds,
            ),
            Err(_) => (false, 0),
        };
        let repeats = print == baseline.get(i + 2).unwrap_or(&prints[i + 2]).as_str();
        tally.op(agrees && repeats, || {
            format!("{label}: serve failed or disagrees: {}", short(&print))
        });
        if sheds > 0 {
            tally.attempted += sheds;
            tally.failed += sheds;
            tally
                .notes
                .push(format!("{label}: serve shed {sheds} requests"));
        }
    }
    tally
}

fn short(s: &str) -> String {
    s.chars().take(160).collect()
}
