//! Online adaptive retraining (extension beyond the paper): arm the
//! drift-triggered refit loop (`IcgmmConfig::adapt`) around a model frozen
//! at deployment time and compare it against the paper's frozen offline
//! model on a workload with phase drift.
//!
//! Run with: `cargo run --release --example adaptive_retraining`

use icgmm::report::{f, format_table};
use icgmm::{AdaptPlan, Icgmm, IcgmmConfig, PolicyMode};
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::{MemtierWorkload, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Memtier with slow popularity rotation: the hot key range jumps every
    // 130k requests, so a deployment-time model goes stale over the run.
    let workload = MemtierWorkload {
        phase_len: 130_000,
        rotate_keys: 120_000,
        ..MemtierWorkload::default()
    };
    let trace = workload.generate(400_000, 17);

    let cfg = IcgmmConfig {
        em: EmConfig {
            k: 48,
            ..Default::default()
        },
        threshold: icgmm_gmm::ThresholdConfig { quantile: 0.015 },
        max_train_cells: 40_000,
        ..IcgmmConfig::default()
    };

    // Realistic deployment: the model is frozen at deployment time — it has
    // only seen the first phases of the workload.
    let deploy_prefix: icgmm_trace::Trace = trace.records()[..140_000].iter().copied().collect();
    let mut deployed = Icgmm::new(cfg)?;
    deployed.fit(&deploy_prefix)?;

    // The same deployed model with the online refit loop armed: drift
    // checks every 1 024 requests, incremental refits from a seeded
    // reservoir when the windowed log-likelihood drops.
    let mut adaptive = Icgmm::new(IcgmmConfig {
        adapt: AdaptPlan::drifty(17),
        ..cfg
    })?;
    adaptive.set_model(deployed.model().expect("just fitted").clone());

    // Oracle: trained on the *whole* trace — with the timestamp feature it
    // effectively knows the rotation schedule in advance (train == test).
    let mut oracle = Icgmm::new(cfg)?;
    oracle.fit(&trace)?;

    let lru = deployed.run(&trace, PolicyMode::Lru)?;
    let frozen = deployed.run(&trace, PolicyMode::GmmEvictionOnly)?;
    let adaptive_run = adaptive.run(&trace, PolicyMode::GmmEvictionOnly)?;
    let oracle_run = oracle.run(&trace, PolicyMode::GmmEvictionOnly)?;

    let row = |name: &str, rep: &icgmm::RunReport, refits: String| {
        vec![
            name.into(),
            f(rep.miss_rate_pct(), 2),
            f(rep.avg_us(), 2),
            refits,
        ]
    };
    println!(
        "{}",
        format_table(
            &["policy", "miss %", "avg µs", "refits"],
            &[
                row("lru", &lru, "-".into()),
                row("gmm (frozen at deploy)", &frozen, "0".into()),
                row(
                    "gmm (adaptive)",
                    &adaptive_run,
                    adaptive_run.sim.adapt.refits.to_string()
                ),
                row("gmm (oracle, full trace)", &oracle_run, "0".into()),
            ],
        )
    );
    let a = adaptive_run.sim.adapt;
    println!(
        "adaptation: {} checks, {} drifts declared, {} refits, {} failed",
        a.checks, a.drifts, a.refits, a.refit_failures
    );
    println!("Finding: refits move a deployment-time model toward the full-trace");
    println!("oracle without retraining from scratch. When drift outpaces the check");
    println!("cadence, recency (LRU) remains competitive — retraining cadence is a");
    println!("real deployment knob the paper's offline-only training leaves open.");
    Ok(())
}
