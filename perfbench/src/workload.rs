//! The workloads: their inputs, their configuration and their
//! set-up (trace generation, `Icgmm::new`, `Icgmm::fit`).
//!
//! Every workload uses the paper configuration: a 64 MiB / 4 KiB / 8-way
//! cache (16 384 blocks), K = 256, TLC latencies and the preset's
//! calibrated admission quantile. The offline replays run at one shard;
//! the sharded replay and the serving session run at two shard workers fed
//! by one client thread. Why each workload exists is in `README.md`.

use icgmm::benchmarks::BenchmarkSpec;
use icgmm::{Icgmm, IcgmmConfig, IcgmmError};
use icgmm_trace::synth::WorkloadKind;
use icgmm_trace::Trace;

/// Shard workers of the sharded replay and of the serving session.
pub const SHARDS: usize = 2;
/// Client threads of the serving session: one closed-loop client pushing
/// the whole trace under blocking backpressure (saturation).
pub const CLIENTS: usize = 1;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// dlrm preset: miss-heavy and read-mostly.
    DlrmOffline,
    /// hashmap preset: hit-dominated and write-heavy.
    HashmapOffline,
}

/// How large a workload's inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Trace length in requests (warm-up prefix and tail included).
    pub requests: usize,
    /// Training-cell budget of the EM fit (`IcgmmConfig::max_train_cells`).
    pub max_train_cells: usize,
}

#[cfg(test)]
impl Scale {
    /// A scale small enough for the benchmark's self-tests.
    pub const TINY: Scale = Scale {
        requests: 24_000,
        max_train_cells: 1_024,
    };
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 2] = [Workload::DlrmOffline, Workload::HashmapOffline];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DlrmOffline => "dlrm_offline",
            Workload::HashmapOffline => "hashmap_offline",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scale the benchmark runs at. Trace lengths keep one repetition
    /// of the workload's calls near two seconds on a 2-core host, and the
    /// cell budget keeps one fit near two seconds; every workload yields
    /// more cells than the budget, so each does the same EM work.
    pub fn scale(self) -> Scale {
        let requests = match self {
            Workload::DlrmOffline => 400_000,
            Workload::HashmapOffline => 1_200_000,
        };
        Scale {
            requests,
            max_train_cells: 8_192,
        }
    }

    /// The published preset this workload replays.
    pub fn preset(self) -> WorkloadKind {
        match self {
            Workload::DlrmOffline => WorkloadKind::Dlrm,
            Workload::HashmapOffline => WorkloadKind::Hashmap,
        }
    }

    /// The system configuration: the preset's paper configuration (with
    /// adaptation off) plus the benchmark's cell budget and thread budget.
    pub fn config(self, scale: Scale) -> IcgmmConfig {
        let base = BenchmarkSpec::suite_with_requests(scale.requests)
            .into_iter()
            .find(|s| s.kind == self.preset())
            .expect("every preset is in the suite")
            .config();
        IcgmmConfig {
            max_train_cells: scale.max_train_cells,
            sim_shards: SHARDS,
            serve_clients: CLIENTS,
            ..base
        }
    }

    /// Generates the workload's trace from `seed`.
    pub fn generate(self, scale: Scale, seed: u64) -> Trace {
        self.preset()
            .default_workload()
            .generate(scale.requests, seed)
    }

    /// One set-up: generate the trace, build the system and fit it.
    ///
    /// # Errors
    ///
    /// Propagates configuration and fit errors.
    pub fn setup(self, scale: Scale, seed: u64) -> Result<(Trace, Icgmm), IcgmmError> {
        let trace = self.generate(scale, seed);
        let mut sys = Icgmm::new(self.config(scale))?;
        sys.fit(&trace)?;
        Ok((trace, sys))
    }
}
