//! # pcaps-experiments — reproduction harness for every table and figure
//!
//! Each module reproduces one table or figure of the paper's evaluation
//! (§6 and Appendix A).  Every output is one entry of [`repro::OUTPUTS`]:
//! a name and a function that returns the text to print and the CSV to
//! write under `results/`.
//!
//! | Paper artefact | Module | Entry |
//! |---|---|---|
//! | Table 1 (carbon trace characteristics) | [`table1`] | `table1` |
//! | Fig. 1 (motivating example) | [`fig1`] | `fig1` |
//! | Fig. 5 (carbon intensity over 48 h) | [`fig5`] | `fig5` |
//! | Fig. 6 (executor usage: Decima / PCAPS / CAP-FIFO) | [`fig6`] | `fig6` |
//! | Table 2 (prototype summary) | [`headline`] | `table2` |
//! | Fig. 7 / Fig. 8 (prototype γ / B sweeps) | [`sweeps`] | `fig7`, `fig8` |
//! | Fig. 9 (per-job carbon vs JCT quadrants) | [`fig9`] | `fig9` |
//! | Fig. 10 / Fig. 14 (per-grid behaviour) | [`per_grid`] | `fig10`, `fig14` |
//! | Table 3 (simulator summary) | [`headline`] | `table3` |
//! | Fig. 11 / Fig. 12 (simulator γ / B sweeps) | [`sweeps`] | `fig11`, `fig12` |
//! | Fig. 13 (PCAPS vs CAP-Decima frontier) | [`fig13`] | `fig13` |
//! | Fig. 15 (FIFO vs Spark/K8s default usage) | [`fig15`] | `fig15` |
//! | Fig. 16 / Fig. 17 (job-count sweeps) | [`sweeps`] | `fig16`, `fig17` |
//! | Fig. 18 / Fig. 19 (inter-arrival sweeps) | [`sweeps`] | `fig18`, `fig19` |
//! | Fig. 20 (scheduler latency) | [`fig20`] | `fig20` (+ perfbench `--trace 1`) |
//!
//! Beyond the paper, the [`multi_region`] module sweeps *federated*
//! configurations — one arrival stream routed across several grids,
//! comparing routing × scheduling policies (entry: `multi_region`) — the
//! [`alibaba_scale`] module sweeps trace-scale streaming workloads (1k–100k
//! Alibaba-style jobs pulled lazily through the [`streaming`] bridge;
//! entry: `alibaba_scale`) — and the [`reliability`] module sweeps crash
//! rates × strategies under deterministic fault injection, reporting wasted
//! work, wasted carbon, and goodput (entry: `reliability`) — and the
//! [`steady_state`] module sweeps open-arrival serving load (unbounded
//! diurnal streams at several rate multipliers × {FIFO, PCAPS} × admission
//! arms), reporting windowed queueing-delay percentiles, throughput, and
//! carbon per executor-hour (entry: `steady_state`).  Each entry writes
//! `results/<entry>.csv`.
//!
//! Two binaries read the registry.  `repro [--quick] [name…]` runs the
//! named entries, or all of them in order, printing each under a
//! `=== name ===` banner and writing its CSV; it exits non-zero on an
//! unknown name or flag, a CSV it cannot write, or a panicking entry.
//! `--quick` runs reduced sizes; run it outside the repository root, where
//! it would overwrite the committed full-size CSVs.  `repro_check`
//! regenerates every entry and fails if a committed `results/*.csv`
//! drifted from it (see [`repro`]).
//!
//! All experiments are deterministic given their seeds; trials differ only in
//! the seed and the offset into the carbon trace, mirroring the paper's
//! methodology of starting each trial at a uniformly random time in the
//! trace (§6.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alibaba_scale;
pub mod fig1;
pub mod fig13;
pub mod fig15;
pub mod fig20;
pub mod fig5;
pub mod fig6;
pub mod fig9;
pub mod format;
pub mod headline;
pub mod multi_region;
pub mod per_grid;
pub mod reliability;
pub mod repro;
pub mod runner;
pub mod steady_state;
pub mod streaming;
pub mod sweeps;
pub mod table1;

pub use format::TextTable;
pub use multi_region::{
    FederatedTrialOutput, FederationExperimentConfig, RouterSpec, multi_region_sweep,
    run_federated_trial,
};
pub use reliability::{
    ReliabilityStrategy, ReliabilityTrialOutput, reliability_sweep, run_reliability_trial,
};
pub use runner::{
    BaseScheduler, ExperimentConfig, SchedulerSpec, Setup, TrialOutput, run_trial, run_trials,
};
pub use steady_state::{
    AdmissionSpec, SteadyStateConfig, SteadyTrialOutput, run_steady_trial, steady_state_sweep,
};

/// Directory (relative to the workspace root) where CSV outputs are written.
pub const RESULTS_DIR: &str = "results";

/// The rows of a CSV without its header line: how a sweep appends a second
/// arm with the same schema under the first arm's header.
pub(crate) fn csv_rows(csv: &str) -> &str {
    csv.split_once('\n').map(|(_, rows)| rows).unwrap_or("")
}
