//! # pcaps-core — Precedence- and Carbon-Aware Provisioning and Scheduling
//!
//! This crate implements the paper's two contributions:
//!
//! * **PCAPS** ([`Pcaps`]) — a carbon-aware scheduler that wraps any
//!   *probabilistic* scheduler (Definition 4.1, e.g. the Decima-like policy
//!   in `pcaps-schedulers`).  At every scheduling event it samples a stage
//!   from the underlying policy, computes the stage's *relative importance*
//!   (Definition 4.2), and schedules it only if the carbon-awareness
//!   threshold Ψγ admits the current carbon intensity (Algorithm 1) —
//!   otherwise the stage is deferred until a lower-carbon period.  Scheduled
//!   stages also get a carbon-scaled parallelism limit (§5.1).
//!
//! * **CAP** ([`Cap`]) — Carbon-Aware Provisioning: a wrapper around *any*
//!   scheduler that applies a time-varying resource quota derived from the
//!   k-search threshold set (§4.2).  High carbon ⇒ quota near the configured
//!   minimum `B`; low carbon ⇒ quota near the full cluster size `K`.  The
//!   quota is enforced without preemption.
//!
//! The [`analysis`] module contains the analytical results of §4: the carbon
//! stretch factor bounds (Theorems 4.3 and 4.5) and carbon savings
//! expressions (Theorems 4.4 and 4.6), plus helpers for estimating the
//! quantities they depend on (`D(γ, c)`, `M(B, c)`, excess work `W`, and the
//! weighted average intensities) from simulation results.
//!
//! ## Example
//!
//! ```
//! use pcaps_core::{Pcaps, PcapsConfig};
//! use pcaps_schedulers::DecimaLike;
//! use pcaps_cluster::{ClusterConfig, Simulator, SubmittedJob};
//! use pcaps_carbon::{GridRegion, synth::SyntheticTraceGenerator};
//! use pcaps_dag::{JobDagBuilder, Task};
//!
//! let job = JobDagBuilder::new("quick")
//!     .stage("a", vec![Task::new(5.0); 4])
//!     .stage("b", vec![Task::new(2.0)])
//!     .edge_by_name("a", "b").unwrap()
//!     .build().unwrap();
//! let trace = SyntheticTraceGenerator::new(GridRegion::Germany, 7).generate_days(14);
//! let sim = Simulator::new(ClusterConfig::new(4), vec![SubmittedJob::at(0.0, job)], trace);
//! let mut pcaps = Pcaps::new(DecimaLike::new(0), PcapsConfig::moderate());
//! let result = sim.run(&mut pcaps).unwrap();
//! assert!(result.all_jobs_complete());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cap;
pub mod importance;
pub mod ksearch;
pub mod pcaps;
pub mod threshold;

pub use cap::{Cap, CapConfig};
pub use importance::{importance_ratio, relative_importance};
pub use ksearch::KSearchThresholds;
pub use pcaps::{Pcaps, PcapsConfig};
pub use threshold::ThresholdFn;
