//! # pcaps-schedulers — carbon-agnostic baseline scheduling policies
//!
//! This crate implements every carbon-agnostic scheduler the paper compares
//! against, all as implementations of the simulator's
//! [`pcaps_cluster::Scheduler`] trait:
//!
//! * [`SparkStandaloneFifo`] — Spark standalone's default FIFO behaviour,
//!   which assigns up to one executor per task of a stage and therefore
//!   over-assigns executors to the job at the head of the queue (the `FIFO`
//!   baseline of Table 3 and Appendix A.1.2),
//! * [`KubeDefaultFifo`] — the Spark-on-Kubernetes default of the prototype:
//!   FIFO stage ordering with a 25-executor per-application cap (the
//!   `default` baseline of Table 2),
//! * [`WeightedFair`] — executors assigned proportionally to each job's
//!   remaining workload (the `Weighted Fair` baseline of Table 3),
//! * [`DecimaLike`] — a probabilistic scheduler with Decima-style features
//!   (remaining work, critical path, parallelism demand) that produces a
//!   probability distribution over runnable stages (Definition 4.1).  The
//!   paper uses the GNN+RL Decima; this deterministic-feature substitute
//!   preserves the interface and the qualitative behaviour PCAPS relies on
//!   (PCAPS reads only the distribution's shape, never how its scores were
//!   learned, and training a GNN is outside this reproduction's scope),
//! * [`GreenHadoop`] — the paper's adaptation of GreenHadoop (Appendix
//!   A.1.1): green/brown energy windows with a convex-combination horizon
//!   and FIFO dispatch under the derived executor limit.
//!
//! The [`probabilistic`] module defines the [`ProbabilisticScheduler`]
//! interface that `pcaps-core`'s PCAPS wraps (Definition 4.1/4.2).
//!
//! The [`routing`] module adds the layer above all of these for federated
//! (multi-region) simulations: [`pcaps_cluster::Router`] policies that place
//! each arriving job on one member cluster — round-robin,
//! least-outstanding-work, carbon-greedy and carbon+queue-aware.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decima;
pub mod fifo;
pub mod greenhadoop;
pub mod probabilistic;
pub mod routing;
pub mod weighted_fair;

pub use decima::{DecimaCacheStats, DecimaLike, DecimaWeights};
pub use fifo::{KubeDefaultFifo, SparkStandaloneFifo};
pub use greenhadoop::GreenHadoop;
pub use probabilistic::{ProbabilisticScheduler, SampledStage, StageProbability};
pub use routing::{
    CarbonDeltaMigrator, CarbonGreedyRouter, CarbonQueueAwareRouter, LeastOutstandingWorkRouter,
    RoundRobinRouter,
};
pub use weighted_fair::WeightedFair;
