//! # pcaps-workloads — data processing workload generators
//!
//! The paper's evaluation uses two workload sources:
//!
//! * **TPC-H** queries over synthetic data at 2 GB, 10 GB and 50 GB scales,
//!   whose average single-executor durations are 180 s, 386 s and 1 261 s
//!   respectively (§6.1),
//! * **Alibaba production DAG traces** (cluster-trace-v2018), which exhibit a
//!   power-law duration distribution, average 66 nodes per DAG, and an
//!   average one-executor duration of 7 989 s (§6.1).
//!
//! Neither raw artifact ships with this repository (TPC-H requires running
//! the dbgen tool + Spark to obtain physical plans; the Alibaba trace is a
//! multi-gigabyte download), so this crate generates *faithful synthetic
//! equivalents*: per-query DAG templates whose shapes follow Spark's
//! physical plans for TPC-H, and a calibrated power-law DAG generator for
//! the Alibaba-style jobs.  Substituting generators for the raw artifacts is
//! deliberate, not a shortcut: the paper's scheduling results depend on the
//! workloads' *summary statistics* (DAG shape motifs, duration distribution,
//! node counts — which the generators are calibrated to and the unit tests
//! pin), not on any individual trace entry, and generators are deterministic
//! given a seed where a sampled trace subset would not be reproducible
//! without shipping it.
//!
//! The [`batch`] module assembles experiment workloads: `n` jobs sampled from
//! a trace with Poisson inter-arrival times, optionally time-scaled so that
//! one hour of carbon time corresponds to one minute of schedule time.  A
//! built workload is a single arrival stream of [`pcaps_dag::SubmittedJob`]s
//! — the job type the simulator consumes — and can feed one cluster or a
//! whole federation (placement is the routing layer's job).
//!
//! Workloads come in two forms: **materialized**
//! ([`WorkloadBuilder::build`], a `Vec<SubmittedJob>`, fine for paper-sized
//! batches) and **streaming** ([`WorkloadBuilder::stream`] and its
//! open-arrival form [`WorkloadBuilder::stream_unbounded`], both a
//! [`WorkloadStream`]), iterators that build each job's DAG only when it
//! is pulled.  Streaming intake is what makes
//! Alibaba-trace-sized runs (50k–100k jobs) possible without up-front
//! memory proportional to the whole trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alibaba;
pub mod arrivals;
pub mod batch;
pub mod tpch;

pub use alibaba::AlibabaGenerator;
pub use arrivals::{ArrivalProcess, DiurnalArrivals, PoissonArrivals};
pub use batch::{GeneratedStream, WorkloadBuilder, WorkloadKind, WorkloadStream};
pub use tpch::{TpchQuery, TpchScale};

/// The paper's experiment time scaling: job durations are divided by 60 so
/// that one hour of carbon-trace time corresponds to one minute of schedule
/// time (§6.1).
pub const PAPER_DURATION_SCALE: f64 = 1.0 / 60.0;

/// Appends the decimal digits of `n` to `out`: the bytes `write!(out,
/// "{n}")` would append, without the formatting machinery, which the
/// generators pay for on the streaming hot path (once per stage name and
/// once per job name).
pub(crate) fn push_decimal(out: &mut String, n: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 decimal digits
    let mut start = digits.len();
    let mut n = n;
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}
