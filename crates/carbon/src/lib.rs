//! # pcaps-carbon — carbon intensity signals for carbon-aware scheduling
//!
//! Carbon-aware schedulers react to a *time-varying carbon intensity signal*
//! `c(t)` reported by the electric grid (grams of CO₂-equivalent per
//! kilowatt-hour).  This crate provides everything the schedulers and the
//! experiment harness need:
//!
//! * [`CarbonTrace`] — an hourly (or arbitrary-step) piecewise-constant
//!   signal with deterministic indexing, answering the lookahead bounds
//!   `L` and `U` that threshold-based algorithms rely on in O(1)
//!   ([`CarbonTrace::bounds`], over the fixed 48-hour
//!   [`FORECAST_HORIZON`]),
//! * [`GridRegion`] — the six power grids evaluated in the paper (PJM,
//!   CAISO, Ontario, Germany, New South Wales, South Africa) together with
//!   their published summary statistics (Table 1),
//! * [`synth`] — a calibrated synthetic trace generator that reproduces each
//!   grid's min/max/mean/coefficient-of-variation and qualitative diurnal
//!   shape (this substitutes for the proprietary Electricity Maps history:
//!   the schedulers react only to those statistics and to the diurnal
//!   shape, never to calendar dates),
//! * [`multi`] — aligned multi-region trace sets for federated (multi-grid)
//!   simulations,
//! * [`accounting`] — ex-post carbon footprint accounting over executor
//!   usage profiles, exactly as the paper's simulator does (§5.2).
//!
//! ## Example
//!
//! ```
//! use pcaps_carbon::{GridRegion, synth::SyntheticTraceGenerator};
//!
//! let trace = SyntheticTraceGenerator::new(GridRegion::Caiso, 42).generate_days(30);
//! let c_now = trace.intensity(3600.0 * 12.0);
//! assert!(c_now > 0.0);
//! let (l, u) = trace.bounds(0.0);
//! assert!(l <= u);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod io;
pub mod multi;
pub mod regions;
pub mod stats;
pub mod synth;
pub mod trace;

pub use accounting::{CarbonAccountant, UsageSample};
pub use io::{load_csv, parse_csv, CsvOptions, TraceIoError};
pub use multi::TraceSet;
pub use regions::{GridRegion, GridStats};
pub use stats::TraceStats;
pub use trace::{CarbonTrace, FORECAST_HORIZON};
