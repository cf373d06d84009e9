//! Statistics and reporting for the experiment harness.
//!
//! * [`Summary`] — streaming mean/variance/min/max (Welford), the unit of
//!   every aggregated measurement;
//! * [`Table`] — fixed-width text tables, the output format of the
//!   experiment reports (`exp <id>`, `run_all`);
//! * [`series`] — helpers for convergence-series post-processing
//!   (geometric means of contraction ratios, theoretical references).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod histogram;
pub mod series;
mod stats;
mod table;

pub use histogram::Histogram;
pub use stats::Summary;
pub use table::{fmt_num, Table};
