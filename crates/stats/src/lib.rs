//! Statistics and reporting utilities for the `bosim` simulator.
//!
//! The paper reports geometric-mean speedups over per-configuration
//! baselines (Figures 3–12) and raw event rates (Figure 2: IPC, Figure 13:
//! DRAM accesses per kilo-instruction). This crate provides:
//!
//! * [`geometric_mean`] / [`speedup`] — the summary math,
//! * [`Histogram`] — bounded-bucket latency/value histograms,
//! * [`Table`] — plain-text/TSV/markdown table output used by every figure
//!   harness,
//! * [`RateStat`] — events per kilo-instruction helper.
//!
//! # Examples
//!
//! ```
//! use bosim_stats::{geometric_mean, speedup};
//! let speedups = [1.1, 0.95, 1.3];
//! let gm = geometric_mean(speedups.iter().copied()).unwrap();
//! assert!(gm > 1.0 && gm < 1.3);
//! assert_eq!(speedup(1.2, 1.0), 1.2);
//! ```

#![warn(missing_docs)]

mod histogram;
mod json;
mod parse;
mod summary;
mod table;

pub use histogram::Histogram;
pub use json::Json;
pub use parse::{DecodeError, JsonParseError};
pub use summary::{geometric_mean, harmonic_mean, mean, speedup, RateStat};
pub use table::{fmt3, Align, Table};
