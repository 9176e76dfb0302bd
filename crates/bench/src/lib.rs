//! # pathways-bench
//!
//! The experiment harness that regenerates every table and figure of
//! the paper's evaluation (§5) in virtual time. [`figures::FIGURES`] is
//! the registry — one entry per artefact — and the `bench` binary is
//! its only front end (`bench list` prints the command table); the
//! other modules hold the measurement functions the entries share.
//! Host-time benchmarking lives in `benchmark/` (`pwbench`), not here.

#![warn(missing_docs)]

pub mod chain;
pub mod dispatch;
pub mod figures;
pub mod gate;
pub mod heal;
pub mod json;
pub mod micro;
pub mod perf;
pub mod pipeline;
pub mod scale;
pub mod stream;
pub mod table;
pub mod tenancy;
pub mod tier;
pub mod training;
