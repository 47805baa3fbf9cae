//! # ctrt-dsm — An Integrated Compile-Time/Run-Time Software DSM System
//!
//! Facade crate for the workspace reproducing Dwarkadas, Cox and Zwaenepoel,
//! *An Integrated Compile-Time/Run-Time Software Distributed Shared Memory
//! System* (ASPLOS '96).
//!
//! The pieces, bottom-up:
//!
//! * [`sp2model`] — IBM SP/2 cost model, virtual clocks, protocol statistics,
//! * [`pagedmem`] — pages, protection state, twins and diffs,
//! * [`msgnet`] — the simulated cluster interconnect,
//! * [`racecheck`] — the data-race detector's data model and report log,
//! * [`treadmarks`] — the base lazy-release-consistency DSM runtime,
//! * [`ctrt`] — the augmented compile-time/run-time interface
//!   (`Validate`, `Validate_w_sync`, `Push`),
//! * [`rsdcomp`] — the regular-section compiler and IR executor,
//! * [`dsm_apps`] — the six applications of the paper's evaluation.
//!
//! See `examples/` for runnable entry points and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

pub use ctrt;
pub use dsm_apps;
pub use msgnet;
pub use pagedmem;
pub use racecheck;
pub use rsdcomp;
pub use sp2model;
pub use treadmarks;
