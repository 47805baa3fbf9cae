//! # rsdcomp — the regular-section compiler
//!
//! The compile-time half of the paper: a loop-nest/phase-graph IR whose
//! phases summarise their shared accesses as regular sections over declared
//! arrays ([`Program`], [`Phase`], [`SectionAccess`]), a dependence
//! analyzer that classifies every phase boundary
//! ([`analyze_boundary`] → [`BoundaryClass`]), and a plan generator
//! ([`compile`]) that lowers the classified program to the exact sequence
//! of `ctrt` calls each processor executes ([`ProcPlan`], run through
//! [`exec`]). [`compile_shared`] puts a process-wide memo in front of
//! `compile`, so the processors of one SPMD run share a single compile.
//!
//! The classification ladder, most to least optimized:
//!
//! 1. **`NoComm`** — no inter-processor dependence: the boundary vanishes.
//! 2. **[`BoundaryClass::Push`]** — every dependence's producer section
//!    carries the pure `WRITE_ALL` assertion and the consumer sets are
//!    statically known: data moves point-to-point, no barrier, no twins,
//!    no diffs, no notices.
//! 3. **[`BoundaryClass::EliminatedBarrier`]** — only nearest-neighbour
//!    flow dependences (red-black SOR's half-sweeps): the barrier is
//!    replaced by a ready/ack handshake whose acks are the paper's *merged
//!    data+sync messages* (notices, timestamps and diffs on one polled
//!    message), while the pages stay DSM-managed.
//! 4. **[`BoundaryClass::Lock`]** — the boundary enters a lock-guarded
//!    phase and every remaining dependence is ordered by that lock's
//!    acquire chain: the entry is an acquire whose grant validates the
//!    phase's sections (the merged lock-grant+data message), the exit a
//!    release — no barrier. Writes the chain cannot order refuse with
//!    [`Refusal::OutsideAcquireChain`].
//! 5. **`FullBarrier`** — everything else, including the analyzer's
//!    refusals ([`Refusal`]): overlapping write sections, non-affine
//!    subscripts, cross-block (e.g. reduction) dependences. Refusal is
//!    always sound — the real barrier preserves every happens-before edge.
//!    A barrier fed purely by lock-ordered writes (the lock+barrier idiom,
//!    e.g. integer sort's histogram merge) is *not* a refusal: the holder
//!    order is runtime-determined, so the barrier is the intended sync.
//!
//! Spans may reference the enclosing loop's iteration symbol
//! ([`ColSpan::Pivot`], [`ColSpan::PivotReaders`], [`ColSpan::OwnTail`]):
//! the analyzer and plan generator lower them per occurrence, so a
//! per-iteration pivot broadcast classifies as `Push` with an
//! iteration-dependent consumer set (Gaussian elimination's per-step
//! barrier vanishes).
//!
//! A garbage-collection policy additionally retains one real barrier per
//! loop iteration whenever the body flushes intervals at eliminated
//! boundaries, so the horizon keeps advancing and diff caches stay bounded
//! (`DESIGN.md` §6 has the soundness argument for both the elimination and
//! the policy).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
pub mod differential;
pub mod exec;
mod explain;
mod ir;
mod plan;
mod shared;

pub use analysis::{
    analyze_boundary, classify_against_pending, BoundaryAnalysis, BoundaryClass, DepPair,
    PendingWrites, Refusal,
};
pub use ctrt::{Access, RegularSection, SyncOp};
pub use differential::{RacyOutcome, RefusalClass};
pub use explain::explain;
pub use ir::{
    col_block, ArrayDecl, ArrayId, ColSpan, Node, Phase, PhaseId, Program, SectionAccess,
};
pub use pagedmem::AddrRange;
pub use plan::{compile, BoundaryOp, BoundarySummary, CompiledKernel, PlanStep, ProcPlan};
pub use shared::compile_shared;
pub use treadmarks::LockId;
