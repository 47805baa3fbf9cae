//! Executing a compiled plan over the `ctrt` interface.
//!
//! The application iterates its [`ProcPlan`]'s steps,
//! issues each entry op, runs the phase's numeric body and completes the
//! entry — the split-phase shape of the paper's `Validate_w_sync`, so
//! computation on already-local data overlaps the exchange. The
//! executor is the *only* place compiled kernels touch the runtime: the
//! application contributes arithmetic, the plan contributes protocol.

use ctrt::PendingValidate;
use treadmarks::Process;

use crate::plan::{BoundaryOp, PlanStep, ProcPlan};

/// An entry op in flight: either already finished (local prep, pushes) or
/// a pending split-phase synchronization to be completed where the fetched
/// data is first needed.
#[must_use = "a pending entry op completes only when passed to exec::complete"]
#[derive(Debug)]
pub enum Issued {
    /// The op finished at issue.
    Done,
    /// A split-phase synchronization is in flight (boxed: the pending
    /// state is much larger than the empty variant).
    Pending(Box<PendingValidate>),
}

/// Issues the entry op of a plan step. For [`BoundaryOp::Barrier`] and
/// [`BoundaryOp::NeighborSync`] the returned handle is pending: compute on
/// sections that were already local, then [`complete`] before touching the
/// fetched data (a compiled plan's interior/edge split). Everything else
/// finishes immediately; a [`BoundaryOp::Local`] with no sections runs
/// nothing.
pub fn issue(p: &mut Process, op: &BoundaryOp) -> Issued {
    match op {
        BoundaryOp::Local { prepare: false, sections } if sections.is_empty() => Issued::Done,
        BoundaryOp::Local { prepare, sections } => {
            if *prepare {
                ctrt::validate(p, sections);
            } else {
                ctrt::warm_sections(p, sections);
            }
            Issued::Done
        }
        BoundaryOp::Barrier { sections } => Issued::Pending(Box::new(ctrt::validate_w_sync_issue(
            p,
            treadmarks::SyncOp::Barrier,
            sections,
        ))),
        BoundaryOp::Lock { lock, sections } => Issued::Pending(Box::new(
            // The acquire request carries the sections' page list, so the
            // grant arrives with the releaser's diffs piggybacked — the
            // merged lock-grant+data message.
            ctrt::validate_w_sync_issue(p, treadmarks::SyncOp::Lock(*lock), sections),
        )),
        BoundaryOp::NeighborSync { producers, consumers, sections } => {
            Issued::Pending(Box::new(ctrt::neighbor_sync_issue(p, producers, consumers, sections)))
        }
        BoundaryOp::Push { sends, recv_from, prepare, sections } => {
            ctrt::push_phase(p, sends, recv_from);
            if *prepare {
                ctrt::validate(p, sections);
            } else {
                ctrt::warm_sections(p, sections);
            }
            Issued::Done
        }
    }
}

/// Completes a pending entry op (no-op for ops that finished at issue).
pub fn complete(p: &mut Process, issued: Issued) {
    if let Issued::Pending(pending) = issued {
        ctrt::validate_w_sync_complete(p, *pending);
    }
}

/// Executes a step's phase exit: releases the guarding lock if the step's
/// entry acquired one (flushing the guarded writes and granting queued
/// requesters), else does nothing. Call after the phase's numeric body.
pub fn release(p: &mut Process, step: &PlanStep) {
    if let Some(lock) = step.release {
        ctrt::release(p, lock);
    }
}

/// Executes a plan's exit op after its last phase, re-warming the
/// read-back's mappings.
pub fn exit(p: &mut Process, plan: &ProcPlan) {
    let issued = issue(p, &plan.exit);
    complete(p, issued);
}
