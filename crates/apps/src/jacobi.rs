//! Jacobi iterative smoother (the paper's first application).
//!
//! Two `rows x cols` grids; every sweep computes each interior cell of the
//! destination grid as the four-point average of the source grid and then
//! the roles swap. Columns are distributed over processors in contiguous
//! blocks (column-major layout makes a block one contiguous address range);
//! each sweep a processor reads its own block plus one boundary column from
//! each neighbour. Destination columns depend only on the source grid, so
//! they may be written in any order — the split-phase form exploits this to
//! sweep the interior columns while the boundary columns are in flight.

use ctrt::{
    validate, validate_w_sync_complete, validate_w_sync_issue, warm_sections, Access,
    RegularSection, SyncOp,
};
use rsdcomp::{ArrayDecl, ColSpan, Node, Phase, Program, SectionAccess};
use treadmarks::{Process, SharedMatrix};

use crate::sor::{exchange_boundaries, ColBufs};
use crate::{col_block, col_elems, seed, split_columns, GridConfig, Variant};

/// Sweeps the contiguous destination columns `cols`: each interior cell of
/// `dst` becomes the four-point average of `src`, boundary rows are copied.
/// Reads only `src`, so the column order is free — bit-identical however
/// the sweep is split.
fn sweep_cols(
    p: &mut Process,
    src: &SharedMatrix<f64>,
    dst: &SharedMatrix<f64>,
    cols: std::ops::Range<usize>,
    bufs: &mut ColBufs,
) {
    if cols.is_empty() {
        return;
    }
    let rows = src.rows();
    p.get_slice(src.array(), col_elems(src, cols.start - 1), &mut bufs.prev);
    p.get_slice(src.array(), col_elems(src, cols.start), &mut bufs.cur);
    for j in cols {
        p.get_slice(src.array(), col_elems(src, j + 1), &mut bufs.next);
        bufs.out[0] = bufs.cur[0];
        for i in 1..rows - 1 {
            bufs.out[i] = 0.25 * (bufs.cur[i - 1] + bufs.cur[i + 1] + bufs.prev[i] + bufs.next[i]);
        }
        bufs.out[rows - 1] = bufs.cur[rows - 1];
        p.set_slice(dst.array(), col_elems(dst, j), &bufs.out);
        std::mem::swap(&mut bufs.prev, &mut bufs.cur);
        std::mem::swap(&mut bufs.cur, &mut bufs.next);
    }
}

/// Runs the Jacobi kernel in the given variant and returns this
/// processor's checksum (the sum over its own column block of the final
/// grid). All variants perform identical floating-point operations, so
/// checksums are bit-for-bit equal across variants.
///
/// # Panics
///
/// Panics if the grid is too small for the decomposition (each processor
/// needs at least two columns and the grid at least two rows).
pub fn jacobi(p: &mut Process, cfg: &GridConfig, variant: Variant) -> f64 {
    let GridConfig { rows, cols, iters } = *cfg;
    let nprocs = p.nprocs();
    assert!(rows >= 2 && cols >= 2 * nprocs, "each processor needs at least two columns");
    let a = p.alloc_matrix::<f64>(rows, cols);
    let b = p.alloc_matrix::<f64>(rows, cols);
    if variant == Variant::Compiled {
        return jacobi_compiled(p, cfg, &a, &b);
    }
    let me = p.proc_id();
    let mine = col_block(cols, nprocs, me);
    let (lo, hi) = (mine.start, mine.end);
    // The columns this processor updates; global boundary columns are fixed.
    let update = lo.max(1)..hi.min(cols - 1);
    let (interior, left_edge, right_edge) = split_columns(&update, lo > 0, hi < cols);

    // Identical deterministic initial condition in both grids. The
    // baseline writes it per element through the checked path; the
    // optimized forms treat initialisation as what it is — a fully
    // analyzable WRITE_ALL phase — and run it on batch-enabled, warmed
    // mappings (for Push, the WRITE_ALL assertion also covers the sweeps:
    // the updated columns are fully overwritten every iteration and the
    // push form never releases, so no twin is ever kept).
    let mut colbuf = vec![0.0f64; rows];
    match variant {
        Variant::TreadMarks => {
            for j in mine.clone() {
                for i in 0..rows {
                    p.set(a.array(), a.index(i, j), seed(i, j));
                    p.set(b.array(), b.index(i, j), seed(i, j));
                }
            }
        }
        Variant::Validate | Variant::Push => {
            validate(
                p,
                &[
                    RegularSection::matrix_cols(&a, mine.clone(), Access::WriteAll),
                    RegularSection::matrix_cols(&b, mine.clone(), Access::WriteAll),
                ],
            );
            for j in mine.clone() {
                for (i, slot) in colbuf.iter_mut().enumerate() {
                    *slot = seed(i, j);
                }
                p.set_slice(a.array(), col_elems(&a, j), &colbuf);
                p.set_slice(b.array(), col_elems(&b, j), &colbuf);
            }
        }
        Variant::Compiled => unreachable!("the compiled form returned above"),
    }
    match variant {
        Variant::TreadMarks => p.barrier(),
        // The Validate form needs no separate barrier here: the first
        // sweep's `validate_w_sync_issue` *is* the phase boundary.
        Variant::Validate => {}
        // The first sweep reads grid `a`: seed the neighbours' boundary
        // columns point-to-point.
        Variant::Push => exchange_boundaries(p, &a, lo, hi),
        Variant::Compiled => unreachable!("the compiled form returned above"),
    }

    let mut bufs = ColBufs::new(rows);
    for t in 0..iters {
        let (src, dst) = if t % 2 == 0 { (&a, &b) } else { (&b, &a) };
        let read = lo.saturating_sub(1)..(hi + 1).min(cols);
        match variant {
            // The baseline: every element access is a checked access.
            Variant::TreadMarks => {
                p.barrier();
                for j in update.clone() {
                    for i in 1..rows - 1 {
                        let v = 0.25
                            * (p.get(src.array(), src.index(i - 1, j))
                                + p.get(src.array(), src.index(i + 1, j))
                                + p.get(src.array(), src.index(i, j - 1))
                                + p.get(src.array(), src.index(i, j + 1)));
                        p.set(dst.array(), dst.index(i, j), v);
                    }
                    let top = p.get(src.array(), src.index(0, j));
                    p.set(dst.array(), dst.index(0, j), top);
                    let bottom = p.get(src.array(), src.index(rows - 1, j));
                    p.set(dst.array(), dst.index(rows - 1, j), bottom);
                }
            }
            // Split-phase: issue the merged fetch at the phase boundary,
            // sweep the interior columns while the neighbours' boundary
            // columns are in flight, complete, then sweep the (at most two)
            // boundary-adjacent columns.
            Variant::Validate => {
                let mut sections =
                    vec![RegularSection::matrix_cols(src, read.clone(), Access::Read)];
                if !update.is_empty() {
                    sections.push(RegularSection::matrix_cols(
                        dst,
                        update.clone(),
                        Access::WriteAll,
                    ));
                }
                let pending = validate_w_sync_issue(p, SyncOp::Barrier, &sections);
                sweep_cols(p, src, dst, interior.clone(), &mut bufs);
                validate_w_sync_complete(p, pending);
                sweep_cols(p, src, dst, left_edge.clone(), &mut bufs);
                sweep_cols(p, src, dst, right_edge.clone(), &mut bufs);
            }
            Variant::Push => {
                // Data already moved point-to-point; just re-warm the
                // fast-path mappings the pushes staled out.
                let mut sections =
                    vec![RegularSection::matrix_cols(src, read.clone(), Access::Read)];
                if !update.is_empty() {
                    sections.push(RegularSection::matrix_cols(dst, update.clone(), Access::Write));
                }
                warm_sections(p, &sections);
                sweep_cols(p, src, dst, update.clone(), &mut bufs);
                exchange_boundaries(p, dst, lo, hi);
            }
            Variant::Compiled => unreachable!("the compiled form returned above"),
        }
    }

    let final_grid = if iters % 2 == 0 { &a } else { &b };
    // The push exchanges staled every mapping; re-warm the block once
    // instead of slow-filling per page.
    if variant == Variant::Push {
        warm_sections(p, &[RegularSection::matrix_cols(final_grid, mine.clone(), Access::Read)]);
    }
    let mut sum = 0.0;
    for j in mine {
        p.get_slice(final_grid.array(), col_elems(final_grid, j), &mut colbuf);
        sum += colbuf.iter().sum::<f64>();
    }
    sum
}

/// The Jacobi kernel as a loop-nest IR: an initialisation phase overwrites
/// both grids' own blocks, then sweeps alternate between the grids — each
/// sweep reads the source's halo-extended update block and fully
/// overwrites the destination's update block (`WRITE_ALL`). Odd iteration
/// counts append the unpaired trailing sweep after the loop.
///
/// Every boundary's dependences are nearest-neighbour flows out of pure
/// `WRITE_ALL` sections, so the analyzer classifies the whole kernel as
/// `Push`: the compiled form runs without barriers, twins, diffs or write
/// notices — the generated equivalent of the hand-written push variant.
pub fn jacobi_program(a: &SharedMatrix<f64>, b: &SharedMatrix<f64>, iters: usize) -> Program {
    let sweep = |name, src: usize, dst: usize| {
        Phase::new(
            name,
            vec![
                SectionAccess::new(src, ColSpan::UpdateHalo(1), Access::Read),
                SectionAccess::new(dst, ColSpan::UpdateBlock, Access::WriteAll),
            ],
        )
    };
    let mut nodes = vec![Node::Phase(Phase::new(
        "init",
        vec![
            SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll),
            SectionAccess::new(1, ColSpan::OwnBlock, Access::WriteAll),
        ],
    ))];
    if iters >= 2 {
        nodes.push(Node::Repeat {
            times: iters / 2,
            body: vec![sweep("sweep_ab", 0, 1), sweep("sweep_ba", 1, 0)],
        });
    }
    if iters % 2 == 1 {
        nodes.push(Node::Phase(sweep("sweep_ab", 0, 1)));
    }
    Program { arrays: vec![ArrayDecl::of_matrix("a", a), ArrayDecl::of_matrix("b", b)], nodes }
}

/// Runs Jacobi from the plan `rsdcomp::compile` generates for
/// [`jacobi_program`], compiled once per run and shared by every processor
/// (`rsdcomp::compile_shared`): the application supplies only the numeric
/// bodies (seeding and [`sweep_cols`]); every data-movement decision is the
/// compiler's.
fn jacobi_compiled(
    p: &mut Process,
    cfg: &GridConfig,
    a: &SharedMatrix<f64>,
    b: &SharedMatrix<f64>,
) -> f64 {
    let GridConfig { rows, cols, iters } = *cfg;
    let nprocs = p.nprocs();
    let me = p.proc_id();
    let program = jacobi_program(a, b, iters);
    let kernel = rsdcomp::compile_shared(&program, nprocs);
    let plan = kernel.plan_for(me);
    let phases = program.phases();

    let mine = col_block(cols, nprocs, me);
    let update = mine.start.max(1)..mine.end.min(cols - 1);
    let (interior, left_edge, right_edge) = split_columns(&update, mine.start > 0, mine.end < cols);
    let mut bufs = ColBufs::new(rows);
    let mut colbuf = vec![0.0f64; rows];

    for step in &plan.steps {
        let issued = rsdcomp::exec::issue(p, &step.entry);
        match phases[step.phase].name {
            "init" => {
                rsdcomp::exec::complete(p, issued);
                for j in mine.clone() {
                    for (i, slot) in colbuf.iter_mut().enumerate() {
                        *slot = seed(i, j);
                    }
                    p.set_slice(a.array(), col_elems(a, j), &colbuf);
                    p.set_slice(b.array(), col_elems(b, j), &colbuf);
                }
            }
            name @ ("sweep_ab" | "sweep_ba") => {
                let (src, dst) = if name == "sweep_ab" { (a, b) } else { (b, a) };
                sweep_cols(p, src, dst, interior.clone(), &mut bufs);
                rsdcomp::exec::complete(p, issued);
                sweep_cols(p, src, dst, left_edge.clone(), &mut bufs);
                sweep_cols(p, src, dst, right_edge.clone(), &mut bufs);
            }
            other => unreachable!("unknown phase {other:?}"),
        }
    }
    rsdcomp::exec::run_boundary(p, &plan.exit);
    let final_grid = if iters % 2 == 0 { a } else { b };
    let mut sum = 0.0;
    for j in mine {
        p.get_slice(final_grid.array(), col_elems(final_grid, j), &mut colbuf);
        sum += colbuf.iter().sum::<f64>();
    }
    sum
}
