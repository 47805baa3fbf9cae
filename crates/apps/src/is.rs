//! Integer sort (IS): a lock-merged shared histogram with a
//! barrier-separated ranking phase — the paper's lock+barrier idiom.
//!
//! Each processor owns a block of keys in `0..B` (`B = rows * cols`
//! buckets). Every iteration it acquires the merge lock, folds its keys
//! into the shared histogram and deterministically evolves them, then all
//! processors barrier and rank: each reads its own block of buckets and
//! folds the counts into its checksum. Histogram increments commute and
//! key evolution depends only on the global element index, so the result
//! is independent of the runtime-determined lock-holder order — which is
//! exactly why the merge needs a *lock* (any order is fine, some order is
//! required) and the rank needs a *barrier* (every merge must be visible).
//!
//! The analyzable forms declare the critical section's accesses on the
//! acquire, so the grant comes back with the previous holders' diffs
//! piggybacked — the merged lock-grant+data message. They also drop the
//! baseline's second barrier per iteration: under lazy release consistency
//! a page validated at the rank barrier cannot change under its reader
//! until the reader's own next acquire, so the ranking reads are
//! deterministic without fencing off the next iteration's merges — the
//! baseline, whose per-element ranking reads demand-fetch against a moving
//! diff horizon, has no such guarantee and pays the extra barrier.

use ctrt::{validate, validate_w_sync, Access, RegularSection, SyncOp};
use rsdcomp::{ArrayDecl, ColSpan, Node, Phase, Program, SectionAccess};
use treadmarks::{LockId, Process, SharedMatrix};

use crate::{col_block, col_elems, mix64, GridConfig, Variant};

/// The lock guarding the histogram merge phase. Exposed so tests and the
/// benchmark driver can reference the same id the IR carries.
pub const MERGE_LOCK: LockId = 7;

/// The deterministic initial key of global element `idx` (column-major).
fn key_seed(i: usize, j: usize, bins: usize) -> u64 {
    ((i * 31 + j * 17) % bins) as u64
}

/// The next-iteration key: a function of the old key, the iteration and
/// the *global* element index only, so the key stream is independent of
/// the processor count and the lock-holder order.
fn next_key(k: u64, t: usize, idx: usize, bins: usize) -> u64 {
    (k * 5 + (t as u64) * 7 + idx as u64) % bins as u64
}

/// The per-bucket checksum contribution at iteration `t`.
fn bin_mix(b: usize, h: u64, t: usize) -> u64 {
    mix64(h ^ mix64((b as u64) ^ ((t as u64) << 32)))
}

/// Folds this processor's block of keys into the histogram and evolves the
/// keys — the body of the lock-guarded merge phase. Bulk accessors; the
/// per-element baseline performs the identical integer operations.
fn merge_bulk(
    p: &mut Process,
    keys: &SharedMatrix<u64>,
    hist: &SharedMatrix<u64>,
    mine: &std::ops::Range<usize>,
    t: usize,
    kbuf: &mut [u64],
    hbuf: &mut [u64],
) {
    let rows = keys.rows();
    let bins = hbuf.len();
    p.get_slice(hist.array(), 0..bins, hbuf);
    for j in mine.clone() {
        p.get_slice(keys.array(), col_elems(keys, j), kbuf);
        for (i, slot) in kbuf.iter_mut().enumerate() {
            let idx = j * rows + i;
            let k = *slot;
            hbuf[k as usize] += 1;
            *slot = next_key(k, t, idx, bins);
        }
        p.set_slice(keys.array(), col_elems(keys, j), kbuf);
    }
    p.set_slice(hist.array(), 0..bins, hbuf);
}

/// Ranks this processor's own block of buckets: folds each final count of
/// iteration `t` into the checksum.
fn rank_bulk(
    p: &mut Process,
    hist: &SharedMatrix<u64>,
    own_bins: std::ops::Range<usize>,
    t: usize,
    hbuf: &mut [u64],
) -> u64 {
    let n = own_bins.len();
    p.get_slice(hist.array(), own_bins.clone(), &mut hbuf[..n]);
    let mut chk = 0u64;
    for (off, &h) in hbuf[..n].iter().enumerate() {
        chk ^= bin_mix(own_bins.start + off, h, t);
    }
    chk
}

/// Folds this processor's final keys into the checksum (covers the key
/// evolution the histogram only witnesses indirectly).
fn keys_checksum(
    p: &mut Process,
    keys: &SharedMatrix<u64>,
    mine: &std::ops::Range<usize>,
    kbuf: &mut [u64],
) -> u64 {
    let rows = keys.rows();
    let mut chk = 0u64;
    for j in mine.clone() {
        p.get_slice(keys.array(), col_elems(keys, j), kbuf);
        for (i, &k) in kbuf.iter().enumerate() {
            let idx = (j * rows + i) as u64;
            chk ^= mix64(k ^ mix64(idx ^ 0x517c_c1b7_2722_0a95));
        }
    }
    chk
}

/// The merge phase's regular sections: the own key block is read and fully
/// rewritten, the whole histogram is read-modify-written under the lock.
fn merge_sections(
    keys: &SharedMatrix<u64>,
    hist: &SharedMatrix<u64>,
    mine: &std::ops::Range<usize>,
    cols: usize,
) -> [RegularSection; 2] {
    [
        RegularSection::matrix_cols(keys, mine.clone(), Access::ReadWriteAll),
        RegularSection::matrix_cols(hist, 0..cols, Access::ReadWrite),
    ]
}

/// Runs integer sort in the given variant and returns this processor's
/// checksum (XOR-combine across processors for the partition-independent
/// app checksum). All variants perform identical integer operations, so
/// checksums are equal across variants *and* cluster sizes.
///
/// # Panics
///
/// Panics if the decomposition is too small (each processor needs at least
/// two columns).
pub fn is(p: &mut Process, cfg: &GridConfig, variant: Variant) -> u64 {
    let GridConfig { rows, cols, iters } = *cfg;
    let nprocs = p.nprocs();
    assert!(rows >= 1 && cols >= 2 * nprocs, "each processor needs at least two columns");
    let bins = rows * cols;
    let keys = p.alloc_matrix::<u64>(rows, cols);
    let hist = p.alloc_matrix::<u64>(rows, cols);
    if variant == Variant::Compiled {
        return is_compiled(p, cfg, &keys, &hist);
    }
    let me = p.proc_id();
    let mine = col_block(cols, nprocs, me);
    let own_bins = mine.start * rows..mine.end * rows;
    let mut kbuf = vec![0u64; rows];
    let mut hbuf = vec![0u64; bins];
    let mut chk = 0u64;

    // Initialise only the own key block; the histogram starts from the
    // allocator's zeroed pages. No boundary follows in any variant: the
    // first merge's acquire chain orders the init writes (each release
    // flushes them, each grant carries the notices).
    match variant {
        Variant::TreadMarks => {
            for j in mine.clone() {
                for i in 0..rows {
                    p.set(keys.array(), keys.index(i, j), key_seed(i, j, bins));
                }
            }
        }
        Variant::Validate | Variant::Push => {
            validate(p, &[RegularSection::matrix_cols(&keys, mine.clone(), Access::WriteAll)]);
            for j in mine.clone() {
                for (i, slot) in kbuf.iter_mut().enumerate() {
                    *slot = key_seed(i, j, bins);
                }
                p.set_slice(keys.array(), col_elems(&keys, j), &kbuf);
            }
        }
        Variant::Compiled => unreachable!("the compiled form returned above"),
    }

    for t in 0..iters {
        match variant {
            // The baseline: per-element checked accesses, and a second
            // barrier per iteration because the ranking reads demand-fetch
            // against whatever diffs later merges have already flushed.
            Variant::TreadMarks => {
                p.lock_acquire(MERGE_LOCK);
                for j in mine.clone() {
                    for i in 0..rows {
                        let idx = keys.index(i, j);
                        let k = p.get(keys.array(), idx);
                        let c = p.get(hist.array(), k as usize);
                        p.set(hist.array(), k as usize, c + 1);
                        p.set(keys.array(), idx, next_key(k, t, idx, bins));
                    }
                }
                p.lock_release(MERGE_LOCK);
                p.barrier();
                for b in own_bins.clone() {
                    let h = p.get(hist.array(), b);
                    chk ^= bin_mix(b, h, t);
                }
                p.barrier();
            }
            // Sections declared on the sync ops (merged lock-grant+data on
            // the acquire), bulk accessors, but the baseline's sync
            // structure kept as-is — including the anti-dependence barrier.
            Variant::Validate => {
                validate_w_sync(
                    p,
                    SyncOp::Lock(MERGE_LOCK),
                    &merge_sections(&keys, &hist, &mine, cols),
                );
                merge_bulk(p, &keys, &hist, &mine, t, &mut kbuf, &mut hbuf);
                ctrt::release(p, MERGE_LOCK);
                validate_w_sync(
                    p,
                    SyncOp::Barrier,
                    &[RegularSection::matrix_cols(&hist, mine.clone(), Access::Read)],
                );
                chk ^= rank_bulk(p, &hist, own_bins.clone(), t, &mut hbuf);
                p.barrier();
            }
            // The hand-analyzed form the compiler must match: the ranking
            // reads run on pages validated at the barrier, which lazy
            // release consistency keeps at that version until this
            // processor's own next acquire — so the second barrier is
            // dropped. One acquire and one barrier per iteration, nothing
            // else.
            Variant::Push => {
                validate_w_sync(
                    p,
                    SyncOp::Lock(MERGE_LOCK),
                    &merge_sections(&keys, &hist, &mine, cols),
                );
                merge_bulk(p, &keys, &hist, &mine, t, &mut kbuf, &mut hbuf);
                ctrt::release(p, MERGE_LOCK);
                validate_w_sync(
                    p,
                    SyncOp::Barrier,
                    &[RegularSection::matrix_cols(&hist, mine.clone(), Access::Read)],
                );
                chk ^= rank_bulk(p, &hist, own_bins.clone(), t, &mut hbuf);
            }
            Variant::Compiled => unreachable!("the compiled form returned above"),
        }
    }
    chk ^ keys_checksum(p, &keys, &mine, &mut kbuf)
}

/// The integer-sort kernel as a loop-nest IR: an init phase overwrites the
/// own key block, then each iteration a *lock-guarded* merge phase
/// (declared via [`Phase::guarded`]) read-rewrites the own keys and
/// read-modify-writes the whole histogram, and an unguarded rank phase
/// reads the own block of buckets.
///
/// The analyzer classifies init→merge and rank→merge as
/// [`rsdcomp::BoundaryClass::Lock`] — every dependence crossing them is
/// ordered by the merge lock's acquire chain, so the entry is an acquire
/// whose grant validates the sections and the exit is a release. The
/// merge→rank boundary stays a real barrier *without* being a refusal:
/// the histogram writes are lock-ordered but the holder order is
/// runtime-determined, so the barrier is the intended synchronization
/// (the lock+barrier idiom).
pub fn is_program(keys: &SharedMatrix<u64>, hist: &SharedMatrix<u64>, iters: usize) -> Program {
    Program {
        arrays: vec![ArrayDecl::of_matrix("keys", keys), ArrayDecl::of_matrix("hist", hist)],
        nodes: vec![
            Node::Phase(Phase::new(
                "init",
                vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)],
            )),
            Node::Repeat {
                times: iters,
                body: vec![
                    Phase::guarded(
                        "merge",
                        vec![
                            SectionAccess::new(0, ColSpan::OwnBlock, Access::ReadWriteAll),
                            SectionAccess::new(1, ColSpan::All, Access::ReadWrite),
                        ],
                        MERGE_LOCK,
                    ),
                    Phase::new(
                        "rank",
                        vec![SectionAccess::new(1, ColSpan::OwnBlock, Access::Read)],
                    ),
                ],
            },
        ],
    }
}

/// Runs integer sort from the plan `rsdcomp::compile` generates for
/// [`is_program`], compiled once per run and shared by every processor
/// (`rsdcomp::compile_shared`): the application supplies only the numeric
/// bodies; the acquire (with its piggybacked section validation), the
/// release and the single rank barrier all come from the plan.
/// Message-for-message identical to the hand-written `Push` variant — the
/// test suite pins the equality.
fn is_compiled(
    p: &mut Process,
    cfg: &GridConfig,
    keys: &SharedMatrix<u64>,
    hist: &SharedMatrix<u64>,
) -> u64 {
    let GridConfig { rows, cols, iters } = *cfg;
    let nprocs = p.nprocs();
    let me = p.proc_id();
    let program = is_program(keys, hist, iters);
    let kernel = rsdcomp::compile_shared(&program, nprocs);
    let plan = kernel.plan_for(me);
    let phases = program.phases();

    let bins = rows * cols;
    let mine = col_block(cols, nprocs, me);
    let own_bins = mine.start * rows..mine.end * rows;
    let mut kbuf = vec![0u64; rows];
    let mut hbuf = vec![0u64; bins];
    let mut chk = 0u64;

    for step in &plan.steps {
        let issued = rsdcomp::exec::issue(p, &step.entry);
        rsdcomp::exec::complete(p, issued);
        match phases[step.phase].name {
            "init" => {
                for j in mine.clone() {
                    for (i, slot) in kbuf.iter_mut().enumerate() {
                        *slot = key_seed(i, j, bins);
                    }
                    p.set_slice(keys.array(), col_elems(keys, j), &kbuf);
                }
            }
            "merge" => merge_bulk(p, keys, hist, &mine, step.iter, &mut kbuf, &mut hbuf),
            "rank" => chk ^= rank_bulk(p, hist, own_bins.clone(), step.iter, &mut hbuf),
            other => unreachable!("unknown phase {other:?}"),
        }
        rsdcomp::exec::release(p, step);
    }
    rsdcomp::exec::run_boundary(p, &plan.exit);
    chk ^ keys_checksum(p, keys, &mine, &mut kbuf)
}
