//! Regular-section dependence analysis over phase boundaries.
//!
//! For the boundary between a producer phase and a consumer phase the
//! analyzer enumerates, per processor pair, the *flow dependences* — bytes
//! the producer writes that the consumer reads — by intersecting the two
//! phases' lowered sections under the block distribution, and classifies
//! the boundary:
//!
//! * [`BoundaryClass::NoComm`] — no inter-processor dependence: the barrier
//!   is dropped entirely.
//! * [`BoundaryClass::Push`] — every dependence's producing section carries
//!   the pure `WRITE_ALL` assertion: the producer knows both the consumer
//!   set and the final bytes, so the data moves point-to-point and the DSM
//!   protocol (twins, diffs, notices) is bypassed wholesale.
//! * [`BoundaryClass::EliminatedBarrier`] — only nearest-neighbour flow
//!   dependences (as in red-black SOR's half-sweeps): the barrier is
//!   replaced by the point-to-point ready/ack sync whose acks merge data
//!   and consistency information, but the pages stay DSM-managed because
//!   the producing sections read before overwriting.
//! * [`BoundaryClass::FullBarrier`] — everything else, with the
//!   [`Refusal`] recording why the analyzer declined to optimize. Refusal
//!   is always sound: the full barrier preserves every happens-before edge.

use pagedmem::{Addr, AddrRange};
use treadmarks::{LockId, ProcId};

use crate::ir::{Access, ColSpan, Phase, Program};

/// Why the analyzer refused to eliminate a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Two processors' write sections of the producer phase overlap: the
    /// phase's output is order-dependent at section granularity, and only
    /// the barrier's global ordering (plus the multiple-writer protocol
    /// underneath) is known to preserve it. Overlapping writes inside
    /// phases guarded by the *same* lock are exempt: the lock's acquire
    /// chain orders them.
    OverlappingWrites,
    /// A section of either phase is non-affine ([`ColSpan::Unknown`]): the
    /// consumer set cannot be computed, so no named-producer sync can be
    /// proven to cover every dependence.
    NonAffine,
    /// A dependence is not a nearest-neighbour exchange — a cross-block
    /// access (e.g. the `All`-span read of a reduction) makes every
    /// processor depend on every other, and replacing the barrier with a
    /// dense point-to-point exchange would re-create it, worse.
    NonNeighbourDependence,
    /// The boundary is pushable in isolation, but the program flushes
    /// intervals elsewhere (an eliminated or full barrier exists): raw
    /// pushed bytes landing in a page that is later twinned and diffed
    /// would be re-shipped as the receiver's own modifications — under
    /// false sharing that overwrites a concurrent writer's fresh values
    /// with the pushed snapshot. `Push` is therefore only legal when the
    /// *whole* kernel bypasses the protocol; here the dependence data must
    /// travel as (delta-exact) diffs instead.
    MixedWithManagedPhases,
    /// A dependence flows into a lock-guarded phase from writes the lock's
    /// acquire chain does not order — made unguarded, or under a
    /// *different* lock. The grant merges only the chain's knowledge, so
    /// the acquire alone cannot deliver those notices: the claimed lock
    /// synchronization is insufficient and the full barrier survives.
    OutsideAcquireChain,
}

impl Refusal {
    /// Stable lowercase name for diagnostics and the `--explain` dump.
    pub fn name(self) -> &'static str {
        match self {
            Refusal::OverlappingWrites => "overlapping-writes",
            Refusal::NonAffine => "non-affine",
            Refusal::NonNeighbourDependence => "non-neighbour-dependence",
            Refusal::MixedWithManagedPhases => "mixed-with-managed-phases",
            Refusal::OutsideAcquireChain => "outside-acquire-chain",
        }
    }
}

/// The classification of one phase boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryClass {
    /// No inter-processor dependence crosses the boundary: no
    /// synchronization is emitted at all.
    NoComm,
    /// A real (tree) barrier survives.
    FullBarrier {
        /// Why elimination was refused; `None` when the barrier was kept by
        /// the garbage-collection policy rather than a soundness refusal.
        refusal: Option<Refusal>,
        /// The boundary was eliminable but retained so the GC horizon keeps
        /// advancing (one real barrier per loop iteration whenever the body
        /// flushes intervals at eliminated boundaries).
        gc_forced: bool,
    },
    /// The barrier is replaced by the point-to-point ready/ack sync with
    /// named producers (merged data+sync acks).
    EliminatedBarrier,
    /// The barrier and the DSM protocol are both replaced by direct pushes.
    Push,
    /// The boundary enters a lock-guarded phase and every remaining
    /// dependence is ordered by that lock's acquire chain: the entry is a
    /// lock acquire with the phase's sections validated on the grant (the
    /// paper's merged lock-grant+data message) and the phase exit a
    /// release — no barrier at all.
    Lock(LockId),
}

impl BoundaryClass {
    /// Stable lowercase name for diagnostics and the `--explain` dump.
    pub fn name(self) -> &'static str {
        match self {
            BoundaryClass::NoComm => "no-comm",
            BoundaryClass::FullBarrier { .. } => "barrier",
            BoundaryClass::EliminatedBarrier => "eliminated-barrier",
            BoundaryClass::Push => "push",
            BoundaryClass::Lock(_) => "lock",
        }
    }
}

/// One inter-processor flow dependence across a boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepPair {
    /// The processor whose producer-phase writes are read.
    pub producer: ProcId,
    /// The processor whose consumer-phase reads depend on them.
    pub consumer: ProcId,
    /// The dependent bytes (intersection of the producer's written and the
    /// consumer's read sections), coalesced.
    pub regions: Vec<AddrRange>,
}

/// The analyzer's full result for one boundary: the classification plus the
/// dependence pairs the plan generator turns into neighbour sets or pushes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryAnalysis {
    /// The classification.
    pub class: BoundaryClass,
    /// Every inter-processor flow dependence (empty for `NoComm`).
    pub pairs: Vec<DepPair>,
}

/// One pending (or lowered) write: its extent, whether it carries the pure
/// `WRITE_ALL` assertion, and the lock guarding the phase that made it.
#[derive(Debug, Clone, Copy)]
struct WriteEntry {
    range: AddrRange,
    pure_write_all: bool,
    lock: Option<LockId>,
}

/// A phase's sections lowered for one processor.
struct Lowered {
    /// Every written section.
    writes: Vec<WriteEntry>,
    /// `(range, via All span)` for every read section.
    reads: Vec<(AddrRange, bool)>,
    /// The phase names a non-affine section.
    unknown: bool,
}

fn lower(program: &Program, nprocs: usize, me: ProcId, phase: &Phase, iter: usize) -> Lowered {
    let mut out = Lowered { writes: Vec::new(), reads: Vec::new(), unknown: false };
    for access in &phase.accesses {
        let decl = &program.arrays[access.array];
        let Some(cols) = access.span.eval(decl.cols, nprocs, me, iter) else {
            out.unknown = true;
            continue;
        };
        if cols.is_empty() {
            continue;
        }
        let range = decl.col_range(cols.start, cols.end);
        if access.writes() {
            out.writes.push(WriteEntry {
                range,
                pure_write_all: access.access == Access::WriteAll,
                lock: phase.lock,
            });
        }
        if access.reads() {
            out.reads.push((range, access.span == ColSpan::All));
        }
    }
    out
}

/// Writes not yet synchronized to each consumer, accumulated along the
/// unrolled execution order.
///
/// A dependence can span *several* phase boundaries (the write in phase
/// `A`, the read two phases later in `C`, with a dependence-free boundary
/// between): analyzing only adjacent phases would silently drop the one
/// barrier enforcing it. The compiler therefore walks the program carrying,
/// per ordered processor pair `(p, q)`, every write of `p` that `q` has not
/// yet received consistency information for — which mirrors the runtime
/// exactly, where writes stay dirty until the next flush boundary. A full
/// barrier clears everything (its departures carry every notice to every
/// processor); an eliminated barrier clears only the named pairs (the ack
/// carries all of the producer's notices to that consumer); a push clears
/// nothing (it moves bytes, not notices — conservative, and harmless
/// because re-pushing current bytes is idempotent).
///
/// Every write of `p` is pending for every other processor until cleared,
/// so the state is one append-only log per producer rather than a P×P
/// matrix of copies: the writes of `p` pending for `q` are the log entries
/// from `q`'s watermark on that lock acquires have not cleared.
#[derive(Debug, Clone)]
pub struct PendingWrites {
    /// `log[p]`: every write of `p` since the last full barrier, in
    /// execution order.
    log: Vec<Vec<Logged>>,
    /// `seen[p]`: `(q, w)` — `q` has consistency information for
    /// `log[p][..w]` (an eliminated barrier's ack); a consumer absent from
    /// the list has none. Acks name neighbours, so the lists stay short.
    seen: Vec<Vec<(ProcId, usize)>>,
    /// A non-affine write is pending: its extent is unknowable, so every
    /// boundary until the next full barrier must refuse.
    unknown: bool,
    /// An overlapping cross-processor write is pending: the region's value
    /// is order-dependent at section granularity, so every boundary until
    /// the next full barrier must refuse. Writes guarded by the *same*
    /// lock are exempt — the acquire chain serializes and orders them.
    overlap: bool,
}

/// One entry of a producer's write log.
#[derive(Debug, Clone, Copy)]
struct Logged {
    write: WriteEntry,
    /// A lock acquire delivered the write to every processor.
    lock_cleared: bool,
}

impl PendingWrites {
    /// No pending writes (program start).
    pub fn new(nprocs: usize) -> PendingWrites {
        PendingWrites {
            log: vec![Vec::new(); nprocs],
            seen: vec![Vec::new(); nprocs],
            unknown: false,
            overlap: false,
        }
    }

    /// Accumulates the writes of `phase`'s occurrence at loop iteration
    /// `iter` (every other processor becomes a potential consumer),
    /// recording non-affine writes and unordered cross-processor write
    /// overlaps as sticky refusal conditions.
    pub fn add_phase_writes(&mut self, program: &Program, phase: &Phase, iter: usize) {
        let nprocs = self.log.len();
        let lowered: Vec<Lowered> =
            (0..nprocs).map(|me| lower(program, nprocs, me, phase, iter)).collect();
        self.unknown |=
            phase.accesses.iter().any(|a| a.span == ColSpan::Unknown && a.access.is_write());
        // Every write of one phase carries the phase's lock, and the acquire
        // chain orders overlapping writes under the same lock: only an
        // unguarded phase can overlap.
        if phase.lock.is_none() && !self.overlap {
            self.overlap = cross_processor_overlap(&lowered);
        }
        for (log, l) in self.log.iter_mut().zip(lowered) {
            log.extend(l.writes.into_iter().map(|write| Logged { write, lock_cleared: false }));
        }
    }

    /// A full barrier: every processor receives every notice.
    pub fn clear_all(&mut self) {
        for (log, seen) in self.log.iter_mut().zip(&mut self.seen) {
            log.clear();
            seen.clear();
        }
        self.unknown = false;
        self.overlap = false;
    }

    /// An eliminated barrier's ack: `consumer` received all of
    /// `producer`'s notices.
    pub fn clear_pair(&mut self, producer: ProcId, consumer: ProcId) {
        let watermark = self.log[producer].len();
        let seen = &mut self.seen[producer];
        match seen.iter_mut().find(|(q, _)| *q == consumer) {
            Some((_, w)) => *w = watermark,
            None => seen.push((consumer, watermark)),
        }
    }

    /// A lock acquire: writes made inside phases guarded by `lock` clear
    /// pair-wise along the acquire chain. Every critical section on `lock`
    /// is totally ordered, each holder's release flushes its guarded
    /// writes, and every grant merges the granter's timestamp — so by the
    /// time any processor enters a later phase guarded by the same lock,
    /// the chain has delivered it the notices of every earlier guarded
    /// write, whichever processors made them.
    pub fn clear_lock(&mut self, lock: LockId) {
        for entry in self.log.iter_mut().flatten() {
            entry.lock_cleared |= entry.write.lock == Some(lock);
        }
    }

    /// The position in `producer`'s log from which its writes are still
    /// pending for `consumer`.
    fn unseen_from(&self, producer: ProcId, consumer: ProcId) -> usize {
        self.seen[producer].iter().find(|(q, _)| *q == consumer).map_or(0, |&(_, w)| w)
    }
}

/// Whether writes of two *different* processors intersect, by one sweep
/// over the ranges sorted by start address carrying the furthest end
/// reached so far. A range intersects an earlier one of another processor
/// only if the furthest-reaching earlier range passes its start. When that
/// range is the same processor's, any other processor's range passing the
/// start overlaps it too — an earlier overlap the sweep already returned.
fn cross_processor_overlap(lowered: &[Lowered]) -> bool {
    let mut ranges: Vec<(Addr, Addr, ProcId)> = lowered
        .iter()
        .enumerate()
        .flat_map(|(p, l)| l.writes.iter().map(move |w| (w.range.start(), w.range.end(), p)))
        .filter(|&(start, end, _)| start < end)
        .collect();
    ranges.sort_unstable();
    let mut furthest: Option<(Addr, ProcId)> = None;
    for (start, end, p) in ranges {
        match furthest {
            Some((reach, owner)) if owner != p && start < reach => return true,
            Some((reach, _)) if end <= reach => {}
            _ => furthest = Some((end, p)),
        }
    }
    false
}

/// The pending writes sorted by start address, with the running maximum of
/// their ends: a read `[s, e)` can only intersect entries that start before
/// `e`, and scanning those backwards can stop as soon as no earlier entry
/// reaches past `s`.
struct WriteIndex {
    /// `(producer, log position, write)` of every pending write.
    entries: Vec<(ProcId, usize, WriteEntry)>,
    /// `reach[i]`: the furthest end among `entries[..=i]`.
    reach: Vec<Addr>,
}

impl WriteIndex {
    fn new(pending: &PendingWrites) -> WriteIndex {
        let mut entries: Vec<(ProcId, usize, WriteEntry)> = Vec::new();
        for (p, log) in pending.log.iter().enumerate() {
            for (pos, e) in log.iter().enumerate() {
                if !e.lock_cleared && !e.write.range.is_empty() {
                    entries.push((p, pos, e.write));
                }
            }
        }
        entries.sort_by_key(|(.., w)| w.range.start());
        let mut furthest = Addr::ZERO;
        let reach = entries
            .iter()
            .map(|(.., w)| {
                furthest = furthest.max(w.range.end());
                furthest
            })
            .collect();
        WriteIndex { entries, reach }
    }

    /// The entries that may intersect `read` — a superset of the ones that
    /// do.
    fn near(&self, read: AddrRange) -> impl Iterator<Item = &(ProcId, usize, WriteEntry)> {
        let before_end = self.entries.partition_point(|(.., w)| w.range.start() < read.end());
        self.entries[..before_end]
            .iter()
            .zip(&self.reach[..before_end])
            .rev()
            .take_while(move |(_, &reach)| reach > read.start())
            .map(|(entry, _)| entry)
    }
}

/// Classifies the boundary into `next`'s occurrence at loop iteration
/// `next_iter` given the writes accumulated so far (see [`PendingWrites`])
/// — the form [`crate::compile`] uses along its walk of the unrolled
/// program. When `next` is lock-guarded the caller must have cleared the
/// lock's own chain-ordered writes first ([`PendingWrites::clear_lock`]):
/// whatever remains is what the acquire *cannot* deliver.
pub fn classify_against_pending(
    program: &Program,
    nprocs: usize,
    pending: &PendingWrites,
    next: &Phase,
    next_iter: usize,
) -> BoundaryAnalysis {
    let nexts: Vec<Lowered> =
        (0..nprocs).map(|me| lower(program, nprocs, me, next, next_iter)).collect();
    let refuse = |refusal| BoundaryAnalysis {
        class: BoundaryClass::FullBarrier { refusal: Some(refusal), gc_forced: false },
        pairs: Vec::new(),
    };
    if pending.unknown || nexts.iter().any(|l| l.unknown) {
        return refuse(Refusal::NonAffine);
    }
    if pending.overlap {
        return refuse(Refusal::OverlappingWrites);
    }
    // Flow dependences: accumulated unsynchronized writes ∩ consumer reads,
    // per ordered pair. Consumers are visited in ascending order, so each
    // producer's pairs come out consumer-ascending and their concatenation
    // is producer-major.
    let index = WriteIndex::new(pending);
    let mut by_producer: Vec<Vec<DepPair>> = vec![Vec::new(); nprocs];
    let mut all_pushable = true;
    let mut any_cross_block = false;
    let mut any_locked = false;
    for (consumer, consumed) in nexts.iter().enumerate() {
        for &(read, via_all) in &consumed.reads {
            for &(producer, pos, write) in index.near(read) {
                if producer == consumer || pos < pending.unseen_from(producer, consumer) {
                    continue;
                }
                let Some(region) = write.range.intersect(&read) else {
                    continue;
                };
                all_pushable &= write.pure_write_all;
                any_cross_block |= via_all;
                any_locked |= write.lock.is_some();
                let pairs = &mut by_producer[producer];
                match pairs.last_mut() {
                    Some(pair) if pair.consumer == consumer => pair.regions.push(region),
                    _ => pairs.push(DepPair { producer, consumer, regions: vec![region] }),
                }
            }
        }
    }
    let pairs: Vec<DepPair> = by_producer
        .into_iter()
        .flatten()
        .map(|pair| DepPair { regions: AddrRange::coalesce(pair.regions), ..pair })
        .collect();
    let all_neighbours = pairs.iter().all(|d| d.producer.abs_diff(d.consumer) == 1);
    if pairs.is_empty() {
        return BoundaryAnalysis {
            class: match next.lock {
                // Nothing the acquire chain does not already order: the
                // entry is the acquire itself, validating the phase's
                // sections on the grant.
                Some(lock) => BoundaryClass::Lock(lock),
                None => BoundaryClass::NoComm,
            },
            pairs,
        };
    }
    if next.lock.is_some() {
        // Dependences survive the chain clearing: they were written
        // unguarded or under a different lock, and the acquire cannot
        // deliver their notices.
        return refuse(Refusal::OutsideAcquireChain);
    }
    if any_locked {
        // Lock-ordered producers feeding an unguarded reader — the paper's
        // lock+barrier idiom (IS's histogram merge). The holder order is
        // runtime-determined, so no static producer naming is possible and
        // the barrier *is* the intended synchronization, not a refusal; it
        // is also required whenever any dependence is lock-ordered, which
        // is why a mixed boundary lands here too.
        return BoundaryAnalysis {
            class: BoundaryClass::FullBarrier { refusal: None, gc_forced: false },
            pairs,
        };
    }
    if any_cross_block {
        return BoundaryAnalysis {
            class: BoundaryClass::FullBarrier {
                refusal: Some(Refusal::NonNeighbourDependence),
                gc_forced: false,
            },
            pairs,
        };
    }
    // `Push` needs the producers to know the final bytes without reading
    // the section first (pure WRITE_ALL): the raw current copy then *is*
    // the dependence's value and no write notices are owed to anyone. A
    // ReadWriteAll (or partial-write) producer keeps its pages DSM-managed,
    // so at most the barrier — not the protocol — can go.
    let class = if all_pushable {
        BoundaryClass::Push
    } else if all_neighbours {
        BoundaryClass::EliminatedBarrier
    } else {
        BoundaryClass::FullBarrier {
            refusal: Some(Refusal::NonNeighbourDependence),
            gc_forced: false,
        }
    };
    BoundaryAnalysis { class, pairs }
}

/// Analyzes the single boundary between `prev` (producer phase) and `next`
/// (consumer phase) for an `nprocs`-processor run, considering only
/// `prev`'s writes — the stateless form, suitable for inspecting one
/// boundary in isolation. [`crate::compile`] instead accumulates the
/// writes of *every* phase since the last synchronization that delivered
/// them ([`PendingWrites`]), so dependences spanning several boundaries
/// are seen too.
pub fn analyze_boundary(
    program: &Program,
    nprocs: usize,
    prev: &Phase,
    next: &Phase,
) -> BoundaryAnalysis {
    let mut pending = PendingWrites::new(nprocs);
    pending.add_phase_writes(program, prev, 0);
    if let Some(lock) = next.lock {
        pending.clear_lock(lock);
    }
    classify_against_pending(program, nprocs, &pending, next, 0)
}
