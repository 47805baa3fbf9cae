//! Analyzer classification tests — including the refusal cases that must
//! *never* classify as an unsound elimination — and plan-generation
//! structure tests.

use pagedmem::Addr;
use rsdcomp::{
    analyze_boundary, classify_against_pending, col_block, compile, Access, ArrayDecl,
    BoundaryClass, BoundaryOp, ColSpan, Node, PendingWrites, Phase, Program, Refusal,
    SectionAccess,
};

const ROWS: usize = 512;
const COLS: usize = 16;

fn decl(name: &'static str, base: usize) -> ArrayDecl {
    ArrayDecl { name, base: Addr::new(base), rows: ROWS, cols: COLS, elem_bytes: 8 }
}

fn sweep(name: &'static str, src: usize, dst: usize) -> Phase {
    Phase::new(
        name,
        vec![
            SectionAccess::new(src, ColSpan::UpdateHalo(1), Access::Read),
            SectionAccess::new(dst, ColSpan::UpdateBlock, Access::WriteAll),
        ],
    )
}

fn half_sweep(name: &'static str, grid: usize) -> Phase {
    Phase::new(
        name,
        vec![
            SectionAccess::new(grid, ColSpan::UpdateHalo(1), Access::Read),
            SectionAccess::new(grid, ColSpan::UpdateBlock, Access::ReadWriteAll),
        ],
    )
}

fn init(arrays: &[usize]) -> Phase {
    Phase::new(
        "init",
        arrays
            .iter()
            .map(|&a| SectionAccess::new(a, ColSpan::OwnBlock, Access::WriteAll))
            .collect(),
    )
}

#[test]
fn double_buffered_stencils_classify_as_push() {
    // Jacobi's shape: WriteAll into the other grid, nearest-neighbour
    // reads — producer-known consumer sets with known final bytes.
    let program = Program {
        arrays: vec![decl("a", 0), decl("b", ROWS * COLS * 8)],
        nodes: vec![Node::Phase(sweep("ab", 0, 1)), Node::Phase(sweep("ba", 1, 0))],
    };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(analysis.class, BoundaryClass::Push);
    // Dependence pairs are the non-wrapping neighbour pairs.
    for pair in &analysis.pairs {
        assert_eq!(pair.producer.abs_diff(pair.consumer), 1);
        assert!(!pair.regions.is_empty());
    }
    assert_eq!(analysis.pairs.len(), 6, "3 interior boundaries x 2 directions");
}

#[test]
fn in_place_half_sweeps_classify_as_eliminated_barrier() {
    // SOR's shape: READ&WRITE_ALL in place — the producer reads the
    // section before overwriting it, so the pages stay DSM-managed and
    // only the barrier (not the protocol) is eliminated.
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![Node::Phase(half_sweep("red", 0)), Node::Phase(half_sweep("black", 0))],
    };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(analysis.class, BoundaryClass::EliminatedBarrier);
}

#[test]
fn overlapping_write_sections_refuse_elimination() {
    // Both processors write their halo-extended block: neighbouring
    // sections overlap, the phase output is order-dependent, and only the
    // full barrier is sound.
    let overlapping =
        Phase::new("bad", vec![SectionAccess::new(0, ColSpan::UpdateHalo(1), Access::Write)]);
    let reader =
        Phase::new("read", vec![SectionAccess::new(0, ColSpan::UpdateHalo(1), Access::Read)]);
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![Node::Phase(overlapping), Node::Phase(reader)],
    };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(
        analysis.class,
        BoundaryClass::FullBarrier { refusal: Some(Refusal::OverlappingWrites), gc_forced: false }
    );
}

#[test]
fn only_cross_processor_write_overlaps_refuse() {
    // Each processor writes its own block twice over and its blocks touch
    // its neighbours' without overlapping: the output is order-independent.
    let own_twice = Phase::new(
        "own",
        vec![
            SectionAccess::new(0, ColSpan::OwnBlock, Access::Write),
            SectionAccess::new(0, ColSpan::UpdateBlock, Access::Write),
        ],
    );
    let reader =
        Phase::new("read", vec![SectionAccess::new(0, ColSpan::UpdateHalo(1), Access::Read)]);
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![Node::Phase(own_twice), Node::Phase(reader)],
    };
    let phases = program.phases();
    for nprocs in [2, 3, 4, 8] {
        let analysis = analyze_boundary(&program, nprocs, phases[0], phases[1]);
        assert_eq!(analysis.class, BoundaryClass::EliminatedBarrier, "at {nprocs} procs");
    }
}

#[test]
fn pending_writes_clear_per_pair_per_lock_and_at_barriers() {
    const LOCK: u32 = 3;
    let write = |name, lock| Phase {
        name,
        accesses: vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::ReadWrite)],
        lock,
    };
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![
            Node::Phase(write("plain", None)),
            Node::Phase(write("guarded", Some(LOCK))),
            Node::Phase(Phase::new(
                "read",
                vec![SectionAccess::new(0, ColSpan::UpdateHalo(1), Access::Read)],
            )),
        ],
    };
    let phases = program.phases();
    let pairs = |pending: &PendingWrites| -> Vec<(usize, usize)> {
        classify_against_pending(&program, 4, pending, phases[2], 0)
            .pairs
            .iter()
            .map(|d| (d.producer, d.consumer))
            .collect()
    };
    let neighbours = vec![(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)];

    let mut pending = PendingWrites::new(4);
    pending.add_phase_writes(&program, phases[0], 0);
    assert_eq!(pairs(&pending), neighbours, "producer-major, consumer-ascending");
    // An ack delivers one producer's notices to one consumer...
    pending.clear_pair(1, 2);
    assert_eq!(pairs(&pending), [(0, 1), (1, 0), (2, 1), (2, 3), (3, 2)]);
    // ...as of the ack only: later writes are pending again.
    pending.add_phase_writes(&program, phases[0], 0);
    assert_eq!(pairs(&pending), neighbours);
    pending.clear_all();
    assert!(pairs(&pending).is_empty());

    // A lock acquire clears exactly the writes made under that lock.
    pending.add_phase_writes(&program, phases[1], 0);
    assert_eq!(pairs(&pending), neighbours);
    pending.clear_lock(LOCK + 1);
    assert_eq!(pairs(&pending), neighbours, "another lock's acquire delivers nothing");
    pending.clear_lock(LOCK);
    assert!(pairs(&pending).is_empty());
    pending.add_phase_writes(&program, phases[0], 0);
    pending.add_phase_writes(&program, phases[1], 0);
    pending.clear_lock(LOCK);
    assert_eq!(pairs(&pending), neighbours, "unguarded writes survive the acquire");
}

#[test]
fn non_affine_subscripts_refuse_elimination() {
    // An indirection (`Unknown` span) anywhere in the boundary's phases
    // means the consumer set cannot be computed: full barrier.
    let writer =
        Phase::new("write", vec![SectionAccess::new(0, ColSpan::UpdateBlock, Access::WriteAll)]);
    let gather = Phase::new("gather", vec![SectionAccess::new(0, ColSpan::Unknown, Access::Read)]);
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![Node::Phase(writer), Node::Phase(gather)],
    };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(
        analysis.class,
        BoundaryClass::FullBarrier { refusal: Some(Refusal::NonAffine), gc_forced: false }
    );
}

#[test]
fn cross_block_reductions_refuse_elimination() {
    // The read side of a reduction touches every block: a global
    // dependence, never a named-producer sync — even though the producers
    // wrote under WriteAll.
    let produce =
        Phase::new("produce", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)]);
    let reduce = Phase::new(
        "reduce",
        vec![
            SectionAccess::new(0, ColSpan::All, Access::Read),
            SectionAccess::new(1, ColSpan::OwnBlock, Access::WriteAll),
        ],
    );
    let program = Program {
        arrays: vec![decl("m", 0), decl("acc", ROWS * COLS * 8)],
        nodes: vec![Node::Phase(produce), Node::Phase(reduce)],
    };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(
        analysis.class,
        BoundaryClass::FullBarrier {
            refusal: Some(Refusal::NonNeighbourDependence),
            gc_forced: false
        }
    );
}

#[test]
fn far_dependences_without_write_all_refuse_elimination() {
    // A distance-2 dependence whose producer reads before writing: not
    // pushable (no WriteAll) and not nearest-neighbour — full barrier.
    let update = Phase::new(
        "update",
        vec![SectionAccess::new(0, ColSpan::UpdateBlock, Access::ReadWriteAll)],
    );
    let far = Phase::new(
        "far",
        vec![SectionAccess::new(0, ColSpan::BlockOf { offset: 2, wrap: false }, Access::Read)],
    );
    let program =
        Program { arrays: vec![decl("m", 0)], nodes: vec![Node::Phase(update), Node::Phase(far)] };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 8, phases[0], phases[1]);
    assert_eq!(
        analysis.class,
        BoundaryClass::FullBarrier {
            refusal: Some(Refusal::NonNeighbourDependence),
            gc_forced: false
        }
    );
}

#[test]
fn ring_patterns_with_write_all_still_push() {
    // Producer-known consumer sets need not be nearest-neighbour: a ring
    // (each processor reads its successor's block) pushes fine because the
    // producers' WriteAll bytes are final.
    let produce =
        Phase::new("produce", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)]);
    let consume = Phase::new(
        "consume",
        vec![SectionAccess::new(0, ColSpan::BlockOf { offset: 1, wrap: true }, Access::Read)],
    );
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![Node::Phase(produce), Node::Phase(consume)],
    };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(analysis.class, BoundaryClass::Push);
    // Processor 0's block goes to processor 3 (the wrap pair).
    assert!(analysis.pairs.iter().any(|p| p.producer == 0 && p.consumer == 3));
}

#[test]
fn disjoint_phases_need_no_synchronization() {
    let a = Phase::new("a", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)]);
    let b = Phase::new("b", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::ReadWriteAll)]);
    let program =
        Program { arrays: vec![decl("m", 0)], nodes: vec![Node::Phase(a), Node::Phase(b)] };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(analysis.class, BoundaryClass::NoComm);
    assert!(analysis.pairs.is_empty());
}

#[test]
fn dependences_spanning_several_boundaries_are_still_enforced() {
    // Regression test: the write is in phase A, the read two phases later
    // in C, and the boundary between them (A -> B) has no dependence of
    // its own. Adjacent-pair analysis classified both boundaries NoComm
    // and dropped every barrier, so C's cross-block read of A's remote
    // writes ran with no happens-before edge. The accumulated-writes walk
    // must catch the A -> C dependence at the B -> C boundary.
    let a = Phase::new("a", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)]);
    let b = Phase::new("b", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::Read)]);
    let c = Phase::new(
        "c",
        vec![
            SectionAccess::new(0, ColSpan::All, Access::Read),
            SectionAccess::new(1, ColSpan::OwnBlock, Access::WriteAll),
        ],
    );
    let program = Program {
        arrays: vec![decl("m", 0), decl("acc", ROWS * COLS * 8)],
        nodes: vec![Node::Phase(a), Node::Phase(b), Node::Phase(c)],
    };
    let kernel = compile(&program, 4);
    let class_of = |prev: usize, next: usize| {
        kernel
            .boundaries
            .iter()
            .find(|s| s.prev == prev && s.next == next)
            .map(|s| s.class)
            .expect("boundary exists")
    };
    assert_eq!(class_of(0, 1), BoundaryClass::NoComm, "A -> B really has no dependence");
    assert_eq!(
        class_of(1, 2),
        BoundaryClass::FullBarrier {
            refusal: Some(Refusal::NonNeighbourDependence),
            gc_forced: false
        },
        "the A -> C cross-block dependence must surface at the B -> C boundary"
    );
    assert_eq!(kernel.barriers(), 1, "one real barrier must survive to enforce it");

    // A neighbour-shaped skipped dependence resolves to the eliminated
    // barrier instead: still an edge per named pair, never silence.
    let writer =
        Phase::new("w", vec![SectionAccess::new(0, ColSpan::UpdateBlock, Access::ReadWriteAll)]);
    let idle = Phase::new("idle", vec![SectionAccess::new(1, ColSpan::OwnBlock, Access::WriteAll)]);
    let reader = Phase::new("r", vec![SectionAccess::new(0, ColSpan::UpdateHalo(1), Access::Read)]);
    let program = Program {
        arrays: vec![decl("m", 0), decl("scratch", ROWS * COLS * 8)],
        nodes: vec![Node::Phase(writer), Node::Phase(idle), Node::Phase(reader)],
    };
    let kernel = compile(&program, 4);
    let class_of = |prev: usize, next: usize| {
        kernel
            .boundaries
            .iter()
            .find(|s| s.prev == prev && s.next == next)
            .map(|s| s.class)
            .expect("boundary exists")
    };
    assert_eq!(class_of(0, 1), BoundaryClass::NoComm);
    assert_eq!(
        class_of(1, 2),
        BoundaryClass::EliminatedBarrier,
        "the skipped-a-phase neighbour dependence still gets its p2p sync"
    );
}

#[test]
fn gc_policy_retains_one_real_barrier_per_iteration() {
    // A loop of two eliminable half-sweeps: the loop-back boundary must be
    // retained as a real barrier (GC heartbeat), the in-body boundary
    // stays eliminated.
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![
            Node::Phase(init(&[0])),
            Node::Repeat { times: 3, body: vec![half_sweep("red", 0), half_sweep("black", 0)] },
        ],
    };
    let kernel = compile(&program, 4);
    let class_of = |prev: usize, next: usize| {
        kernel
            .boundaries
            .iter()
            .find(|b| b.prev == prev && b.next == next)
            .map(|b| b.class)
            .expect("boundary exists")
    };
    assert_eq!(class_of(1, 2), BoundaryClass::EliminatedBarrier, "red -> black stays eliminated");
    assert_eq!(
        class_of(2, 1),
        BoundaryClass::FullBarrier { refusal: None, gc_forced: true },
        "the loop-back boundary is retained for the GC horizon"
    );
    // The init boundary is pushable in isolation but the program flushes:
    // it is demoted to the (false-sharing safe) merged data+sync exchange.
    assert_eq!(class_of(0, 1), BoundaryClass::EliminatedBarrier);
    // Per iteration: one real barrier survives, one is eliminated (plus
    // the demoted init boundary).
    assert_eq!(kernel.barriers_eliminated(), 4);
    assert_eq!(kernel.barriers(), 2, "iters - 1 loop-back barriers");
}

#[test]
fn pushes_demote_when_the_program_keeps_managed_phases() {
    // A pushable ring boundary inside a program that also flushes (an
    // in-place half-sweep elsewhere): raw pushes would be re-shipped by
    // later diffs, so the ring boundary — whose dependences are not
    // nearest-neighbour — must fall back to a full barrier, and a
    // neighbour-shaped pushable boundary to the merged data+sync exchange.
    let produce =
        Phase::new("produce", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)]);
    let consume = Phase::new(
        "consume",
        vec![SectionAccess::new(0, ColSpan::BlockOf { offset: 1, wrap: true }, Access::Read)],
    );
    let relax = half_sweep("relax", 0);
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![
            Node::Phase(produce),
            Node::Phase(consume),
            Node::Repeat { times: 2, body: vec![relax] },
        ],
    };
    let kernel = compile(&program, 4);
    let class_of = |prev: usize, next: usize| {
        kernel
            .boundaries
            .iter()
            .find(|b| b.prev == prev && b.next == next)
            .map(|b| b.class)
            .expect("boundary exists")
    };
    assert_eq!(
        class_of(0, 1),
        BoundaryClass::FullBarrier {
            refusal: Some(Refusal::MixedWithManagedPhases),
            gc_forced: false
        },
        "a wrap-ring push must not survive next to managed phases"
    );
}

#[test]
fn plans_are_spmd_consistent_and_collectives_match() {
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![
            Node::Phase(init(&[0])),
            Node::Repeat { times: 2, body: vec![half_sweep("red", 0), half_sweep("black", 0)] },
        ],
    };
    let nprocs = 4;
    let kernel = compile(&program, nprocs);
    for me in 0..nprocs {
        let plan = kernel.plan_for(me);
        // Every plan has the same step skeleton (phase ids and op kinds).
        let kinds: Vec<&str> = plan.steps.iter().map(|s| s.entry.name()).collect();
        let reference: Vec<&str> =
            kernel.plan_for(0).steps.iter().map(|s| s.entry.name()).collect();
        assert_eq!(kinds, reference, "proc {me} must share the SPMD step skeleton");
        for (idx, step) in plan.steps.iter().enumerate() {
            match &step.entry {
                BoundaryOp::NeighborSync { producers, consumers, .. } => {
                    for &producer in producers {
                        let BoundaryOp::NeighborSync { consumers: theirs, .. } =
                            &kernel.plan_for(producer).steps[idx].entry
                        else {
                            panic!("mismatched collective");
                        };
                        assert!(
                            theirs.contains(&me),
                            "proc {me} expects {producer} to produce, but {producer} does not \
                             list {me} as a consumer"
                        );
                    }
                    for &consumer in consumers {
                        let BoundaryOp::NeighborSync { producers: theirs, .. } =
                            &kernel.plan_for(consumer).steps[idx].entry
                        else {
                            panic!("mismatched collective");
                        };
                        assert!(theirs.contains(&me));
                    }
                    // Neighbour sets really are the chain neighbours.
                    let expected: Vec<usize> = [me.checked_sub(1), Some(me + 1)]
                        .into_iter()
                        .flatten()
                        .filter(|&n| n < nprocs)
                        .collect();
                    assert_eq!(producers, &expected);
                    assert_eq!(consumers, &expected);
                }
                BoundaryOp::Push { sends, recv_from, .. } => {
                    for push in sends {
                        let BoundaryOp::Push { recv_from: theirs, .. } =
                            &kernel.plan_for(push.dest).steps[idx].entry
                        else {
                            panic!("mismatched push");
                        };
                        assert!(theirs.contains(&me));
                    }
                    for &src in recv_from {
                        let BoundaryOp::Push { sends: theirs, .. } =
                            &kernel.plan_for(src).steps[idx].entry
                        else {
                            panic!("mismatched push");
                        };
                        assert!(theirs.iter().any(|p| p.dest == me));
                    }
                }
                _ => {}
            }
        }
    }
}

#[test]
fn jacobi_shaped_plans_prepare_once_then_warm() {
    // All-push steady state: after the first preparation no flush boundary
    // ever occurs, so subsequent push entries are warm-only — the plan
    // reproduces the hand-written push variant's cost shape.
    let program = Program {
        arrays: vec![decl("a", 0), decl("b", ROWS * COLS * 8)],
        nodes: vec![
            Node::Phase(init(&[0, 1])),
            Node::Repeat { times: 3, body: vec![sweep("ab", 0, 1), sweep("ba", 1, 0)] },
        ],
    };
    let kernel = compile(&program, 4);
    assert_eq!(kernel.barriers(), 0, "a fully pushable loop keeps no barrier");
    assert_eq!(kernel.barriers_eliminated(), 0);
    let plan = kernel.plan_for(1);
    let mut push_preps = 0;
    let mut push_warms = 0;
    for step in &plan.steps {
        if let BoundaryOp::Push { prepare, .. } = step.entry {
            if prepare {
                push_preps += 1;
            } else {
                push_warms += 1;
            }
        }
    }
    // Each sweep phase prepares at its first occurrence only.
    assert_eq!(push_preps, 2);
    assert_eq!(push_warms, 4);
}

#[test]
fn explain_is_deterministic_and_names_the_decisions() {
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![
            Node::Phase(init(&[0])),
            Node::Repeat { times: 2, body: vec![half_sweep("red", 0), half_sweep("black", 0)] },
        ],
    };
    let kernel = compile(&program, 4);
    let a = rsdcomp::explain(&program, &kernel);
    let b = rsdcomp::explain(&program, &compile(&program, 4));
    assert_eq!(a, b, "explain must be byte-deterministic");
    assert!(a.contains("eliminated-barrier"));
    assert!(a.contains("retained for the GC horizon"));
    assert!(a.contains("totals:"));
}

#[test]
fn exit_warm_covers_every_arrays_own_block() {
    let program = Program {
        arrays: vec![decl("a", 0), decl("b", ROWS * COLS * 8)],
        nodes: vec![Node::Phase(init(&[0, 1]))],
    };
    let kernel = compile(&program, 4);
    for me in 0..4 {
        let BoundaryOp::Local { prepare, sections } = &kernel.plan_for(me).exit else {
            panic!("exit op is a local warm");
        };
        assert!(!prepare);
        assert_eq!(sections.len(), 2);
        let own = col_block(COLS, 4, me);
        assert_eq!(sections[0].bytes(), (own.end - own.start) * ROWS * 8);
    }
}
