//! Adversarial tests for the software TLB: the protection epoch must bump
//! on every invalidation path (write-protect, invalidate-on-acquire,
//! barrier write-notice application, push installs), a stale cached entry
//! must never serve an invalidated page, and the steady-state fast path
//! must take zero global page-table-lock acquisitions.

use pagedmem::PAGE_SIZE;
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig, LockId};

fn free_config(nprocs: usize) -> DsmConfig {
    DsmConfig::new(nprocs).with_cost_model(CostModel::free())
}

const ELEMS_PER_PAGE: usize = PAGE_SIZE / 8;

#[test]
fn steady_state_valid_page_accesses_take_zero_table_locks() {
    // The ISSUE acceptance criterion: once a page is valid and its mapping
    // cached, reads and writes — element-wise and bulk — acquire the global
    // page-table lock exactly zero times.
    Dsm::run(free_config(1), |p| {
        let a = p.alloc_array::<u64>(2 * ELEMS_PER_PAGE);
        for i in 0..a.len() {
            p.set(&a, i, i as u64);
        }
        // One stabilising pass: the warm-up writes' own faults bumped the
        // epoch, so mappings cached before the last fault need a refill.
        for i in 0..a.len() {
            let _ = p.get(&a, i);
        }
        let before = p.stats().snapshot();
        let mut sum = 0u64;
        for _ in 0..10 {
            for i in 0..a.len() {
                sum += p.get(&a, i);
            }
        }
        for i in 0..a.len() {
            p.set(&a, i, 2 * i as u64);
        }
        let mut buf = vec![0u64; a.len()];
        p.get_slice(&a, 0..a.len(), &mut buf);
        p.set_slice(&a, 0..a.len(), &buf);
        let after = p.stats().snapshot();
        assert_eq!(
            after.table_lock_acquires, before.table_lock_acquires,
            "steady-state accesses to valid pages must not touch the table lock"
        );
        assert!(after.tlb_hits > before.tlb_hits, "the accesses must be TLB hits");
        assert_eq!(after.tlb_misses, before.tlb_misses, "no access may miss");
        assert_eq!(buf[1], 2);
        sum
    });
}

#[test]
fn every_warm_access_is_counted_as_exactly_one_tlb_hit() {
    // Hits are tallied per processor and published on `stats()` and when
    // the processor is dropped: a publish lost on either path shows here.
    const N: usize = 300;
    const LATER: u64 = 50;
    let run = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(2 * ELEMS_PER_PAGE);
        let mine = p.proc_id() * ELEMS_PER_PAGE..(p.proc_id() + 1) * ELEMS_PER_PAGE;
        for i in mine.clone() {
            p.set(&a, i, i as u64);
        }
        for i in mine.clone() {
            let _ = p.get(&a, i);
        }
        let before = p.stats().snapshot().tlb_hits;
        for k in 0..N {
            let i = mine.start + k % mine.len();
            if k % 3 == 0 {
                p.set(&a, i, k as u64);
            } else {
                let _ = p.get(&a, i);
            }
        }
        let mid = p.stats().snapshot();
        assert_eq!(mid.tlb_hits - before, N as u64, "each warm get/set is one hit");
        // Hits after the last `stats()` call are published on drop.
        for k in 0..LATER {
            let _ = p.get(&a, mine.start + k as usize);
        }
        mid.tlb_hits + LATER
    });
    for (node, &hits) in run.stats.nodes().iter().zip(&run.results) {
        assert_eq!(node.tlb_hits, hits, "the run's per-node count misses published hits");
    }
    assert_eq!(run.stats.total().tlb_hits, run.results.iter().sum::<u64>());
}

#[test]
fn epoch_bumps_on_write_protect_and_stale_write_entries_refault() {
    Dsm::run(free_config(1), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        p.set(&a, 0, 1);
        let epoch = p.protection_epoch();
        p.write_protect(&[a.full_range()]);
        assert!(p.protection_epoch() > epoch, "write_protect must bump the protection epoch");
        // The cached writable mapping is stale: the next write must fault
        // (twin + re-enable), not sneak through the TLB.
        let faults = p.stats().snapshot().page_faults;
        p.set(&a, 0, 2);
        assert_eq!(p.stats().snapshot().page_faults, faults + 1);
        assert_eq!(p.get(&a, 0), 2);
    });
}

#[test]
fn barrier_write_notices_bump_the_epoch_and_kill_stale_read_entries() {
    // The central adversarial case: processor 0 caches a read mapping, the
    // producer overwrites the page, and the barrier's write notices
    // invalidate it. A stale TLB entry serving the old value here would be
    // a coherence violation.
    let run = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        if p.proc_id() == 1 {
            p.set(&a, 0, 5);
        }
        p.barrier();
        assert_eq!(p.get(&a, 0), 5, "warm the read mapping");
        let epoch = p.protection_epoch();
        p.barrier();
        if p.proc_id() == 1 {
            p.set(&a, 0, 42);
        }
        p.barrier();
        if p.proc_id() == 0 {
            assert!(
                p.protection_epoch() > epoch,
                "barrier write-notice application must bump the epoch"
            );
            let misses = p.stats().snapshot().tlb_misses;
            let value = p.get(&a, 0);
            assert!(
                p.stats().snapshot().tlb_misses > misses,
                "the invalidated page must miss the TLB and refetch"
            );
            value
        } else {
            p.get(&a, 0)
        }
    });
    assert_eq!(run.results, vec![42, 42], "a stale cached entry must never serve stale data");
}

#[test]
fn lock_acquire_invalidation_bumps_the_epoch() {
    const LOCK: LockId = 7;
    let run = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        if p.proc_id() == 0 {
            p.lock_acquire(LOCK);
            p.set(&a, 3, 5);
            p.lock_release(LOCK);
        }
        p.barrier();
        assert_eq!(p.get(&a, 3), 5, "warm the mapping");
        if p.proc_id() == 0 {
            p.lock_acquire(LOCK);
            p.set(&a, 3, 9);
            p.lock_release(LOCK);
            9
        } else {
            // Poll under the lock until the producer's release is visible:
            // the grant that transfers the write notice must invalidate the
            // warm page and bump the epoch before the read.
            let epoch = p.protection_epoch();
            loop {
                p.lock_acquire(LOCK);
                let v = p.get(&a, 3);
                p.lock_release(LOCK);
                if v == 9 {
                    assert!(
                        p.protection_epoch() > epoch,
                        "invalidate-on-acquire must bump the epoch"
                    );
                    return v;
                }
            }
        }
    });
    assert_eq!(run.results, vec![9, 9]);
}

#[test]
fn push_installs_bump_the_epoch() {
    let run = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(2 * ELEMS_PER_PAGE);
        let me = p.proc_id();
        let other = 1 - me;
        let half = a.len() / 2;
        let mine = a.range_of(me * half, (me + 1) * half);
        p.write_enable(&[mine], true);
        for i in 0..half {
            p.set(&a, me * half + i, (me * 100 + i) as u64);
        }
        // Touch the peer's half before the push: it materialises zero-filled
        // and the mapping is cached.
        assert_eq!(p.get(&a, other * half), 0);
        let epoch = p.protection_epoch();
        p.push_exchange(&[(other, vec![mine])], &[other]);
        assert!(p.protection_epoch() > epoch, "a push install must bump the epoch");
        p.get(&a, other * half)
    });
    assert_eq!(run.results, vec![100, 0], "the pushed contents must replace the stale zeros");
}

#[test]
fn bulk_accessors_match_per_element_access() {
    Dsm::run(free_config(1), |p| {
        // A range that spans several pages with ragged edges.
        let a = p.alloc_array::<u32>(2 * PAGE_SIZE / 4 + 100);
        let values: Vec<u32> = (0..a.len() as u32).map(|i| i.wrapping_mul(2654435761)).collect();
        p.set_slice(&a, 0..a.len(), &values);
        for i in (0..a.len()).step_by(97) {
            assert_eq!(p.get(&a, i), values[i], "set_slice must agree with per-element get");
        }
        let mut out = vec![0u32; a.len() - 13];
        p.get_slice(&a, 13..a.len(), &mut out);
        assert_eq!(&out[..], &values[13..], "get_slice must agree with set_slice");

        // A strided row update over a column-major matrix whose columns are
        // much smaller than a page (many columns per page run)...
        let m = p.alloc_matrix::<f64>(8, 16);
        let row_vals: Vec<f64> = (0..16).map(|c| c as f64 + 0.5).collect();
        p.update_row(&m, 5, 0..16, &row_vals);
        for (c, expected) in row_vals.iter().enumerate() {
            assert_eq!(p.get(m.array(), m.index(5, c)), *expected);
            assert_eq!(p.get(m.array(), m.index(4, c)), 0.0, "neighbours must be untouched");
        }
        // ... and one with page-sized columns (one element per page run).
        let big = p.alloc_matrix::<f64>(PAGE_SIZE / 8, 3);
        p.update_row(&big, 100, 0..3, &[1.0, 2.0, 3.0]);
        for c in 0..3 {
            assert_eq!(p.get(big.array(), big.index(100, c)), (c + 1) as f64);
        }
    });
}
