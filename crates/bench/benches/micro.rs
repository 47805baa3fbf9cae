//! `cargo bench -p dsm-bench --bench micro` — host microbenchmark of the
//! access layer, one processor, free cost model. For each access pattern it
//! prints the median host nanoseconds per access over [`BATCHES`] batches
//! of [`N`] accesses, next to the global page-table-lock acquisitions per
//! batch:
//!
//! * per-element `get` / `set` on warm pages (the software-TLB hit),
//! * bulk `get_slice` / `set_slice` (one TLB probe per page run),
//! * a granted phase: a `validate` of the section, then per-element reads
//!   (the grant's cost is included),
//! * a TLB-miss refill: the protection epoch is bumped between rounds of
//!   one read per page, so each read re-walks the frame table under the
//!   table lock (the bump itself is neither timed nor counted).

use std::hint::black_box;
use std::time::{Duration, Instant};

use ctrt::{validate, Access, RegularSection};
use pagedmem::PAGE_SIZE;
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig, Process, SharedArray};

/// Accesses per batch.
const N: usize = 10_000;

/// Timed batches per case; the median batch is reported.
const BATCHES: usize = 51;

/// Pages touched per round of the refill case (well under the TLB's
/// capacity, so every miss is an epoch miss, not an eviction).
const REFILL_PAGES: usize = 64;

const ELEMS_PER_PAGE: usize = PAGE_SIZE / 8;

/// One measured case: median ns per access and table locks per batch.
struct Row {
    name: &'static str,
    ns: f64,
    locks: u64,
}

/// What one batch spent on its [`N`] timed accesses.
#[derive(Default)]
struct Spent {
    time: Duration,
    locks: u64,
}

/// Times `f` and counts the table-lock acquisitions it makes.
fn timed(p: &mut Process, f: impl FnOnce(&mut Process)) -> Spent {
    let locks = p.stats().snapshot().table_lock_acquires;
    let start = Instant::now();
    f(p);
    let time = start.elapsed();
    Spent { time, locks: p.stats().snapshot().table_lock_acquires - locks }
}

/// Runs `batch` [`BATCHES`] times and reports the median ns per access,
/// with the table locks of the last batch.
fn measure(
    p: &mut Process,
    name: &'static str,
    mut batch: impl FnMut(&mut Process) -> Spent,
) -> Row {
    let mut per_access = Vec::with_capacity(BATCHES);
    let mut locks = 0;
    for _ in 0..BATCHES {
        let spent = batch(p);
        locks = spent.locks;
        per_access.push(spent.time.as_secs_f64() * 1e9 / N as f64);
    }
    per_access.sort_by(f64::total_cmp);
    Row { name, ns: per_access[BATCHES / 2], locks }
}

fn cases(p: &mut Process) -> Vec<Row> {
    let a: SharedArray<u64> = p.alloc_array(N);
    let mut buf = vec![0u64; N];
    for i in 0..N {
        p.set(&a, i, i as u64);
    }
    // A stabilising pass: the warm-up writes' faults bumped the epoch.
    p.get_slice(&a, 0..N, &mut buf);

    let mut rows = vec![
        measure(p, "get (per-element)", |p| {
            timed(p, |p| {
                let mut sum = 0u64;
                for i in 0..N {
                    sum = sum.wrapping_add(p.get(&a, black_box(i)));
                }
                black_box(sum);
            })
        }),
        measure(p, "set (per-element)", |p| {
            timed(p, |p| {
                for i in 0..N {
                    p.set(&a, black_box(i), i as u64);
                }
            })
        }),
        measure(p, "get_slice (bulk)", |p| timed(p, |p| p.get_slice(&a, 0..N, &mut buf))),
    ];
    let values = buf.clone();
    rows.push(measure(p, "set_slice (bulk)", |p| timed(p, |p| p.set_slice(&a, 0..N, &values))));
    rows.push(measure(p, "granted phase", |p| {
        timed(p, |p| {
            validate(p, &[RegularSection::array(&a, 0..N, Access::Read)]);
            let mut sum = 0u64;
            for i in 0..N {
                sum = sum.wrapping_add(p.get(&a, black_box(i)));
            }
            black_box(sum);
        })
    }));

    // The refill case: one element per page of a REFILL_PAGES-page array,
    // after a protection change elsewhere has staled every TLB entry.
    let pages: SharedArray<u64> = p.alloc_array(REFILL_PAGES * ELEMS_PER_PAGE);
    let bump: SharedArray<u64> = p.alloc_array(ELEMS_PER_PAGE);
    for page in 0..REFILL_PAGES {
        p.set(&pages, page * ELEMS_PER_PAGE, page as u64);
    }
    p.set(&bump, 0, 0);
    rows.push(measure(p, "TLB-miss refill", |p| {
        let mut total = Spent::default();
        for round in 0..N.div_ceil(REFILL_PAGES) {
            // Read-only, then a write fault re-enables it: the epoch moves.
            p.write_protect(&[bump.full_range()]);
            p.set(&bump, 0, round as u64);
            let accesses = REFILL_PAGES.min(N - round * REFILL_PAGES);
            let spent = timed(p, |p| {
                let mut sum = 0u64;
                for page in 0..accesses {
                    sum = sum.wrapping_add(p.get(&pages, black_box(page * ELEMS_PER_PAGE)));
                }
                black_box(sum);
            });
            total.time += spent.time;
            total.locks += spent.locks;
        }
        total
    }));
    rows
}

fn main() {
    let config = DsmConfig::new(1).with_cost_model(CostModel::free());
    let run = Dsm::run(config, cases);
    println!("{:20} {:>10} {:>24}", "case", "ns/access", "table locks / batch");
    for row in &run.results[0] {
        println!("{:20} {:>10.1} {:>12} / {N} accesses", row.name, row.ns, row.locks);
    }
}
