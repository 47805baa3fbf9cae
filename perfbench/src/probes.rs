//! Outside-in layer probes: each times one layer's public functions
//! directly, with no DSM run around them. Only traced runs execute them.

use std::hint::black_box;
use std::time::Instant;

use dsm_apps::{gauss_program, is_program, jacobi_program, sor_program, GridConfig};
use msgnet::{Cluster, Port};
use pagedmem::{Addr, Diff, PageId, PageTable, Protection, PAGE_SIZE};
use rsdcomp::{CompiledKernel, Program};
use sp2model::{CostModel, VirtualTime};
use treadmarks::{SharedArray, SharedMatrix};

use crate::workload::SplitMix64;

/// Batches per timing probe; the probe reports the median batch.
const BATCHES: usize = 9;

/// The median over [`BATCHES`] batches of the per-call time of `f`, in
/// nanoseconds, with `calls` calls per batch.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for i in 0..calls {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[BATCHES / 2]
}

/// `kernel`'s program at `cfg`, with the arrays laid out as the SPMD
/// allocator lays them out (page-aligned, in allocation order) — the layout
/// `dsm_bench::explain_app` uses.
pub fn program(kernel: &str, cfg: &GridConfig) -> Program {
    let elems = cfg.rows * cfg.cols;
    let second = Addr::new(elems * 8).page_align_up();
    let f64s = |base| SharedMatrix::new(SharedArray::<f64>::new(base, elems), cfg.rows, cfg.cols);
    let u64s = |base| SharedMatrix::new(SharedArray::<u64>::new(base, elems), cfg.rows, cfg.cols);
    match kernel {
        "jacobi" => jacobi_program(&f64s(Addr::ZERO), &f64s(second), cfg.iters),
        "sor" => sor_program(&f64s(Addr::ZERO), cfg.iters),
        "is" => is_program(&u64s(Addr::ZERO), &u64s(second), cfg.iters),
        "gauss" => gauss_program(&f64s(Addr::ZERO), &f64s(second), cfg.iters),
        other => panic!("unknown kernel {other:?}"),
    }
}

/// One `rsdcomp::compile` of `kernel` at `cfg` for `nprocs` processors: the
/// median call time in microseconds, and the compiled kernel.
pub fn compile(kernel: &str, cfg: &GridConfig, nprocs: usize) -> (f64, CompiledKernel) {
    let program = program(kernel, cfg);
    let us = per_call_ns(3, |_| {
        black_box(rsdcomp::compile(black_box(&program), nprocs));
    }) / 1e3;
    (us, rsdcomp::compile(&program, nprocs))
}

/// Point-to-point messages a compiled kernel's plans send, over all
/// processors.
pub fn plan_messages(kernel: &CompiledKernel) -> usize {
    (0..kernel.nprocs).map(|me| kernel.plan_for(me).messages_sent()).sum()
}

/// One `msgnet` hop: `Endpoint::send` to a peer plus the peer's `recv`, in
/// nanoseconds.
pub fn msgnet_hop_ns() -> f64 {
    let endpoints = Cluster::<u64>::new(2, CostModel::sp2()).into_endpoints();
    let (a, b) = (&endpoints[0], &endpoints[1]);
    per_call_ns(20_000, |i| {
        a.send(b.id(), Port::Reply, i as u64, 8, VirtualTime::ZERO, false);
        black_box(b.recv(Port::Reply).expect("the sender is alive"));
    })
}

/// One `dsm_core` channel hop: a send plus the matching receive, in
/// nanoseconds.
pub fn channel_hop_ns() -> f64 {
    let (tx, rx) = dsm_core::channel::unbounded::<u64>();
    per_call_ns(50_000, |i| {
        tx.send(i as u64);
        black_box(rx.recv().expect("the sender is alive"));
    })
}

/// One `PageTable::check_access` over a dense heap of `pages` pages in
/// mixed protection states, at pseudo-random pages, in nanoseconds.
pub fn check_access_ns(pages: usize) -> f64 {
    let mut table = PageTable::new();
    let states = [Protection::ReadWrite, Protection::ReadOnly, Protection::Invalid];
    for p in 0..pages {
        table.map_zeroed(PageId(p), states[p % states.len()]);
    }
    let mut rng = SplitMix64::new(pages as u64);
    let order: Vec<(PageId, bool)> =
        (0..4096).map(|_| (PageId(rng.range(0, pages)), rng.next_u64() & 1 == 1)).collect();
    per_call_ns(200_000, |i| {
        let (page, write) = order[i % order.len()];
        black_box(table.check_access(black_box(page), write));
    })
}

/// `Diff::create` and `Diff::apply` throughput over 4 KiB pages, in MB/s of
/// page scanned or patched, averaged over a full-column pattern (every
/// element rewritten, as a stencil sweep does) and a sparse one (every
/// sixteenth element, as a partial update does).
pub fn diff_mbps() -> (f64, f64) {
    let twin: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 7 % 251) as u8).collect();
    let mut create_ns = 0.0;
    let mut apply_ns = 0.0;
    for stride in [1, 16] {
        let mut current = twin.clone();
        for word in current.chunks_exact_mut(8).step_by(stride) {
            word[0] ^= 0x5a;
        }
        create_ns += per_call_ns(2_000, |_| {
            black_box(Diff::create(black_box(&twin), black_box(&current)));
        });
        let diff = Diff::create(&twin, &current);
        let mut page = twin.clone();
        apply_ns += per_call_ns(2_000, |_| {
            diff.apply(black_box(&mut page)).expect("a whole page");
        });
        assert_eq!(page, current, "the diff reproduces the modified page");
    }
    // Two patterns, one page each: bytes per nanosecond = 1e3 MB/s.
    let mbps = |ns: f64| 2.0 * PAGE_SIZE as f64 / ns * 1e3;
    (mbps(create_ns), mbps(apply_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_layout_compiles_like_the_explain_dump() {
        // The same program, laid out as explain_app lays it out, compiles to
        // the plan the `--explain` dump prints.
        let cfg = dsm_bench::standard_cfg("sor");
        let (us, kernel) = compile("sor", &cfg, 8);
        assert!(us > 0.0);
        let dump = dsm_bench::explain_app("sor").expect("a known kernel");
        assert_eq!(dump, rsdcomp::explain(&program("sor", &cfg), &kernel));
        assert!(plan_messages(&kernel) > 0);
    }

    #[test]
    fn the_timing_probes_report_positive_rates() {
        assert!(msgnet_hop_ns() > 0.0);
        assert!(channel_hop_ns() > 0.0);
        assert!(check_access_ns(64) > 0.0);
        let (create, apply) = diff_mbps();
        assert!(create > 0.0 && apply > 0.0);
    }
}
