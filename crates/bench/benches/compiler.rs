//! `cargo bench -p dsm-bench --bench compiler` — the compile
//! microbenchmark: for each kernel at its scale-matrix size and 8, 64 and
//! 128 processors, the median host time of a cold `rsdcomp::compile` and
//! of an `rsdcomp::compile_shared` cache hit (what every processor but the
//! first pays in a compiled run).

use std::hint::black_box;
use std::time::Instant;

const NPROCS: [usize; 3] = [8, 64, 128];

/// Timed batches per measurement; the median batch is reported.
const BATCHES: usize = 11;

/// The median over [`BATCHES`] batches of `calls` calls of `f`, in
/// microseconds per call.
fn median_us(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / calls as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[BATCHES / 2]
}

fn main() {
    println!("{:8} {:>6} {:>12} {:>14}", "kernel", "nprocs", "cold us", "shared-hit us");
    for app in dsm_bench::APPS {
        let program =
            dsm_bench::kernel_program(app, &dsm_bench::scale_cfg(app)).expect("a known kernel");
        for nprocs in NPROCS {
            let cold = median_us(3, || {
                black_box(rsdcomp::compile(black_box(&program), nprocs));
            });
            // Held for the measurement, as the first processor of a run
            // holds it while the others look it up.
            let held = rsdcomp::compile_shared(&program, nprocs);
            let hit = median_us(1_000, || {
                black_box(rsdcomp::compile_shared(black_box(&program), nprocs));
            });
            assert_eq!(*held, rsdcomp::compile(&program, nprocs));
            println!("{app:8} {nprocs:>6} {cold:>12.1} {hit:>14.3}");
        }
    }
}
