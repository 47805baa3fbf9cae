//! One compile per run: in a 64-processor SPMD run every processor builds
//! the compiled kernel's key from its own allocations, and
//! `rsdcomp::compile_shared` hands all of them the same kernel — the one a
//! plain `rsdcomp::compile_with` produces under the same policy.

use std::sync::Arc;

use dsm_apps::{gauss_program, is_program, jacobi_program, sor_program};
use rsdcomp::{CompiledKernel, Policy, Program};
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig, Process};

const NPROCS: usize = 64;
const ROWS: usize = 8;
const COLS: usize = 2 * NPROCS + 3;
const ITERS: usize = 2;

/// Builds `app`'s program exactly as the compiled kernel does: the same
/// allocations, in the same order, then the public IR constructor.
fn program(p: &mut Process, app: &str) -> Program {
    match app {
        "jacobi" => {
            let a = p.alloc_matrix::<f64>(ROWS, COLS);
            let b = p.alloc_matrix::<f64>(ROWS, COLS);
            jacobi_program(&a, &b, ITERS)
        }
        "sor" => sor_program(&p.alloc_matrix::<f64>(ROWS, COLS), ITERS),
        "is" => {
            let keys = p.alloc_matrix::<u64>(ROWS, COLS);
            let hist = p.alloc_matrix::<u64>(ROWS, COLS);
            is_program(&keys, &hist, ITERS)
        }
        "gauss" => {
            let a = p.alloc_matrix::<f64>(ROWS, COLS);
            let piv = p.alloc_matrix::<f64>(ROWS, COLS);
            gauss_program(&a, &piv, ITERS)
        }
        other => panic!("unknown kernel {other:?}"),
    }
}

#[test]
fn every_processor_of_a_run_shares_one_kernel() {
    for app in ["jacobi", "sor", "is", "gauss"] {
        for policy in [Policy::Full, Policy::Validate] {
            let config = DsmConfig::new(NPROCS).with_cost_model(CostModel::free());
            let run = Dsm::run(config, move |p| {
                let program = program(p, app);
                let kernel = rsdcomp::compile_shared(&program, NPROCS, policy);
                // Every processor holds its kernel until all have one.
                p.barrier();
                let same_as_plain = *kernel == rsdcomp::compile_with(&program, NPROCS, policy);
                (Arc::as_ptr(&kernel) as usize, same_as_plain, Arc::downgrade(&kernel))
            });
            let (first, ..) = run.results[0];
            for (me, (ptr, same_as_plain, _)) in run.results.iter().enumerate() {
                assert_eq!(*ptr, first, "{app}/{policy:?}: processor {me} got a kernel of its own");
                assert!(
                    same_as_plain,
                    "{app}/{policy:?}: the shared kernel differs from a compile"
                );
            }
            let kernel: &std::sync::Weak<CompiledKernel> = &run.results[0].2;
            assert!(kernel.upgrade().is_none(), "{app}/{policy:?}: the kernel outlived its run");
        }
    }
}
