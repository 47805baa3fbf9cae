//! Running one kernel through `Dsm::try_run` and checking its result.
//!
//! A run fails in one of three ways, each counted by class: the system
//! returns a `DsmError`, a processor panics, or a per-processor checksum
//! differs from the plain-TreadMarks reference of the same kernel, size and
//! cluster size.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dsm_apps::{gauss, is, jacobi, sor, GridConfig, Variant};
use sp2model::{ReactorSnapshot, StatsSnapshot};
use treadmarks::{Dsm, DsmConfig, Process};

/// Why a run counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// A per-processor checksum differs from the reference.
    Mismatch,
    /// `Dsm::try_run` returned a structured system failure.
    DsmError,
    /// A processor closure panicked.
    Panic,
}

impl Failure {
    /// Every class, in report order.
    pub const ALL: [Failure; 3] = [Failure::Mismatch, Failure::DsmError, Failure::Panic];

    /// The class name the reports use.
    pub fn name(self) -> &'static str {
        match self {
            Failure::Mismatch => "mismatch",
            Failure::DsmError => "dsm_error",
            Failure::Panic => "panic",
        }
    }
}

/// What a completed run reports, read from `DsmRun` after it returns.
#[derive(Debug, Clone)]
pub struct RunData {
    /// Each processor's checksum as bits (float kernels via `to_bits`).
    pub bits: Vec<u64>,
    /// Final virtual clock of each processor, in nanoseconds.
    pub clocks_ns: Vec<u64>,
    /// Statistics summed over processors.
    pub stats: StatsSnapshot,
    /// One snapshot per protocol reactor.
    pub reactors: Vec<ReactorSnapshot>,
}

impl RunData {
    /// The modelled execution time: the maximum final clock.
    pub fn virt_ns(&self) -> u64 {
        self.clocks_ns.iter().copied().max().unwrap_or(0)
    }
}

/// A kernel entry point reduced to one checksum shape.
type KernelFn = fn(&mut Process, &GridConfig, Variant) -> u64;

fn kernel_fn(kernel: &str) -> KernelFn {
    match kernel {
        "jacobi" => |p, cfg, v| jacobi(p, cfg, v).to_bits(),
        "sor" => |p, cfg, v| sor(p, cfg, v).to_bits(),
        "is" => is,
        "gauss" => gauss,
        other => panic!("unknown kernel {other:?}"),
    }
}

/// Runs `kernel` once through `Dsm::try_run` and returns its host
/// wall-clock in nanoseconds with the run's data, or the class of the
/// system failure or panic that ended it.
pub fn execute(
    kernel: &str,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
) -> (u64, Result<RunData, Failure>) {
    let f = kernel_fn(kernel);
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Dsm::try_run(DsmConfig::new(nprocs), move |p| f(p, &cfg, variant))
    }));
    let host_ns = start.elapsed().as_nanos() as u64;
    let data = match outcome {
        Err(_) => Err(Failure::Panic),
        Ok(Err(_)) => Err(Failure::DsmError),
        Ok(Ok(run)) => Ok(RunData {
            clocks_ns: run.elapsed.iter().map(|t| t.as_nanos()).collect(),
            stats: run.stats.total(),
            reactors: run.reactors,
            bits: run.results,
        }),
    };
    (host_ns, data)
}

/// Checks a run's per-processor checksums against the reference's.
pub fn verify(data: &RunData, reference: &[u64]) -> Result<(), Failure> {
    if data.bits == reference {
        Ok(())
    } else {
        Err(Failure::Mismatch)
    }
}

/// The checksums a strict majority of the reference `runs` agree on; a
/// failed run (`None`) agrees with nothing.
pub fn majority(runs: &[Option<Vec<u64>>]) -> Option<&Vec<u64>> {
    runs.iter()
        .flatten()
        .find(|bits| 2 * runs.iter().filter(|r| r.as_ref() == Some(*bits)).count() > runs.len())
}

/// Failures counted by class over attempted runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureCounts {
    /// Runs attempted.
    pub attempted: u64,
    /// Failed runs per class, in [`Failure::ALL`] order.
    pub by_class: [u64; 3],
}

impl FailureCounts {
    /// Counts one run's outcome.
    pub fn record<T>(&mut self, outcome: &Result<T, Failure>) {
        self.attempted += 1;
        if let Err(failure) = outcome {
            let i = Failure::ALL.iter().position(|f| f == failure).expect("every class is listed");
            self.by_class[i] += 1;
        }
    }

    /// Failed runs of every class.
    pub fn failed(&self) -> u64 {
        self.by_class.iter().sum()
    }

    /// Failed over attempted runs (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(bits: Vec<u64>) -> RunData {
        RunData {
            bits,
            clocks_ns: vec![5, 7],
            stats: StatsSnapshot::default(),
            reactors: Vec::new(),
        }
    }

    #[test]
    fn a_mismatching_checksum_counts_as_a_failed_run() {
        let reference = [1u64, 2];
        let mut counts = FailureCounts::default();
        let good = verify(&data(vec![1, 2]), &reference);
        let bad = verify(&data(vec![1, 3]), &reference);
        let short = verify(&data(vec![1]), &reference);
        assert_eq!(good, Ok(()));
        assert_eq!(bad, Err(Failure::Mismatch));
        assert_eq!(short, Err(Failure::Mismatch));
        for outcome in [&good, &bad, &short] {
            counts.record(outcome);
        }
        assert_eq!(counts.attempted, 3);
        assert_eq!(counts.failed(), 2);
        assert_eq!(counts.by_class, [2, 0, 0]);
        assert!((counts.fail_frac() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_real_run_verifies_against_its_reference_and_fails_against_another() {
        let cfg = GridConfig { rows: 8, cols: 9, iters: 2 };
        let (_, reference) = execute("jacobi", cfg, 2, Variant::TreadMarks);
        let reference = reference.expect("the reference run completes").bits;
        let (host_ns, run) = execute("jacobi", cfg, 2, Variant::Validate);
        let run = run.expect("the Validate run completes");
        assert!(host_ns > 0);
        assert_eq!(verify(&run, &reference), Ok(()), "Validate matches TreadMarks bit for bit");
        let mut wrong = reference.clone();
        wrong[1] ^= 1;
        assert_eq!(verify(&run, &wrong), Err(Failure::Mismatch));
    }

    #[test]
    fn a_panicking_run_is_caught_and_classed() {
        // One column per processor is below the kernels' legal minimum: the
        // kernel asserts, the processor closure panics, the run fails.
        let cfg = GridConfig { rows: 8, cols: 2, iters: 1 };
        let (_, outcome) = execute("sor", cfg, 2, Variant::TreadMarks);
        assert_eq!(outcome.map(|_| ()), Err(Failure::Panic));
    }

    #[test]
    fn the_reference_is_what_a_strict_majority_agrees_on() {
        let (a, b) = (Some(vec![1u64, 2]), Some(vec![1u64, 3]));
        assert_eq!(majority(&[a.clone(), b.clone(), a.clone()]), a.as_ref());
        assert_eq!(majority(&[a.clone(), None, a.clone()]), a.as_ref());
        assert_eq!(majority(&[a.clone(), b.clone()]), None);
        assert_eq!(majority(&[a.clone(), None]), None);
        assert_eq!(majority(&[None]), None);
        assert_eq!(majority(&[]), None);
    }

    #[test]
    fn the_virtual_time_is_the_maximum_clock() {
        assert_eq!(data(vec![]).virt_ns(), 7);
    }
}
