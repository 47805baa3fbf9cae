//! The three workloads and the seeded input generator.
//!
//! Each workload runs the same four kernels in one protocol variant (IS
//! aside, see [`Workload::is_variant`]) at one cluster size, chosen so
//! that one layer of the system does most of the
//! work and the others little (see `NOTES.md` for the reasoning and the
//! table of which layer metric moves which end-to-end metric where).

use dsm_apps::{GridConfig, Variant};
use pagedmem::PAGE_SIZE;

/// The kernels of a pass, in their canonical (metric and reference) order.
pub const KERNELS: [&str; 4] = ["jacobi", "sor", "is", "gauss"];

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 1996;

/// One benchmark workload: every kernel in `variant` at `nprocs`, except
/// IS, which runs in `is_variant`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// The name the command line and the reports use.
    pub name: &'static str,
    /// The protocol form jacobi, sor and gauss run in.
    pub variant: Variant,
    /// The protocol form IS runs in. Plain-TreadMarks IS returns a wrong
    /// checksum now and then (a known defect, see `NOTES.md`), so a
    /// TreadMarks workload times IS in its Validate form, which keeps the
    /// baseline's lock and barrier structure.
    pub is_variant: Variant,
    /// Simulated processors.
    pub nprocs: usize,
    /// Whether the seed also trims rows (see [`Inputs::generate`]).
    pub trims_rows: bool,
    /// Why the workload exists: the layer it loads and the ones it bypasses.
    pub why: &'static str,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "wide-compiled",
        variant: Variant::Compiled,
        is_variant: Variant::Compiled,
        nprocs: 64,
        trims_rows: true,
        why: "every processor calls rsdcomp::compile, about half of host time; barriers nearly \
              absent, so the barrier fan-in layer is bypassed",
    },
    Workload {
        name: "wide-validate",
        variant: Variant::Validate,
        is_variant: Variant::Validate,
        nprocs: 64,
        trims_rows: true,
        why: "barrier fan-in, validate_w_sync and reactor-served request/reply traffic dominate; \
              rsdcomp is never called",
    },
    Workload {
        name: "paper-treadmarks",
        variant: Variant::TreadMarks,
        is_variant: Variant::Validate,
        nprocs: 8,
        trims_rows: false,
        why: "per-element access checks, page faults and twin/diff traffic at the paper's 8 \
              procs; rsdcomp bypassed, ctrt only in IS, which runs as Validate (plain-TreadMarks \
              IS has a known checksum defect)",
    },
];

impl Workload {
    /// The workload called `name`, if any.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The protocol form `kernel` runs in.
    pub fn variant_of(&self, kernel: &str) -> Variant {
        if kernel == "is" {
            self.is_variant
        } else {
            self.variant
        }
    }

    /// The grid of `kernel` before the seed varies it: the `scale_cfg`
    /// grids for the 64-processor workloads, larger grids at the paper's 8
    /// processors. There the float kernels use 512 rows, so a column is
    /// exactly one page; with 256 rows Gauss's two columns per page make
    /// its modelled time swing by a quarter between neighbouring column
    /// counts.
    pub fn base_cfg(&self, kernel: &str) -> GridConfig {
        if self.nprocs == 8 {
            match kernel {
                "jacobi" | "sor" => GridConfig { rows: 512, cols: 256, iters: 10 },
                "is" => GridConfig { rows: 64, cols: 256, iters: 4 },
                "gauss" => GridConfig { rows: 512, cols: 256, iters: 16 },
                other => panic!("unknown kernel {other:?}"),
            }
        } else {
            dsm_bench::scale_cfg(kernel)
        }
    }

    /// Calls of `rsdcomp::compile` one kernel run makes: every processor of
    /// a compiled kernel compiles the kernel's program once, no other
    /// variant compiles at all (the apps' documented contract; the
    /// separation tests check the run statistics agree).
    pub fn compiles_per_run(&self) -> u64 {
        if self.variant == Variant::Compiled {
            self.nprocs as u64
        } else {
            0
        }
    }
}

/// The seed's extra columns stay below this: at 64 processors, extra
/// columns up to `nprocs` would vary the amount of work, and with it host
/// time and set-up time, by up to a quarter between seeds. Below 16 they
/// vary it by under 5%.
pub const EXTRA_COLS_BELOW: usize = 16;

/// SplitMix64: a small, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// The generated inputs of one workload and seed: each kernel's grid and
/// the stream the pass orders are drawn from.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Per kernel (in [`KERNELS`] order), the grid the kernel receives.
    pub cfgs: [GridConfig; 4],
    rng: SplitMix64,
}

impl Inputs {
    /// Draws each kernel's grid from `seed`.
    ///
    /// The extra columns are odd and lie in `3..min(nprocs, 16)` (see
    /// [`EXTRA_COLS_BELOW`]), so the column
    /// blocks are always uneven (the remainder goes to the lowest-numbered
    /// processors) while every processor keeps at least two columns and
    /// the elimination steps stay below both dimensions. Within that class
    /// the modelled times move by well under a percent between seeds; an
    /// even count or a single extra column changes which blocks share
    /// pages and moves them by up to a quarter.
    ///
    /// At 64 processors the odd extra columns never change the widest
    /// block, and the compiled kernels' modelled time would not depend on
    /// the seed at all. There the seed also trims up to a sixteenth of the
    /// rows of the grids whose pages hold several columns. At 8 processors
    /// the rows stay as [`Workload::base_cfg`] gives them.
    pub fn generate(workload: &Workload, seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        let cfgs = KERNELS.map(|kernel| {
            let base = workload.base_cfg(kernel);
            let extra = 2 * rng.range(1, workload.nprocs.min(EXTRA_COLS_BELOW) / 2) + 1;
            let slack =
                if workload.trims_rows && base.rows * 8 < PAGE_SIZE { base.rows / 16 } else { 0 };
            let rows = base.rows - rng.range(0, slack + 1);
            GridConfig { rows, cols: base.cols + extra, iters: base.iters }
        });
        for cfg in &cfgs {
            assert!(cfg.cols >= 2 * workload.nprocs, "at least two columns per processor");
            assert!(cfg.iters < cfg.rows && cfg.iters < cfg.cols, "gauss steps below both sides");
        }
        Inputs { cfgs, rng }
    }

    /// The kernel order of the next pass (indices into [`KERNELS`]).
    pub fn next_pass_order(&mut self) -> [usize; 4] {
        let mut order = [0, 1, 2, 3];
        for i in (1..order.len()).rev() {
            let j = self.rng.range(0, i + 1);
            order.swap(i, j);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_orders() {
        for w in &WORKLOADS {
            let (mut a, mut b) = (Inputs::generate(w, 7), Inputs::generate(w, 7));
            assert_eq!(a.cfgs, b.cfgs);
            for _ in 0..16 {
                assert_eq!(a.next_pass_order(), b.next_pass_order());
            }
        }
    }

    #[test]
    fn extra_columns_make_uneven_blocks_within_the_legal_range() {
        for seed in 0..64 {
            for w in &WORKLOADS {
                let inputs = Inputs::generate(w, seed);
                for (kernel, cfg) in KERNELS.iter().zip(&inputs.cfgs) {
                    let base = w.base_cfg(kernel);
                    let extra = cfg.cols - base.cols;
                    let below = w.nprocs.min(EXTRA_COLS_BELOW);
                    assert!(extra % 2 == 1 && (3..below).contains(&extra));
                    assert_ne!(cfg.cols % w.nprocs, 0, "blocks are uneven");
                    assert!(cfg.rows <= base.rows && cfg.rows >= base.rows - base.rows / 16);
                    if !w.trims_rows || base.rows * 8 >= PAGE_SIZE {
                        assert_eq!(cfg.rows, base.rows);
                    }
                    assert_eq!(cfg.iters, base.iters);
                }
            }
        }
    }

    #[test]
    fn pass_orders_are_permutations_and_vary() {
        let mut inputs = Inputs::generate(&WORKLOADS[0], DEFAULT_SEED);
        let orders: Vec<[usize; 4]> = (0..32).map(|_| inputs.next_pass_order()).collect();
        for order in &orders {
            let mut sorted = *order;
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3]);
        }
        assert!(orders.iter().any(|o| o != &orders[0]), "the order depends on the stream");
    }
}
