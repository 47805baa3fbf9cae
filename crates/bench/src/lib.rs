//! # dsm-bench — the benchmark harness
//!
//! Runs the application kernels of [`dsm_apps`] under the SP/2 cost model
//! in every protocol variant — including the **compiled** form whose call
//! sequence `rsdcomp::compile` generates from the loop-nest IR — at every
//! cluster size of the matrix (`nprocs` ∈ {2, 4, 8, 16}; the paper reports
//! 8 processors, 16 records the tree-vs-flat crossover). It collects the
//! `sp2model` statistics that the paper's tables are built from (page
//! faults, messages, bytes, lock acquisitions, virtual time), the fast-path
//! counters introduced with the software TLB, the split-phase counters,
//! and the compiler counters (`barriers_eliminated`, `merged_sync_msgs` —
//! eliminated boundaries and the merged data+sync acks that replaced
//! them), and renders them as deterministic JSON. `sor/validate` is
//! additionally recorded under the flat master-centric barrier
//! (`validate_flat`) so the tree-vs-flat crossover curve is in the data.
//!
//! The checked-in `BENCH_PR8.json` at the repository root is produced by
//! `cargo run -p dsm-bench` and consumed by `cargo run -p dsm-bench --
//! --check`, which re-runs the suite and fails if a gated record's model
//! time regresses by more than 10% — reporting **every** regressed gated
//! record before exiting non-zero, so a multi-record regression is
//! diagnosable from one CI log. `cargo run -p dsm-bench -- --explain
//! <app>` dumps the kernel's compiled plan (phase classifications, refusal
//! reasons, message counts) deterministically. (`BENCH_PR5.json` and
//! earlier are kept alongside as previous milestones' numbers; the PR5
//! gated records are additionally pinned bit-exactly against
//! `BENCH_PR5.json` by a test, so the new matrix rows cannot silently
//! shift the old ones.)
//!
//! `cargo run -p dsm-bench -- --scale` runs the wide-cluster matrix the
//! reactor pool makes affordable — all four kernels, validate + compiled,
//! at `nprocs` ∈ {32, 64, 128} — and writes `BENCH_PR9.json`;
//! `--scale --check` gates the barrier-kernel records at 64 processors
//! (byte-deterministic; the IS rows stay informational for the
//! lock-arrival reason below) and `--reactors N` forces the pool size,
//! which must not — and provably does not — change a single byte of any
//! record. The reactor counters (poll cycles, served-per-wakeup, peak
//! queue depth) are printed alongside but deliberately kept *out* of the
//! JSON: they are host-scheduling dependent.
//!
//! `cargo run -p dsm-bench -- --race <app>` runs every kernel/variant of
//! the matrix twice — race detector off and collecting — and writes the
//! overhead records to `BENCH_PR6.json`. Those records are informational
//! (never gated); what *is* enforced, by
//! `detector_off_is_free_and_collect_takes_no_new_table_locks`, is that
//! `RaceDetect::Off` costs exactly nothing on the gated records and that
//! `Collect` adds no page-table-lock acquisitions on the warm TLB path.
//!
//! The barrier-synchronized kernels are fully deterministic: the clocks
//! are *virtual* (message costs come from the cost model, not the host)
//! and the JSON renders records in a fixed order with fixed field order,
//! so their rows are byte-identical across runs. The lock-based IS rows
//! are the one exception — the lock manager grants in arrival order, so a
//! handful of diffs move between the grant piggyback and third-party
//! fetches from run to run, putting a few percent of jitter on their time
//! and message fields; the regression gate's 10% budget absorbs it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use dsm_apps::{
    gauss, gauss_program, is, is_program, jacobi, jacobi_program, sor, sor_program, GridConfig,
    Variant,
};
use pagedmem::Addr;
use rsdcomp::Program;
use sp2model::{CostModel, StatsSnapshot};
use treadmarks::{BarrierTopology, Dsm, DsmConfig, NetFaults, SharedArray, SharedMatrix};

/// The schema tag embedded in the JSON output.
pub const SCHEMA: &str = "dsm-bench/pr8";

/// The schema tag of the wide-cluster scale matrix (`--scale`).
pub const SCALE_SCHEMA: &str = "dsm-bench/pr9-scale";

/// Allowed model-time regression before the check mode fails, in percent.
pub const REGRESSION_LIMIT_PCT: f64 = 10.0;

/// The cluster sizes of the standard matrix (the paper reports 8
/// processors; 16 records the barrier-topology crossover at two columns
/// per processor).
pub const NPROCS_MATRIX: [usize; 4] = [2, 4, 8, 16];

/// The cluster sizes of the scale matrix: the reactor-pool refactor's
/// target range, far past the paper's 8-node SP/2. Every size runs on a
/// bounded host-thread pool (`nprocs + min(nprocs, cores) + 1` threads,
/// not `2·nprocs + 1`).
pub const SCALE_NPROCS: [usize; 3] = [32, 64, 128];

/// The variants the scale matrix records: the split-phase Validate path
/// and the compiler-generated plan. (The per-element checked baseline is
/// pure slow-path by construction and the hand-coded Push floor tracks
/// Compiled; neither adds information at wide sizes worth the run time.)
pub const SCALE_VARIANTS: [Variant; 2] = [Variant::Validate, Variant::Compiled];

/// The standard Jacobi size (page-aligned columns).
pub const JACOBI_CFG: GridConfig = GridConfig { rows: 512, cols: 32, iters: 4 };

/// The standard SOR size.
pub const SOR_CFG: GridConfig = GridConfig { rows: 512, cols: 32, iters: 3 };

/// The standard integer-sort size. `cols` must reach `2 * nprocs` at the
/// largest matrix point (16), and small enough that columns share pages, so
/// the lock-grant piggyback crosses false-sharing boundaries.
pub const IS_CFG: GridConfig = GridConfig { rows: 64, cols: 32, iters: 3 };

/// The standard Gaussian-elimination size (`iters` elimination steps, each
/// with an iteration-dependent pivot broadcast).
pub const GAUSS_CFG: GridConfig = GridConfig { rows: 64, cols: 32, iters: 6 };

/// The scale-matrix Jacobi size: 256 columns so the widest point (128
/// processors) still gets the kernels' required two columns per processor.
pub const SCALE_JACOBI_CFG: GridConfig = GridConfig { rows: 64, cols: 256, iters: 2 };

/// The scale-matrix SOR size.
pub const SCALE_SOR_CFG: GridConfig = GridConfig { rows: 64, cols: 256, iters: 2 };

/// The scale-matrix integer-sort size (few rows: the lock-based exchange
/// is per-column and dominates).
pub const SCALE_IS_CFG: GridConfig = GridConfig { rows: 8, cols: 256, iters: 2 };

/// The scale-matrix Gaussian-elimination size (`iters` must stay below
/// both dimensions).
pub const SCALE_GAUSS_CFG: GridConfig = GridConfig { rows: 32, cols: 256, iters: 4 };

/// The scale-matrix size for `app`.
pub fn scale_cfg(app: &str) -> GridConfig {
    match app {
        "jacobi" => SCALE_JACOBI_CFG,
        "sor" => SCALE_SOR_CFG,
        "is" => SCALE_IS_CFG,
        "gauss" => SCALE_GAUSS_CFG,
        other => panic!("unknown kernel {other:?}"),
    }
}

/// The `(app, variant, nprocs)` records gated by `--check`: the fully
/// analyzable push floor and the split-phase barrier-bound Validate path at
/// the historical 4 processors, the 8-processor Validate record that rides
/// on the tree-structured barrier, the 8-processor compiled SOR record —
/// the generated plan whose eliminated half-sweep barrier must keep it
/// between the Validate ceiling and the hand-coded push floor — and the
/// 8-processor compiled records of the two PR8 kernels: IS (the merged
/// lock-grant+data path) and Gauss (the iteration-dependent pivot pushes).
pub const GATED: [(&str, &str, usize); 6] = [
    ("jacobi", "push", 4),
    ("sor", "validate", 4),
    ("sor", "validate", 8),
    ("sor", "compiled", 8),
    ("is", "compiled", 8),
    ("gauss", "compiled", 8),
];

/// The scale-matrix records gated by `--scale --check` against
/// `BENCH_PR9.json`, all at the 64-processor midpoint. These six are the
/// barrier-synchronized kernels, whose records are byte-deterministic
/// across reruns (a test enforces exactly that); the lock-based IS rows
/// carry the usual lock-grant arrival jitter and stay informational.
pub const SCALE_GATED: [(&str, &str, usize); 6] = [
    ("jacobi", "validate", 64),
    ("jacobi", "compiled", 64),
    ("sor", "validate", 64),
    ("sor", "compiled", 64),
    ("gauss", "validate", 64),
    ("gauss", "compiled", 64),
];

/// The kernel entry points keyed by name. The float kernels return the
/// per-processor residual checksum as `f64`; the integer kernels return a
/// `u64` mix — one dispatch table so every suite covers both shapes.
enum AppFn {
    /// A float-checksum kernel (`jacobi`, `sor`).
    F64(fn(&mut treadmarks::Process, &GridConfig, Variant) -> f64),
    /// An integer-checksum kernel (`is`, `gauss`).
    U64(fn(&mut treadmarks::Process, &GridConfig, Variant) -> u64),
}

fn app_fn(app: &str) -> AppFn {
    match app {
        "jacobi" => AppFn::F64(jacobi),
        "sor" => AppFn::F64(sor),
        "is" => AppFn::U64(is),
        "gauss" => AppFn::U64(gauss),
        other => panic!("unknown kernel {other:?}"),
    }
}

/// One kernel execution reduced to what the suites record: the summed
/// statistics, the model time, the per-processor checksums as bits (so
/// float and integer kernels compare the same way) and the race-report
/// count.
struct KernelRun {
    total: StatsSnapshot,
    time_ns: u64,
    result_bits: Vec<u64>,
    races: u64,
}

fn run_kernel(app: &str, cfg: GridConfig, config: DsmConfig, variant: Variant) -> KernelRun {
    match app_fn(app) {
        AppFn::F64(kernel) => {
            let run = Dsm::run(config, move |p| kernel(p, &cfg, variant));
            KernelRun {
                total: run.stats.total(),
                time_ns: run.execution_time().as_nanos(),
                result_bits: run.results.iter().map(|s| s.to_bits()).collect(),
                races: run.races.len() as u64,
            }
        }
        AppFn::U64(kernel) => {
            let run = Dsm::run(config, move |p| kernel(p, &cfg, variant));
            KernelRun {
                total: run.stats.total(),
                time_ns: run.execution_time().as_nanos(),
                result_bits: run.results.clone(),
                races: run.races.len() as u64,
            }
        }
    }
}

/// The standard size for `app` (the one the suites and `--explain` use).
pub fn standard_cfg(app: &str) -> GridConfig {
    match app {
        "jacobi" => JACOBI_CFG,
        "sor" => SOR_CFG,
        "is" => IS_CFG,
        "gauss" => GAUSS_CFG,
        other => panic!("unknown kernel {other:?}"),
    }
}

/// Every kernel of the suite, in the fixed record order.
pub const APPS: [&str; 4] = ["jacobi", "sor", "is", "gauss"];

/// One benchmark run: a kernel, a variant, its size, and what it measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// Kernel name (`"jacobi"`, `"sor"`).
    pub app: &'static str,
    /// Variant name (`"treadmarks"`, `"validate"`, `"push"`).
    pub variant: &'static str,
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Iterations.
    pub iters: usize,
    /// Model execution time (maximum final virtual clock), in nanoseconds.
    pub time_ns: u64,
    /// Global page-table-lock acquisitions across all nodes.
    pub table_lock_acquires: u64,
    /// Accesses served by the software TLB without the table lock.
    pub tlb_hits: u64,
    /// Accesses that took the table-locked slow path.
    pub tlb_misses: u64,
    /// Page faults ("segv") taken by the checked access path.
    pub page_faults: u64,
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Application lock acquisitions.
    pub lock_acquires: u64,
    /// Virtual nanoseconds split-phase completions actually stalled waiting
    /// for sync responses — overlapped computation drives this toward zero,
    /// which is the split-phase win made directly visible.
    pub sync_wait_ns: u64,
    /// Split-phase `Validate_w_sync` issue halves.
    pub split_phase_issues: u64,
    /// Split-phase completion halves.
    pub split_phase_completes: u64,
    /// Phase boundaries where the compiled plan replaced a barrier with a
    /// point-to-point neighbour sync, summed over processors.
    pub barriers_eliminated: u64,
    /// Merged data+sync messages sent (neighbour-sync acks carrying write
    /// notices, timestamps and diffs together).
    pub merged_sync_msgs: u64,
}

/// Runs one kernel/variant combination under the given barrier topology
/// and collects its record under the given variant name (used to record
/// the same protocol under two topologies, e.g. `validate_flat`).
/// `reactors` pins the protocol-reactor pool; `None` is the default
/// one-per-core pool. The records are bit-identical either way (the pool
/// size is host-side scheduling only) — the pin exists so `--reactors N`
/// can exercise a specific multiplexing degree.
pub fn run_case_pooled(
    app: &'static str,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
    variant_name: &'static str,
    barrier: BarrierTopology,
    reactors: Option<usize>,
) -> BenchRecord {
    let mut config = DsmConfig::new(nprocs).with_cost_model(CostModel::sp2()).with_barrier(barrier);
    if let Some(n) = reactors {
        config = config.with_reactors(n);
    }
    let run = run_kernel(app, cfg, config, variant);
    let t = run.total;
    BenchRecord {
        app,
        variant: variant_name,
        nprocs,
        rows: cfg.rows,
        cols: cfg.cols,
        iters: cfg.iters,
        time_ns: run.time_ns,
        table_lock_acquires: t.table_lock_acquires,
        tlb_hits: t.tlb_hits,
        tlb_misses: t.tlb_misses,
        page_faults: t.page_faults,
        messages: t.messages_sent,
        bytes: t.bytes_sent,
        lock_acquires: t.lock_acquires,
        sync_wait_ns: t.sync_wait_ns,
        split_phase_issues: t.split_phase_issues,
        split_phase_completes: t.split_phase_completes,
        barriers_eliminated: t.barriers_eliminated,
        merged_sync_msgs: t.merged_sync_msgs,
    }
}

/// [`run_case_pooled`] with the default reactor pool.
pub fn run_case_named(
    app: &'static str,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
    variant_name: &'static str,
    barrier: BarrierTopology,
) -> BenchRecord {
    run_case_pooled(app, cfg, nprocs, variant, variant_name, barrier, None)
}

/// Runs one kernel/variant combination under the given barrier topology.
pub fn run_case_with_barrier(
    app: &'static str,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
    barrier: BarrierTopology,
) -> BenchRecord {
    run_case_named(app, cfg, nprocs, variant, variant.name(), barrier)
}

/// Runs one kernel/variant combination with the default (adaptive-arity
/// tree) barrier.
pub fn run_case(
    app: &'static str,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
) -> BenchRecord {
    run_case_with_barrier(app, cfg, nprocs, variant, BarrierTopology::default())
}

/// The standard suite: all four kernels, all four variants, at the smoke
/// sizes used by CI across the `nprocs` matrix — plus the
/// `sor/validate_flat` rows (the same protocol under the stock
/// master-centric barrier) that record the tree-vs-flat crossover curve.
pub fn suite() -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for app in APPS {
        let cfg = standard_cfg(app);
        for &nprocs in &NPROCS_MATRIX {
            for variant in Variant::ALL {
                records.push(run_case(app, cfg, nprocs, variant));
            }
        }
    }
    for &nprocs in &NPROCS_MATRIX {
        records.push(run_case_named(
            "sor",
            SOR_CFG,
            nprocs,
            Variant::Validate,
            "validate_flat",
            BarrierTopology::FlatMaster,
        ));
    }
    records
}

/// The scale suite: all four kernels in the Validate and Compiled variants
/// at `nprocs` ∈ {32, 64, 128} on wide grids (256 columns). `reactors`
/// pins the protocol-reactor pool for every run (`None` = one per core);
/// the records are bit-identical for any pool size.
pub fn scale_suite(reactors: Option<usize>) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for app in APPS {
        let cfg = scale_cfg(app);
        for &nprocs in &SCALE_NPROCS {
            for variant in SCALE_VARIANTS {
                records.push(run_case_pooled(
                    app,
                    cfg,
                    nprocs,
                    variant,
                    variant.name(),
                    BarrierTopology::default(),
                    reactors,
                ));
            }
        }
    }
    records
}

/// Runs one wide Jacobi/Validate case and returns the per-reactor
/// statistics of its pool — what `--scale` prints as the reactor summary.
/// The counters are host-scheduling dependent (poll sweeps, doorbell
/// wakeups, peak backlog) and deliberately never part of any JSON record.
pub fn probe_reactor_pool(
    nprocs: usize,
    reactors: Option<usize>,
) -> Vec<sp2model::ReactorSnapshot> {
    let mut config = DsmConfig::new(nprocs).with_cost_model(CostModel::sp2());
    if let Some(n) = reactors {
        config = config.with_reactors(n);
    }
    let cfg = SCALE_JACOBI_CFG;
    let run = Dsm::run(config, move |p| dsm_apps::jacobi(p, &cfg, Variant::Validate));
    run.reactors
}

/// One detector-overhead measurement: the same kernel/variant/size run
/// twice, with `RaceDetect::Off` and `RaceDetect::Collect`, under the SP/2
/// cost model. Informational only — never gated (the detector is a debug
/// mode; what *is* enforced, by the protocol tests, is that `Off` costs
/// exactly nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceBenchRecord {
    /// Kernel name (`"jacobi"`, `"sor"`).
    pub app: &'static str,
    /// Variant name.
    pub variant: &'static str,
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Iterations.
    pub iters: usize,
    /// Model execution time with the detector off, in nanoseconds.
    pub time_ns_off: u64,
    /// Model execution time with the detector collecting, in nanoseconds.
    pub time_ns_on: u64,
    /// Detector overhead in hundredths of a percent (the JSON stays
    /// float-free): `(on - off) / off * 10_000`.
    pub overhead_centipct: u64,
    /// Payload bytes sent with the detector off.
    pub bytes_off: u64,
    /// Payload bytes sent with the detector on (creating timestamps ride
    /// the diff records).
    pub bytes_on: u64,
    /// Race reports collected (zero for every analyzer-accepted kernel).
    pub races: u64,
}

/// Runs one kernel/variant combination twice — detector off and detector
/// collecting — and records the overhead.
pub fn run_race_case(
    app: &'static str,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
) -> RaceBenchRecord {
    let run_with = |detect: treadmarks::RaceDetect| {
        let config =
            DsmConfig::new(nprocs).with_cost_model(CostModel::sp2()).with_race_detect(detect);
        run_kernel(app, cfg, config, variant)
    };
    let off = run_with(treadmarks::RaceDetect::Off);
    let on = run_with(treadmarks::RaceDetect::Collect);
    let overhead_centipct =
        (on.time_ns.saturating_sub(off.time_ns) * 10_000).checked_div(off.time_ns).unwrap_or(0);
    RaceBenchRecord {
        app,
        variant: variant.name(),
        nprocs,
        rows: cfg.rows,
        cols: cfg.cols,
        iters: cfg.iters,
        time_ns_off: off.time_ns,
        time_ns_on: on.time_ns,
        overhead_centipct,
        bytes_off: off.total.bytes_sent,
        bytes_on: on.total.bytes_sent,
        races: on.races,
    }
}

/// The detector-overhead suite for one kernel (or `"all"`): every variant
/// across the `nprocs` matrix at the standard suite sizes.
pub fn race_suite(app: &str) -> Vec<RaceBenchRecord> {
    let mut records = Vec::new();
    for name in APPS {
        if app != "all" && app != name {
            continue;
        }
        for &nprocs in &NPROCS_MATRIX {
            for variant in Variant::ALL {
                records.push(run_race_case(name, standard_cfg(name), nprocs, variant));
            }
        }
    }
    records
}

/// Renders detector-overhead records as deterministic JSON (fixed field
/// order, one record per line, no floats) under the `dsm-bench/pr6-race`
/// schema. These records are informational: the regression gate never
/// reads this file.
pub fn render_race_json(records: &[RaceBenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"dsm-bench/pr6-race\",\n");
    out.push_str("  \"gated\": false,\n");
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"app\":\"{}\",\"variant\":\"{}\",\"nprocs\":{},\"rows\":{},\"cols\":{},\
             \"iters\":{},\"time_ns_off\":{},\"time_ns_on\":{},\"overhead_centipct\":{},\
             \"bytes_off\":{},\"bytes_on\":{},\"races\":{}}}{comma}\n",
            r.app,
            r.variant,
            r.nprocs,
            r.rows,
            r.cols,
            r.iters,
            r.time_ns_off,
            r.time_ns_on,
            r.overhead_centipct,
            r.bytes_off,
            r.bytes_on,
            r.races,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The seeded fault schedules the chaos suite runs every case under (three
/// distinct seeds, drops/duplicates/delays/reorders all enabled — see
/// [`NetFaults::chaos`]).
pub const CHAOS_SEEDS: [u64; 3] = [11, 23, 47];

/// One chaos measurement: a kernel/variant/size run fault-free and under
/// one seeded fault schedule, with the injected-fault counts and the
/// checksum comparison. Informational only — never gated (what *is*
/// enforced, by the chaos tests, is `checksums_match` and zero races).
///
/// Only sender-side fault counters appear here: they are a pure function of
/// the schedule and the deterministic virtual-time send sequence, so two
/// runs of the suite render byte-identically. The receiver-side
/// `net_dup_drops` counter trails real-time delivery order and is
/// deliberately excluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosBenchRecord {
    /// Kernel name (`"jacobi"`, `"sor"`).
    pub app: &'static str,
    /// Variant name.
    pub variant: &'static str,
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Iterations.
    pub iters: usize,
    /// Seed of the fault schedule this record ran under.
    pub seed: u64,
    /// Model execution time of the fault-free run, in nanoseconds.
    pub time_ns_clean: u64,
    /// Model execution time under the fault schedule, in nanoseconds.
    pub time_ns_chaos: u64,
    /// Retransmissions the schedule forced (dropped attempts).
    pub retransmits: u64,
    /// Messages duplicated in flight.
    pub dups: u64,
    /// Messages delivered behind later same-link traffic.
    pub reorders: u64,
    /// Messages that suffered injected link delay.
    pub delays: u64,
    /// Total virtual nanoseconds of injected latency (retransmission
    /// timeouts plus link delay).
    pub added_delay_ns: u64,
    /// Whether every per-processor checksum was bit-identical to the
    /// fault-free run (the reliable-delivery layer's whole claim).
    pub checksums_match: bool,
    /// Race reports collected under the schedule (must stay zero).
    pub races: u64,
}

/// Runs one kernel/variant combination fault-free once and then under each
/// seeded chaos schedule, comparing checksums bit-for-bit. The race
/// detector collects in every run so a fault-induced ordering bug would
/// surface both as a checksum mismatch and as a race report.
pub fn run_chaos_cases(
    app: &'static str,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
    seeds: &[u64],
) -> Vec<ChaosBenchRecord> {
    let run_with = |faults: Option<NetFaults>| {
        let config = DsmConfig::new(nprocs)
            .with_cost_model(CostModel::sp2())
            .with_race_detect(treadmarks::RaceDetect::Collect)
            .with_net_faults(faults);
        run_kernel(app, cfg, config, variant)
    };
    let clean = run_with(None);
    seeds
        .iter()
        .map(|&seed| {
            let chaos = run_with(Some(NetFaults::chaos(seed)));
            let t = &chaos.total;
            ChaosBenchRecord {
                app,
                variant: variant.name(),
                nprocs,
                rows: cfg.rows,
                cols: cfg.cols,
                iters: cfg.iters,
                seed,
                time_ns_clean: clean.time_ns,
                time_ns_chaos: chaos.time_ns,
                retransmits: t.net_retransmits,
                dups: t.net_dups,
                reorders: t.net_reorders,
                delays: t.net_delays,
                added_delay_ns: t.net_added_delay_ns,
                checksums_match: chaos.result_bits == clean.result_bits,
                races: chaos.races,
            }
        })
        .collect()
}

/// The chaos suite for one kernel (or `"all"`): every variant at
/// `nprocs` ∈ {2, 4, 8} under each [`CHAOS_SEEDS`] schedule, at the
/// standard suite sizes.
pub fn chaos_suite(app: &str) -> Vec<ChaosBenchRecord> {
    let mut records = Vec::new();
    for name in APPS {
        if app != "all" && app != name {
            continue;
        }
        for nprocs in [2, 4, 8] {
            for variant in Variant::ALL {
                records.extend(run_chaos_cases(
                    name,
                    standard_cfg(name),
                    nprocs,
                    variant,
                    &CHAOS_SEEDS,
                ));
            }
        }
    }
    records
}

/// Renders chaos records as deterministic JSON (fixed field order, one
/// record per line, no floats) under the `dsm-bench/pr7-chaos` schema.
/// These records are informational: the regression gate never reads this
/// file.
pub fn render_chaos_json(records: &[ChaosBenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"dsm-bench/pr7-chaos\",\n");
    out.push_str("  \"gated\": false,\n");
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"app\":\"{}\",\"variant\":\"{}\",\"nprocs\":{},\"rows\":{},\"cols\":{},\
             \"iters\":{},\"seed\":{},\"time_ns_clean\":{},\"time_ns_chaos\":{},\
             \"retransmits\":{},\"dups\":{},\"reorders\":{},\"delays\":{},\
             \"added_delay_ns\":{},\"checksums_match\":{},\"races\":{}}}{comma}\n",
            r.app,
            r.variant,
            r.nprocs,
            r.rows,
            r.cols,
            r.iters,
            r.seed,
            r.time_ns_clean,
            r.time_ns_chaos,
            r.retransmits,
            r.dups,
            r.reorders,
            r.delays,
            r.added_delay_ns,
            r.checksums_match,
            r.races,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The chaos suite's pass/fail summary: `Err` (with one line per offending
/// record) when any record's checksums diverged from the fault-free run or
/// any race was reported — the `--chaos` CLI exits non-zero on it.
///
/// # Errors
///
/// Returns `Err` when any record has `checksums_match == false` or
/// `races > 0`.
pub fn check_chaos(records: &[ChaosBenchRecord]) -> Result<(), String> {
    let failures: Vec<String> = records
        .iter()
        .filter(|r| !r.checksums_match || r.races > 0)
        .map(|r| {
            format!(
                "{}/{}@{} seed {}: checksums_match={}, races={}",
                r.app, r.variant, r.nprocs, r.seed, r.checksums_match, r.races
            )
        })
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// `app`'s program at `cfg`, with the arrays laid out exactly as the SPMD
/// allocator lays them out (page-aligned, in allocation order, from the
/// heap base) — the key every processor of a compiled run builds. Pure.
/// Returns `None` for an unknown app name.
pub fn kernel_program(app: &str, cfg: &GridConfig) -> Option<Program> {
    let elems = cfg.rows * cfg.cols;
    let second = Addr::new(elems * 8).page_align_up();
    let f64s = |base| SharedMatrix::new(SharedArray::<f64>::new(base, elems), cfg.rows, cfg.cols);
    let u64s = |base| SharedMatrix::new(SharedArray::<u64>::new(base, elems), cfg.rows, cfg.cols);
    Some(match app {
        "jacobi" => jacobi_program(&f64s(Addr::ZERO), &f64s(second), cfg.iters),
        "sor" => sor_program(&f64s(Addr::ZERO), cfg.iters),
        "is" => is_program(&u64s(Addr::ZERO), &u64s(second), cfg.iters),
        "gauss" => gauss_program(&f64s(Addr::ZERO), &f64s(second), cfg.iters),
        _ => return None,
    })
}

/// The `--explain` dump for one kernel: builds the kernel's IR at the
/// standard suite size ([`kernel_program`]), compiles it for the paper's
/// 8 processors and renders the plan. Pure and deterministic. Returns
/// `None` for an unknown app name.
pub fn explain_app(app: &str) -> Option<String> {
    /// The paper's cluster size, used for every explain dump.
    const EXPLAIN_NPROCS: usize = 8;
    if !APPS.contains(&app) {
        return None;
    }
    let program = kernel_program(app, &standard_cfg(app))?;
    let kernel = rsdcomp::compile(&program, EXPLAIN_NPROCS);
    Some(rsdcomp::explain(&program, &kernel))
}

/// Renders records as deterministic JSON: fixed field order, one record per
/// line, no floats.
pub fn render_json(records: &[BenchRecord]) -> String {
    render_json_with_schema(SCHEMA, records)
}

/// Renders scale-matrix records under the [`SCALE_SCHEMA`] tag (the
/// `BENCH_PR9.json` format). Same line shape as [`render_json`], so
/// [`parse_baseline`] reads both.
pub fn render_scale_json(records: &[BenchRecord]) -> String {
    render_json_with_schema(SCALE_SCHEMA, records)
}

fn render_json_with_schema(schema: &str, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{schema}\",\n"));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"app\":\"{}\",\"variant\":\"{}\",\"nprocs\":{},\"rows\":{},\"cols\":{},\
             \"iters\":{},\"time_ns\":{},\"table_lock_acquires\":{},\"tlb_hits\":{},\
             \"tlb_misses\":{},\"page_faults\":{},\"messages\":{},\"bytes\":{},\
             \"lock_acquires\":{},\"sync_wait_ns\":{},\"split_phase_issues\":{},\
             \"split_phase_completes\":{},\"barriers_eliminated\":{},\
             \"merged_sync_msgs\":{}}}{comma}\n",
            r.app,
            r.variant,
            r.nprocs,
            r.rows,
            r.cols,
            r.iters,
            r.time_ns,
            r.table_lock_acquires,
            r.tlb_hits,
            r.tlb_misses,
            r.page_faults,
            r.messages,
            r.bytes,
            r.lock_acquires,
            r.sync_wait_ns,
            r.split_phase_issues,
            r.split_phase_completes,
            r.barriers_eliminated,
            r.merged_sync_msgs,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A record as recovered from a baseline JSON file (only the fields the
/// regression gate needs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineRecord {
    /// Kernel name.
    pub app: String,
    /// Variant name.
    pub variant: String,
    /// Number of simulated processors. Part of the record key: without it
    /// the gate compared against whichever `(app, variant)` record appeared
    /// first in the file once the matrix varied `nprocs`.
    pub nprocs: usize,
    /// Model execution time in nanoseconds.
    pub time_ns: u64,
}

fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn u64_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Recovers the baseline records from a JSON file written by
/// [`render_json`] (one record per line; no external JSON parser exists in
/// this offline workspace).
pub fn parse_baseline(json: &str) -> Vec<BaselineRecord> {
    json.lines()
        .filter_map(|line| {
            Some(BaselineRecord {
                app: str_field(line, "app")?,
                variant: str_field(line, "variant")?,
                nprocs: u64_field(line, "nprocs")? as usize,
                time_ns: u64_field(line, "time_ns")?,
            })
        })
        .collect()
}

/// The CI regression gate: compares the current suite against a baseline
/// file and reports per-record deltas. Records are matched by the full
/// `(app, variant, nprocs)` key.
///
/// # Errors
///
/// Returns `Err` when any [`GATED`] record's model time exceeds the
/// baseline by more than [`REGRESSION_LIMIT_PCT`], or when the baseline is
/// missing a gated record. **Every** regressed gated record is named in the
/// error (one line each) — the gate never bails on the first failure, so a
/// multi-record regression is diagnosable from a single CI log.
pub fn check_regression(
    current: &[BenchRecord],
    baseline_json: &str,
) -> Result<Vec<String>, String> {
    check_regression_against(current, baseline_json, &GATED)
}

/// The scale-matrix regression gate: [`check_regression`] with the
/// [`SCALE_GATED`] record set, run by `--scale --check` against
/// `BENCH_PR9.json`.
///
/// # Errors
///
/// As [`check_regression`], over the scale-gated records.
pub fn check_scale_regression(
    current: &[BenchRecord],
    baseline_json: &str,
) -> Result<Vec<String>, String> {
    check_regression_against(current, baseline_json, &SCALE_GATED)
}

fn check_regression_against(
    current: &[BenchRecord],
    baseline_json: &str,
    gated: &[(&str, &str, usize)],
) -> Result<Vec<String>, String> {
    let baseline = parse_baseline(baseline_json);
    let mut report = Vec::new();
    let mut failures = Vec::new();
    let mut gated_seen = 0;
    for cur in current {
        let Some(base) = baseline
            .iter()
            .find(|b| b.app == cur.app && b.variant == cur.variant && b.nprocs == cur.nprocs)
        else {
            report.push(format!(
                "{}/{}@{}: no baseline (new record)",
                cur.app, cur.variant, cur.nprocs
            ));
            continue;
        };
        let delta_pct = if base.time_ns == 0 {
            0.0
        } else {
            (cur.time_ns as f64 - base.time_ns as f64) / base.time_ns as f64 * 100.0
        };
        report.push(format!(
            "{}/{}@{}: {} -> {} ns ({:+.2}%)",
            cur.app, cur.variant, cur.nprocs, base.time_ns, cur.time_ns, delta_pct
        ));
        if gated.contains(&(cur.app, cur.variant, cur.nprocs)) {
            gated_seen += 1;
            if delta_pct > REGRESSION_LIMIT_PCT {
                failures.push(format!(
                    "{}/{}@{} model time regressed {delta_pct:+.2}% \
                     ({} -> {} ns), over the {REGRESSION_LIMIT_PCT}% limit",
                    cur.app, cur.variant, cur.nprocs, base.time_ns, cur.time_ns
                ));
            }
        }
    }
    if gated_seen < gated.len() {
        failures.push(format!(
            "baseline comparison saw only {gated_seen} of the {} gated records",
            gated.len()
        ));
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(app: &'static str, variant: Variant) -> BenchRecord {
        run_case(app, GridConfig { rows: 64, cols: 8, iters: 2 }, 4, variant)
    }

    fn line(app: &str, variant: &str, nprocs: usize, time_ns: u64) -> String {
        format!(
            "{{\"app\":\"{app}\",\"variant\":\"{variant}\",\"nprocs\":{nprocs},\
             \"time_ns\":{time_ns}}}\n"
        )
    }

    #[test]
    fn warm_path_takes_at_least_five_times_fewer_table_locks() {
        // The ISSUE acceptance criterion, self-enforced: the Validate and
        // Push forms of Jacobi must acquire the page-table lock at least 5x
        // less often than the per-element checked baseline, and finish in
        // less model time. Page-sized columns so the working set is a real
        // multi-page one (a one-page grid fits any cache and shows nothing).
        let cfg = GridConfig { rows: 512, cols: 16, iters: 2 };
        let tmk = run_case("jacobi", cfg, 4, Variant::TreadMarks);
        let val = run_case("jacobi", cfg, 4, Variant::Validate);
        let push = run_case("jacobi", cfg, 4, Variant::Push);
        assert!(
            tmk.table_lock_acquires >= 5 * val.table_lock_acquires,
            "Validate must cut table locks >=5x: {} vs {}",
            tmk.table_lock_acquires,
            val.table_lock_acquires
        );
        assert!(
            tmk.table_lock_acquires >= 5 * push.table_lock_acquires,
            "Push must cut table locks >=5x: {} vs {}",
            tmk.table_lock_acquires,
            push.table_lock_acquires
        );
        assert!(
            val.time_ns < tmk.time_ns,
            "Validate model time: {} vs {}",
            val.time_ns,
            tmk.time_ns
        );
        assert!(push.time_ns < val.time_ns, "Push model time: {} vs {}", push.time_ns, val.time_ns);
        assert!(val.tlb_hits > 0, "the optimized form must run on the TLB fast path");
    }

    #[test]
    fn records_render_deterministically() {
        let a = vec![tiny("jacobi", Variant::Push), tiny("sor", Variant::Validate)];
        let b = vec![tiny("jacobi", Variant::Push), tiny("sor", Variant::Validate)];
        assert_eq!(render_json(&a), render_json(&b), "two identical runs must render identically");
    }

    #[test]
    fn baseline_round_trips_through_the_renderer() {
        let records = vec![tiny("jacobi", Variant::TreadMarks), tiny("jacobi", Variant::Push)];
        let parsed = parse_baseline(&render_json(&records));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].app, "jacobi");
        assert_eq!(parsed[0].variant, "treadmarks");
        assert_eq!(parsed[0].nprocs, 4);
        assert_eq!(parsed[0].time_ns, records[0].time_ns);
        assert_eq!(parsed[1].time_ns, records[1].time_ns);
    }

    /// The gated records at unit-test sizes, with a matching baseline line
    /// for each — the shared scaffolding of the gate tests.
    fn gated_current() -> (Vec<BenchRecord>, String) {
        let small = GridConfig { rows: 64, cols: 16, iters: 2 };
        let int_small = GridConfig { rows: 16, cols: 18, iters: 2 };
        let current = vec![
            tiny("jacobi", Variant::Push),
            tiny("sor", Variant::Validate),
            run_case("sor", small, 8, Variant::Validate),
            run_case("sor", small, 8, Variant::Compiled),
            run_case("is", int_small, 8, Variant::Compiled),
            run_case("gauss", int_small, 8, Variant::Compiled),
        ];
        let baseline = line("jacobi", "push", 4, current[0].time_ns)
            + &line("sor", "validate", 4, current[1].time_ns)
            + &line("sor", "validate", 8, current[2].time_ns)
            + &line("sor", "compiled", 8, current[3].time_ns)
            + &line("is", "compiled", 8, current[4].time_ns)
            + &line("gauss", "compiled", 8, current[5].time_ns);
        (current, baseline)
    }

    #[test]
    fn regression_gate_fails_on_slowdowns_and_passes_in_budget() {
        let (current, same) = gated_current();
        // Baselines equal to current: within budget.
        assert!(check_regression(&current, &same).is_ok());
        // Any gated baseline much faster than current: gate trips.
        for fast in 0..current.len() {
            let mut doctored = current.clone();
            doctored[fast].time_ns *= 2;
            assert!(
                check_regression(&doctored, &same).is_err(),
                "gate must trip when record {fast} regresses"
            );
        }
        // Baseline missing a gated record: refuse to pass silently.
        let partial = line("jacobi", "push", 4, current[0].time_ns)
            + &line("sor", "validate", 4, current[1].time_ns);
        assert!(check_regression(&current, &partial).is_err());
        assert!(check_regression(&current, "{}").is_err());
    }

    #[test]
    fn gate_reports_every_regressed_record_before_failing() {
        // The satellite acceptance criterion: with several gated records
        // over budget at once, the error must name each of them — not bail
        // on the first — so one CI log diagnoses the whole regression.
        let (mut current, baseline) = gated_current();
        // Regress four of the six gated records.
        current[0].time_ns *= 2;
        current[2].time_ns *= 3;
        current[3].time_ns *= 4;
        current[4].time_ns *= 5;
        let err = check_regression(&current, &baseline).expect_err("gate must trip");
        for needle in ["jacobi/push@4", "sor/validate@8", "sor/compiled@8", "is/compiled@8"] {
            assert!(err.contains(needle), "error must name {needle}: {err}");
        }
        assert!(!err.contains("sor/validate@4 model time"), "in-budget records are not failures");
        assert!(!err.contains("gauss/compiled@8 model time"), "in-budget records are not failures");
        assert_eq!(err.lines().count(), 4, "one line per regressed record: {err}");
    }

    #[test]
    fn compiled_sor_lands_between_validate_and_push() {
        // The tentpole's measured claim, self-enforced at the standard
        // suite size and the paper's 8 processors: the generated plan —
        // which eliminates one half-sweep barrier per iteration and merges
        // the data with the surviving sync — must beat the split-phase
        // Validate path while the hand-coded all-push form stays the floor.
        let validate = run_case("sor", SOR_CFG, 8, Variant::Validate);
        let compiled = run_case("sor", SOR_CFG, 8, Variant::Compiled);
        let push = run_case("sor", SOR_CFG, 8, Variant::Push);
        assert!(
            compiled.time_ns < validate.time_ns,
            "sor/compiled@8 must be strictly faster than sor/validate@8: {} vs {} ns",
            compiled.time_ns,
            validate.time_ns
        );
        assert!(
            push.time_ns < compiled.time_ns,
            "the hand-coded push floor stays below the compiled form: {} vs {} ns",
            push.time_ns,
            compiled.time_ns
        );
        assert!(compiled.barriers_eliminated > 0, "the record must show eliminated barriers");
        assert!(compiled.merged_sync_msgs > 0, "the record must show merged data+sync messages");
    }

    #[test]
    fn explain_dumps_are_deterministic_and_cover_every_kernel() {
        // Golden bytes: the dumps are pure functions of the kernels' IR and
        // the compiler, so any change to either that alters a classification,
        // a neighbour set or a message count shows up here.
        let golden = [
            ("jacobi", include_str!("../golden/explain_jacobi.txt")),
            ("sor", include_str!("../golden/explain_sor.txt")),
            ("is", include_str!("../golden/explain_is.txt")),
            ("gauss", include_str!("../golden/explain_gauss.txt")),
        ];
        for (app, expected) in golden {
            assert_eq!(explain_app(app).expect("known kernel"), expected, "{app} explain dump");
        }
        assert!(explain_app("nope").is_none());
    }

    /// FNV-1a (64-bit) continued from `hash`: stable across toolchains,
    /// unlike `DefaultHasher`.
    fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn compiled_kernels_match_their_pinned_digests() {
        // Every field of every compiled kernel — boundary classes,
        // refusals, per-processor plans with the push regions and
        // neighbour sets the dependence pairs become — across cluster
        // sizes from 1 to 128 and, per size, an evenly and an unevenly
        // divided column count. The analysis may get cheaper; its output
        // may not change by a byte.
        const NPROCS: [usize; 10] = [1, 2, 3, 4, 5, 8, 16, 32, 64, 128];
        const PINNED: [(&str, u64); 4] = [
            ("jacobi", 0x0169_afa4_2170_2af0),
            ("sor", 0xe224_4ab8_b5da_c28f),
            ("is", 0xa80d_1e0c_ec86_5f22),
            ("gauss", 0xf3d3_692b_44dc_d9cd),
        ];
        let digests = PINNED.map(|(app, _)| {
            let base = scale_cfg(app);
            let mut digest = 0xcbf2_9ce4_8422_2325;
            for nprocs in NPROCS {
                let even = (2 * nprocs).max(32);
                let uneven = (even + 1..).find(|c| nprocs == 1 || c % nprocs != 0).expect("some");
                for cols in [even, uneven] {
                    let program =
                        kernel_program(app, &GridConfig { cols, ..base }).expect("kernel");
                    let dump = format!("{:?}", rsdcomp::compile(&program, nprocs));
                    digest = fnv1a(digest, dump.as_bytes());
                }
            }
            (app, digest)
        });
        assert_eq!(digests, PINNED, "compiled output changed");
    }

    #[test]
    fn baseline_keying_disambiguates_nprocs() {
        // Regression test for the ambiguous-baseline bug: with `nprocs` in
        // the matrix, keying by `(app, variant)` alone made the gate
        // compare against whichever matching record appeared *first* in the
        // baseline file. Here the first `sor/validate` line is a 2-processor
        // record with an absurdly fast time; under the old keying the
        // 4- and 8-processor comparisons both matched it and tripped the
        // gate. With `(app, variant, nprocs)` keying each record finds its
        // own line and the gate passes.
        let (current, tail) = gated_current();
        let baseline = line("sor", "validate", 2, 1) + &tail;
        let report = check_regression(&current, &baseline)
            .expect("per-nprocs keying must match the right record");
        assert!(
            report.iter().any(|l| l.contains("sor/validate@8")),
            "the 8-processor record must be compared: {report:?}"
        );
        // The converse direction: a genuinely regressed 8-processor record
        // must not hide behind a fast same-(app,variant) line at another
        // nprocs appearing first.
        let mut regressed = current.clone();
        regressed[2].time_ns = current[2].time_ns * 2;
        let generous_first = line("sor", "validate", 2, u64::MAX / 2) + &tail;
        assert!(
            check_regression(&regressed, &generous_first).is_err(),
            "a regression at 8 processors must not match the generous 2-processor line"
        );
    }

    #[test]
    fn split_phase_barriers_hit_the_acceptance_targets() {
        // The ISSUE acceptance criteria, self-enforced at the standard
        // suite size: the split-phase SOR/Validate path must land below
        // 8 ms model time, every aggregate/optimized form must take fewer
        // than 100 global table-lock acquisitions per run at 4 processors,
        // and the split-phase counters must be surfaced in the record.
        let sor_cfg = GridConfig { rows: 512, cols: 32, iters: 3 };
        let jacobi_cfg = GridConfig { rows: 512, cols: 32, iters: 4 };
        let sor_val = run_case("sor", sor_cfg, 4, Variant::Validate);
        assert!(
            sor_val.time_ns < 8_000_000,
            "sor/validate must be under 8 ms: {} ns",
            sor_val.time_ns
        );
        assert!(sor_val.split_phase_issues > 0, "split-phase issues must be surfaced");
        assert_eq!(sor_val.split_phase_issues, sor_val.split_phase_completes);
        assert!(sor_val.sync_wait_ns > 0, "completion stall must be surfaced");
        for record in [
            run_case("jacobi", jacobi_cfg, 4, Variant::Validate),
            run_case("jacobi", jacobi_cfg, 4, Variant::Push),
            sor_val,
            run_case("sor", sor_cfg, 4, Variant::Push),
        ] {
            assert!(
                record.table_lock_acquires < 100,
                "{}/{} must take under 100 table locks: {}",
                record.app,
                record.variant,
                record.table_lock_acquires
            );
        }
    }

    #[test]
    fn detector_off_is_free_and_collect_takes_no_new_table_locks() {
        // The ISSUE acceptance criterion, self-enforced: with the detector
        // off, a gated record must be indistinguishable from a plain run —
        // same model time, same wire bytes — and turning Collect on must
        // not add a single page-table-lock acquisition on the warm TLB
        // path (detection reads twins and cached diffs under locks the
        // protocol already holds).
        let cfg = GridConfig { rows: 64, cols: 16, iters: 2 };
        let plain = run_case("sor", cfg, 8, Variant::Compiled);
        let race = run_race_case("sor", cfg, 8, Variant::Compiled);
        assert_eq!(race.time_ns_off, plain.time_ns, "Off must match the plain run's model time");
        assert_eq!(race.bytes_off, plain.bytes, "Off must match the plain run's wire bytes");
        assert_eq!(race.races, 0, "an analyzer-accepted kernel must run report-free");
        let run_with = |detect: treadmarks::RaceDetect| {
            let config =
                DsmConfig::new(8).with_cost_model(CostModel::sp2()).with_race_detect(detect);
            Dsm::run(config, move |p| sor(p, &cfg, Variant::Compiled))
        };
        let off = run_with(treadmarks::RaceDetect::Off);
        let on = run_with(treadmarks::RaceDetect::Collect);
        assert_eq!(
            on.stats.total().table_lock_acquires,
            off.stats.total().table_lock_acquires,
            "Collect must not acquire the page-table lock any additional time"
        );
        assert!(on.stats.total().tlb_hits > 0, "the compiled form stays on the TLB fast path");
    }

    #[test]
    fn race_records_render_deterministically() {
        let cfg = GridConfig { rows: 64, cols: 8, iters: 2 };
        let a = vec![run_race_case("jacobi", cfg, 4, Variant::Push)];
        let b = vec![run_race_case("jacobi", cfg, 4, Variant::Push)];
        assert_eq!(
            render_race_json(&a),
            render_race_json(&b),
            "two identical runs must render identically"
        );
        assert!(render_race_json(&a).contains("\"gated\": false"), "race records are never gated");
    }

    #[test]
    fn tree_barrier_beats_flat_at_eight_processors() {
        // The tentpole's measured claim: at the paper's 8 processors the
        // tree-structured barrier (arity 2) must beat the stock
        // master-centric exchange on the barrier-bound SOR/Validate path,
        // measured in the same run.
        let cfg = GridConfig { rows: 512, cols: 32, iters: 3 };
        let tree = run_case_with_barrier(
            "sor",
            cfg,
            8,
            Variant::Validate,
            BarrierTopology::Tree { arity: 2 },
        );
        let flat =
            run_case_with_barrier("sor", cfg, 8, Variant::Validate, BarrierTopology::FlatMaster);
        assert!(
            tree.time_ns < flat.time_ns,
            "tree barrier must beat the flat master at 8 procs: {} vs {} ns",
            tree.time_ns,
            flat.time_ns
        );
    }

    #[test]
    fn chaos_records_render_deterministically() {
        // The deterministic-rerun guarantee extended to the chaos output:
        // the record holds only sender-side fault counters (pure functions
        // of the seeded schedule), so two identical suite invocations must
        // render byte-identically.
        let cfg = GridConfig { rows: 64, cols: 8, iters: 2 };
        let a = run_chaos_cases("jacobi", cfg, 4, Variant::Push, &CHAOS_SEEDS);
        let b = run_chaos_cases("jacobi", cfg, 4, Variant::Push, &CHAOS_SEEDS);
        assert_eq!(
            render_chaos_json(&a),
            render_chaos_json(&b),
            "two identical runs must render identically"
        );
        assert!(
            render_chaos_json(&a).contains("\"gated\": false"),
            "chaos records are never gated"
        );
    }

    #[test]
    fn chaos_cases_inject_faults_and_stay_transparent() {
        // What the `--chaos` CLI enforces, self-enforced in miniature: the
        // schedules must not be vacuously clean, the checksums must survive
        // them bit-for-bit, and the injected latency must show up in the
        // modelled time.
        let cfg = GridConfig { rows: 64, cols: 8, iters: 2 };
        let records = run_chaos_cases("sor", cfg, 4, Variant::TreadMarks, &CHAOS_SEEDS);
        assert_eq!(records.len(), CHAOS_SEEDS.len());
        check_chaos(&records).expect("faults must be invisible to the application");
        let injected: u64 =
            records.iter().map(|r| r.retransmits + r.dups + r.reorders + r.delays).sum();
        assert!(injected > 0, "the schedules must actually inject faults");
        assert!(
            records.iter().any(|r| r.time_ns_chaos > r.time_ns_clean),
            "injected latency must be visible in the modelled time"
        );
        // And the failure direction: a doctored record must trip the check.
        let mut bad = records;
        bad[0].checksums_match = false;
        let err = check_chaos(&bad).expect_err("a checksum mismatch must fail the suite");
        assert!(err.contains("seed"), "the error names the offending schedule: {err}");
    }

    #[test]
    fn scale_gated_records_are_byte_deterministic_across_reruns() {
        // The PR9 acceptance criterion: the gated subset of the scale
        // matrix — the barrier-synchronized kernels at 64 processors —
        // must render byte-identically on a rerun. (The full file also
        // holds IS rows, whose lock-grant arrival jitter is exactly why
        // they are not in SCALE_GATED.)
        let gated_run = || -> Vec<BenchRecord> {
            SCALE_GATED
                .iter()
                .map(|&(app, variant_name, nprocs)| {
                    let variant = match variant_name {
                        "validate" => Variant::Validate,
                        "compiled" => Variant::Compiled,
                        other => panic!("unmapped variant {other:?}"),
                    };
                    run_case(app, scale_cfg(app), nprocs, variant)
                })
                .collect()
        };
        let a = render_scale_json(&gated_run());
        let b = render_scale_json(&gated_run());
        assert_eq!(a, b, "the gated scale records must reproduce byte-for-byte");
        assert!(a.contains(SCALE_SCHEMA), "the scale schema tag is embedded");
    }

    #[test]
    fn scale_records_are_identical_for_any_reactor_pool_size() {
        // The tentpole invariant at the bench layer: a 64-processor record
        // is bit-identical whether one reactor multiplexes all 64 nodes or
        // the pool is the host default.
        let single = run_case_pooled(
            "sor",
            SCALE_SOR_CFG,
            64,
            Variant::Compiled,
            "compiled",
            BarrierTopology::default(),
            Some(1),
        );
        let default_pool = run_case("sor", SCALE_SOR_CFG, 64, Variant::Compiled);
        assert_eq!(single, default_pool, "the pool size must be invisible in the record");
    }

    #[test]
    fn a_64_processor_case_runs_on_a_bounded_thread_budget() {
        // The satellite acceptance criterion: a default-config wide run
        // serves its protocol side from min(nprocs, cores) reactors — the
        // live thread count stays under the seed design's 2·nprocs, by a
        // margin of nearly nprocs (headroom for concurrent tests; see the
        // companion 128-processor test in `treadmarks`).
        let nprocs = 64;
        let threads_now = || -> usize {
            std::fs::read_to_string("/proc/self/status")
                .unwrap_or_default()
                .lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        let peak = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let peak_in_run = std::sync::Arc::clone(&peak);
        let cfg = SCALE_JACOBI_CFG;
        let run = Dsm::run(DsmConfig::new(nprocs).with_cost_model(CostModel::sp2()), move |p| {
            // Sample only after a barrier: every compute thread is
            // provably alive, so the count is the run's plateau, not a
            // spawn-ramp artefact.
            p.barrier();
            if p.proc_id() == 0 {
                peak_in_run.store(threads_now(), std::sync::atomic::Ordering::SeqCst);
            }
            dsm_apps::jacobi(p, &cfg, Variant::Validate)
        });
        let cores =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        assert_eq!(run.reactors.len(), cores.min(nprocs), "one reactor per core, capped");
        let served: u64 = run.reactors.iter().map(|r| r.served).sum();
        assert!(served > 0, "the pool served the run's protocol traffic");
        let peak = peak.load(std::sync::atomic::Ordering::SeqCst);
        assert!(peak >= nprocs, "the compute threads were live when sampled: {peak}");
        assert!(
            peak < 2 * nprocs,
            "{peak} live threads: the protocol side must not cost a thread per node"
        );
    }

    #[test]
    fn scale_gate_trips_on_regressions_and_requires_every_gated_record() {
        // Fabricated records (real 64-processor runs are tested above):
        // the scale gate must read the same line format, trip on a >10%
        // slowdown of any gated record and refuse a baseline that lacks
        // one.
        let current: Vec<BenchRecord> = SCALE_GATED
            .iter()
            .map(|&(app, variant, nprocs)| {
                let mut r = tiny("jacobi", Variant::Push);
                r.app = app;
                r.variant = variant;
                r.nprocs = nprocs;
                r.time_ns = 1_000_000;
                r
            })
            .collect();
        let baseline: String =
            current.iter().map(|r| line(r.app, r.variant, r.nprocs, r.time_ns)).collect();
        assert!(check_scale_regression(&current, &baseline).is_ok());
        let mut slow = current.clone();
        slow[3].time_ns *= 2;
        let err = check_scale_regression(&slow, &baseline).expect_err("gate must trip");
        assert!(err.contains("sor/compiled@64"), "the regressed record is named: {err}");
        let partial: String =
            current.iter().take(3).map(|r| line(r.app, r.variant, r.nprocs, r.time_ns)).collect();
        assert!(
            check_scale_regression(&current, &partial).is_err(),
            "a baseline missing gated records must not pass"
        );
        // The standard gate is untouched by the scale set: its six records
        // are still the PR5/PR8 ones.
        assert!(GATED.iter().all(|g| !SCALE_GATED.contains(g)), "the two gates are disjoint");
    }

    #[test]
    fn net_faults_off_is_bit_identical_to_the_checked_in_baseline() {
        // The PR7 acceptance criterion, cross-commit-enforced: with
        // faults Off (the default), gated records must reproduce a
        // checked-in baseline *exactly* — same model time, same wire
        // bytes, same table-lock count — proving the reliable-delivery
        // layer costs literally nothing when disabled. Any header byte,
        // extra lock, or timing nudge on the Off path breaks this.
        //
        // Which baseline depends on the record. The uncompiled PR5-era
        // records still match BENCH_PR5.json bit-for-bit. The compiled
        // records re-pin at BENCH_PR8.json: the lock-carrying boundary
        // work changed the compiled plans' merged data+sync wire format
        // (sor/compiled@8 sends 6168 fewer bytes than the PR5 encoding,
        // with every structural counter — messages, table locks, faults,
        // merged sync messages — unchanged). is/compiled is absent from
        // both lists because lock-grant arrival order jitters its wire
        // traffic run-to-run; its gate is the 10% regression budget.
        type Pinned = &'static [(&'static str, &'static str, usize)];
        const PR5_PINNED: Pinned =
            &[("jacobi", "push", 4), ("sor", "validate", 4), ("sor", "validate", 8)];
        const PR8_PINNED: Pinned = &[("sor", "compiled", 8), ("gauss", "compiled", 8)];
        let pins = [("BENCH_PR5.json", PR5_PINNED), ("BENCH_PR8.json", PR8_PINNED)];
        for (file, records) in pins {
            let baseline_json =
                std::fs::read_to_string(format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR")))
                    .unwrap_or_else(|err| panic!("the checked-in {file} baseline: {err}"));
            for &(app, variant_name, nprocs) in records {
                let variant = match variant_name {
                    "push" => Variant::Push,
                    "validate" => Variant::Validate,
                    "compiled" => Variant::Compiled,
                    other => panic!("unmapped variant {other:?}"),
                };
                let cur = run_case(app, standard_cfg(app), nprocs, variant);
                let line = baseline_json
                    .lines()
                    .find(|l| {
                        str_field(l, "app").as_deref() == Some(app)
                            && str_field(l, "variant").as_deref() == Some(variant_name)
                            && u64_field(l, "nprocs") == Some(nprocs as u64)
                    })
                    .unwrap_or_else(|| panic!("{file} line for {app}/{variant_name}@{nprocs}"));
                let key = format!("{app}/{variant_name}@{nprocs} vs {file}");
                assert_eq!(
                    Some(cur.time_ns),
                    u64_field(line, "time_ns"),
                    "{key}: faults-Off model time must equal the baseline exactly"
                );
                assert_eq!(
                    Some(cur.bytes),
                    u64_field(line, "bytes"),
                    "{key}: faults-Off wire bytes must equal the baseline exactly"
                );
                assert_eq!(
                    Some(cur.table_lock_acquires),
                    u64_field(line, "table_lock_acquires"),
                    "{key}: faults-Off table-lock count must equal the baseline exactly"
                );
            }
        }
    }
}
