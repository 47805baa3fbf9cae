//! # perfbench — end-to-end and per-layer benchmark of ctrt-dsm
//!
//! One thread runs one verified kernel run at a time: a closed loop with
//! one client. A *pass* runs each of the four kernels once, in a
//! seeded order; a run measures passes for a fixed number of seconds after
//! set-up. End-to-end metrics come from untraced runs. A traced run
//! additionally executes the layer probes, records spans around every call
//! into the program, and reports the per-layer metrics read from outside:
//! `DsmRun` statistics, clocks and reactor snapshots, plus direct timings of
//! the crates' public functions. See `NOTES.md` for the workloads and the
//! table of which layer metric should move which end-to-end metric.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod probes;
mod trace;
mod usage;
pub mod verify;
pub mod workload;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage with the 64-bit Linux layout");

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dsm_apps::Variant;
use pagedmem::PAGE_SIZE;
use sp2model::StatsSnapshot;

use trace::Recorder;
use verify::{Failure, FailureCounts, RunData};
use workload::{Inputs, Workload, KERNELS};

/// Set-ups per run; `setup_s` is the median of their CPU times.
const SETUPS: usize = 5;

/// The protocol form `kernel`'s reference runs in: plain TreadMarks,
/// except for IS. Plain-TreadMarks IS returns wrong checksums (the known
/// defect in `NOTES.md`): at 64 processors up to six runs in fifteen within
/// one benchmark run, so no majority of its runs is a safe reference. Its
/// Validate form agrees bit for bit with the Compiled form at every size
/// tried, and the apps' tests pin both against constants.
fn reference_variant(kernel: &str) -> Variant {
    if kernel == "is" {
        Variant::Validate
    } else {
        Variant::TreadMarks
    }
}

/// Percentiles `host_ms_tail` may report: the highest one with at least ten
/// passes beyond it.
const TAIL_LADDER: [f64; 8] = [99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0];

/// The end-to-end metrics an untraced run reports, with their units. Host
/// cost is gated as CPU time: on a shared host, CPU stolen by neighbours
/// moves wall-clock by up to 2x between runs and CPU time by under a
/// fifth. Wall-clock is reported beside it, ungated.
pub const END_TO_END: [(&str, &str); 8] = [
    ("virt_ms.jacobi", "ms"),
    ("virt_ms.sor", "ms"),
    ("virt_ms.is", "ms"),
    ("virt_ms.gauss", "ms"),
    ("host_cpu_ms_p50", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a traced run reports, with their units. Counts
/// are per pass (the median pass); times are host time unless named
/// virtual.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("rsdcomp.compile_us.jacobi", "us"),
    ("rsdcomp.compile_us.sor", "us"),
    ("rsdcomp.compile_us.is", "us"),
    ("rsdcomp.compile_us.gauss", "us"),
    ("rsdcomp.compiles", "count"),
    ("rsdcomp.compile_share_est", "ratio"),
    ("rsdcomp.plan_barriers", "count"),
    ("rsdcomp.plan_barriers_eliminated", "count"),
    ("rsdcomp.plan_msgs", "count"),
    ("ctrt.validates", "count"),
    ("ctrt.validate_w_syncs", "count"),
    ("ctrt.pushes", "count"),
    ("ctrt.neighbor_syncs", "count"),
    ("ctrt.merged_sync_msgs", "count"),
    ("ctrt.split_phase_issues", "count"),
    ("ctrt.sync_wait_ms", "virt_ms"),
    ("treadmarks.run_ms.jacobi", "ms"),
    ("treadmarks.run_ms.sor", "ms"),
    ("treadmarks.run_ms.is", "ms"),
    ("treadmarks.run_ms.gauss", "ms"),
    ("treadmarks.page_faults", "count"),
    ("treadmarks.twins", "count"),
    ("treadmarks.diffs_created", "count"),
    ("treadmarks.diffs_applied", "count"),
    ("treadmarks.write_notices", "count"),
    ("treadmarks.full_page_fetches", "count"),
    ("treadmarks.protection_ops", "count"),
    ("treadmarks.barriers", "count"),
    ("treadmarks.lock_acquires", "count"),
    ("treadmarks.gc_trimmed_diffs", "count"),
    ("treadmarks.tlb_hits", "count"),
    ("treadmarks.tlb_misses", "count"),
    ("treadmarks.tlb_hit_ratio", "ratio"),
    ("treadmarks.table_lock_acquires", "count"),
    ("treadmarks.reference_disagreements", "count"),
    ("treadmarks.reactor.polls", "count"),
    ("treadmarks.reactor.wakeups", "count"),
    ("treadmarks.reactor.served", "count"),
    ("treadmarks.reactor.served_per_poll", "ratio"),
    ("treadmarks.reactor.max_queue_depth", "count"),
    ("sp2model.clock_skew", "ratio"),
    ("sp2model.clock_min_ms", "virt_ms"),
    ("msgnet.messages", "count"),
    ("msgnet.kbytes", "KiB"),
    ("msgnet.broadcasts", "count"),
    ("msgnet.bytes_per_msg", "B"),
    ("msgnet.hop_ns", "ns"),
    ("pagedmem.check_access_ns", "ns"),
    ("pagedmem.diff_create_mbps", "MB/s"),
    ("pagedmem.diff_apply_mbps", "MB/s"),
    ("core.channel_hop_ns", "ns"),
    ("trace_overhead_pct", "%"),
    ("bench.self_ms.pass", "ms"),
    ("bench.self_ms.case", "ms"),
    ("bench.self_ms.try_run", "ms"),
    ("bench.self_ms.verify", "ms"),
    ("bench.traced_passes", "count"),
    ("host_ms_p50", "ms"),
    ("host_ms_tail", "ms"),
    ("setup_wall_s", "s"),
];

/// One timed kernel run.
#[derive(Debug, Clone)]
struct Case {
    /// Index into [`KERNELS`].
    pub kernel: usize,
    /// Host wall-clock of the `Dsm::try_run` call, in nanoseconds.
    pub host_ns: u64,
    /// The verified run, or why it failed.
    pub outcome: Result<RunData, Failure>,
}

/// One pass: every kernel once, in the order the seed drew.
#[derive(Debug, Clone)]
struct Pass {
    /// Host wall-clock of the whole pass (runs, verification, spans).
    pub host_ns: u64,
    /// Host CPU time of every thread of the process during the pass.
    pub cpu_ns: u64,
    /// Whether spans were recorded during the pass.
    pub traced: bool,
    /// The runs, in execution order.
    pub cases: Vec<Case>,
}

impl Pass {
    /// The verified run of kernel `k`, if it succeeded.
    pub fn run(&self, k: usize) -> Option<&RunData> {
        self.cases.iter().find(|c| c.kernel == k).and_then(|c| c.outcome.as_ref().ok())
    }

    /// The runs of all four kernels, in [`KERNELS`] order, when all of them
    /// succeeded.
    pub fn complete(&self) -> Option<[&RunData; 4]> {
        let runs = [self.run(0)?, self.run(1)?, self.run(2)?, self.run(3)?];
        Some(runs)
    }
}

/// A workload's benchmark state: the generated inputs and the references,
/// plus the span recorder.
#[derive(Debug)]
struct Bench {
    /// The workload being run.
    pub workload: &'static Workload,
    /// The generated grids and the pass-order stream.
    pub inputs: Inputs,
    /// Per kernel, every reference run's checksums (`None` when the run
    /// failed), one per set-up.
    pub reference_runs: [Vec<Option<Vec<u64>>>; 4],
    /// Per kernel, every plain-TreadMarks set-up run's checksums: the
    /// reference runs themselves, or for IS a plain-TreadMarks run beside
    /// each reference run.
    pub treadmarks_runs: [Vec<Option<Vec<u64>>>; 4],
    /// Per kernel, the checksums a strict majority of the reference runs
    /// agree on (empty while there is none).
    pub references: [Vec<u64>; 4],
    /// The span recorder.
    pub rec: Recorder,
    runs: u64,
}

impl Bench {
    /// A benchmark of `workload` with inputs from `seed`; call
    /// [`Bench::set_up`] before timing passes.
    pub fn new(workload: &'static Workload, seed: u64, trace: bool) -> Bench {
        Bench {
            workload,
            inputs: Inputs::generate(workload, seed),
            reference_runs: Default::default(),
            treadmarks_runs: Default::default(),
            references: Default::default(),
            rec: Recorder::new(trace),
            runs: 0,
        }
    }

    /// One set-up: generates the inputs from `seed`, runs each kernel's
    /// reference (see [`reference_variant`]), plain-TreadMarks IS, and a
    /// warm-up pass. Returns the set-up's host time in seconds.
    ///
    /// The reference is what a strict majority of the set-ups' reference
    /// runs agree on, so that one bad run cannot fail every verified run of
    /// its kernel. Plain-TreadMarks set-up runs that fail or disagree with
    /// the reference are reported, not counted as failed runs.
    pub fn set_up(&mut self, seed: u64) -> (f64, f64) {
        let (start, cpu) = (Instant::now(), usage::now().cpu_ns);
        let span = self.rec.enter("setup", self.workload.name);
        self.inputs = self.rec.scope("inputs", "", |_| Inputs::generate(self.workload, seed));
        for (k, kernel) in KERNELS.iter().enumerate() {
            let cfg = self.inputs.cfgs[k];
            let nprocs = self.workload.nprocs;
            let mut run = |variant| {
                let (_, outcome) = self
                    .rec
                    .scope("reference", kernel, |_| verify::execute(kernel, cfg, nprocs, variant));
                outcome.ok().map(|d| d.bits)
            };
            let reference = run(reference_variant(kernel));
            let treadmarks = match reference_variant(kernel) {
                Variant::TreadMarks => reference.clone(),
                _ => run(Variant::TreadMarks),
            };
            self.reference_runs[k].push(reference);
            self.treadmarks_runs[k].push(treadmarks);
            self.references[k] =
                verify::majority(&self.reference_runs[k]).cloned().unwrap_or_default();
        }
        let warm = self.rec.enter("warmup", "");
        self.pass();
        self.rec.exit(warm);
        self.rec.exit(span);
        (start.elapsed().as_secs_f64(), (usage::now().cpu_ns - cpu) as f64 / 1e9)
    }

    /// Per kernel, the plain-TreadMarks set-up runs that failed or disagree
    /// with the reference.
    pub fn reference_disagreements(&self) -> [usize; 4] {
        std::array::from_fn(|k| {
            let reference = &self.references[k];
            self.treadmarks_runs[k].iter().filter(|r| r.as_ref() != Some(reference)).count()
        })
    }

    /// Runs one pass: each kernel once, in the next seeded order, each run
    /// verified against its reference.
    pub fn pass(&mut self) -> Pass {
        let order = self.inputs.next_pass_order();
        let (start, cpu) = (Instant::now(), usage::now().cpu_ns);
        let span = self.rec.enter("pass", "");
        let cases = order.iter().map(|&k| self.case(k)).collect();
        self.rec.exit(span);
        let cpu_ns = usage::now().cpu_ns - cpu;
        let traced = self.rec.is_enabled();
        Pass { host_ns: start.elapsed().as_nanos() as u64, cpu_ns, traced, cases }
    }

    fn case(&mut self, k: usize) -> Case {
        let kernel = KERNELS[k];
        let (cfg, nprocs, variant) =
            (self.inputs.cfgs[k], self.workload.nprocs, self.workload.variant_of(kernel));
        self.runs += 1;
        self.rec.set_run(self.runs);
        let span = self.rec.enter("case", kernel);
        let (host_ns, outcome) =
            self.rec.scope("try_run", kernel, |_| verify::execute(kernel, cfg, nprocs, variant));
        let reference = &self.references[k];
        let outcome = self.rec.scope("verify", kernel, |_| {
            outcome.and_then(|d| verify::verify(&d, reference).map(|()| d))
        });
        self.rec.exit(span);
        self.rec.set_run(0);
        Case { kernel: k, host_ns, outcome }
    }
}

/// What one benchmark run asks for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// The input seed.
    pub seed: u64,
    /// How long to time passes after set-up.
    pub seconds: f64,
    /// Traced run: probes, spans and the per-layer metrics.
    pub trace: bool,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every timed run verified.
    pub correct: bool,
    /// Timed runs attempted and failed, by class.
    pub counts: FailureCounts,
    /// The reported metrics (`END_TO_END`, or `PER_LAYER` when traced),
    /// as `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The recorded spans as Chrome trace-event JSON (traced runs only).
    pub spans_json: Option<String>,
}

/// Runs a workload: set-up (timed `SETUPS` times), the probes when
/// traced, then passes for `seconds`. In a traced run every second pass
/// records spans, so `trace_overhead_pct` compares interleaved traced and
/// untraced passes.
pub fn run(opts: Options) -> Report {
    let mut bench = Bench::new(opts.workload, opts.seed, opts.trace);
    let span = bench.rec.enter("workload", opts.workload.name);
    let setups: Vec<(f64, f64)> = (0..SETUPS).map(|_| bench.set_up(opts.seed)).collect();
    let probes = opts.trace.then(|| run_probes(&mut bench));

    let timed_from = bench.rec.spans().len();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 2 || start.elapsed() < budget {
        let traced = opts.trace && passes.len() % 2 == 1;
        bench.rec.set_enabled(traced);
        passes.push(bench.pass());
    }
    bench.rec.set_enabled(opts.trace);
    bench.rec.exit(span);

    let mut counts = FailureCounts::default();
    for case in passes.iter().flat_map(|p| &p.cases) {
        counts.record(&case.outcome);
    }
    let mut notes = summary_notes(&bench, &passes, &setups, &counts);
    let mut values = match probes {
        None => end_to_end(&passes, &setups, &counts),
        Some(probes) => per_layer(&bench, &passes, timed_from, probes),
    };
    // Wall-clock, ungated: reported with the per-layer metrics, and printed
    // by name in every run.
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let wall = wall_clock(&untraced, &setups);
    for (name, value) in &wall {
        notes.push(format!("{name:<36} {value:>14.4} {} (wall-clock, ungated)", unit_of(name)));
    }
    if opts.trace {
        values.extend(wall);
    }
    let table: &[(&'static str, &'static str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(&'static str, f64, &'static str)> = table
        .iter()
        .map(|&(name, unit)| {
            let value = *values.get(name).unwrap_or_else(|| panic!("metric {name} not computed"));
            assert!(value.is_finite(), "metric {name} is {value}");
            (name, value, unit)
        })
        .collect();
    assert_eq!(metrics.len(), values.len(), "every computed metric is listed");
    for &(name, value, unit) in &metrics {
        notes.push(format!("{name:<36} {value:>14.4} {unit}"));
    }
    Report {
        correct: counts.failed() == 0,
        counts,
        metrics,
        notes,
        spans_json: opts.trace.then(|| bench.rec.chrome_json()),
    }
}

/// The median of `values` (0 for none).
fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The nearest-rank `p`th percentile of `values` (0 for none).
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, or the maximum (100) when there are fewer than twenty.
fn tail_percentile(samples: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| samples - (p / 100.0 * samples as f64).ceil() as usize >= 10)
        .unwrap_or(100.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The virtual times of kernel `k` over the passes where it succeeded.
fn virt_ms(passes: &[Pass], k: usize) -> Vec<f64> {
    passes.iter().filter_map(|p| p.run(k)).map(|r| ms(r.virt_ns())).collect()
}

/// The unit `name` is listed with.
fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(&PER_LAYER).find(|(n, _)| *n == name).expect("a listed metric").1
}

/// Wall-clock per pass (median and tail over `passes`) and per set-up.
fn wall_clock(passes: &[&Pass], setups: &[(f64, f64)]) -> Vec<(&'static str, f64)> {
    let host: Vec<f64> = passes.iter().map(|p| ms(p.host_ns)).collect();
    vec![
        ("host_ms_p50", median(&host)),
        ("host_ms_tail", percentile(&host, tail_percentile(host.len()))),
        ("setup_wall_s", median(&setups.iter().map(|s| s.0).collect::<Vec<_>>())),
    ]
}

fn end_to_end(
    passes: &[Pass],
    setups: &[(f64, f64)],
    counts: &FailureCounts,
) -> HashMap<&'static str, f64> {
    let mut m = HashMap::new();
    for (k, name) in VIRT_MS.into_iter().enumerate() {
        m.insert(name, median(&virt_ms(passes, k)));
    }
    m.insert("host_cpu_ms_p50", median(&passes.iter().map(|p| ms(p.cpu_ns)).collect::<Vec<_>>()));
    m.insert("ok_frac", 1.0 - counts.fail_frac());
    m.insert("setup_s", median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()));
    // Each workload runs in its own process, so the process's high-water
    // mark holds no other workload's peak.
    m.insert("peak_rss_mb", usage::now().max_rss_kib as f64 / 1024.0);
    m
}

/// The pages of the largest heap of the `paper-treadmarks` workload
/// (Jacobi's two grids at the widest seeded column count).
fn paper_heap_pages() -> usize {
    let w = Workload::by_name("paper-treadmarks").expect("a listed workload");
    let cfg = w.base_cfg("jacobi");
    2 * (cfg.rows * (cfg.cols + w.nprocs) * 8).div_ceil(PAGE_SIZE)
}

/// Per kernel (in [`KERNELS`] order), the metric names of the kernel's
/// modelled time, host run time and probed compile time.
const VIRT_MS: [&str; 4] = ["virt_ms.jacobi", "virt_ms.sor", "virt_ms.is", "virt_ms.gauss"];
const RUN_MS: [&str; 4] = [
    "treadmarks.run_ms.jacobi",
    "treadmarks.run_ms.sor",
    "treadmarks.run_ms.is",
    "treadmarks.run_ms.gauss",
];
const COMPILE_US: [&str; 4] = [
    "rsdcomp.compile_us.jacobi",
    "rsdcomp.compile_us.sor",
    "rsdcomp.compile_us.is",
    "rsdcomp.compile_us.gauss",
];

/// Runs the layer probes at the workload's grids and cluster size.
fn run_probes(bench: &mut Bench) -> HashMap<&'static str, f64> {
    let (w, cfgs) = (bench.workload, bench.inputs.cfgs);
    let rec = &mut bench.rec;
    let span = rec.enter("probes", "");
    let mut m = HashMap::new();
    let (mut barriers, mut eliminated, mut msgs) = (0, 0, 0);
    for (k, kernel) in KERNELS.iter().enumerate() {
        let (us, compiled) =
            rec.scope("probe", "rsdcomp::compile", |_| probes::compile(kernel, &cfgs[k], w.nprocs));
        m.insert(COMPILE_US[k], us);
        barriers += compiled.barriers();
        eliminated += compiled.barriers_eliminated();
        msgs += probes::plan_messages(&compiled);
    }
    m.insert("rsdcomp.plan_barriers", barriers as f64);
    m.insert("rsdcomp.plan_barriers_eliminated", eliminated as f64);
    m.insert("rsdcomp.plan_msgs", msgs as f64);
    m.insert("msgnet.hop_ns", rec.scope("probe", "msgnet::Endpoint", |_| probes::msgnet_hop_ns()));
    m.insert(
        "core.channel_hop_ns",
        rec.scope("probe", "dsm_core::channel", |_| probes::channel_hop_ns()),
    );
    m.insert(
        "pagedmem.check_access_ns",
        rec.scope("probe", "pagedmem::PageTable", |_| probes::check_access_ns(paper_heap_pages())),
    );
    let (create, apply) = rec.scope("probe", "pagedmem::Diff", |_| probes::diff_mbps());
    m.insert("pagedmem.diff_create_mbps", create);
    m.insert("pagedmem.diff_apply_mbps", apply);
    rec.exit(span);
    m
}

/// Statistics summed over a pass's four runs.
fn pass_stats(runs: &[&RunData; 4]) -> StatsSnapshot {
    runs.iter().fold(StatsSnapshot::default(), |acc, r| acc.merge(&r.stats))
}

fn per_layer(
    bench: &Bench,
    passes: &[Pass],
    timed_from: usize,
    mut m: HashMap<&'static str, f64>,
) -> HashMap<&'static str, f64> {
    let w = bench.workload;
    let complete: Vec<[&RunData; 4]> = passes.iter().filter_map(Pass::complete).collect();
    let per_pass = |f: &dyn Fn(&[&RunData; 4]) -> f64| -> f64 {
        median(&complete.iter().map(f).collect::<Vec<_>>())
    };
    let stat = |f: fn(&StatsSnapshot) -> u64| per_pass(&|runs| f(&pass_stats(runs)) as f64);
    let run_ms: Vec<f64> = (0..KERNELS.len())
        .map(|k| {
            let host: Vec<f64> = passes
                .iter()
                .flat_map(|p| &p.cases)
                .filter(|c| c.kernel == k && c.outcome.is_ok())
                .map(|c| ms(c.host_ns))
                .collect();
            median(&host)
        })
        .collect();

    // rsdcomp: the compiles a pass makes and their estimated share of host
    // time (each run's nprocs compiles spread over min(nprocs, cores)).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let compiles = w.compiles_per_run() as f64;
    let compile_busy_us: f64 =
        COMPILE_US.iter().map(|name| compiles * m[name] / w.nprocs.min(cores) as f64).sum();
    m.insert("rsdcomp.compiles", compiles * KERNELS.len() as f64);
    let run_us = run_ms.iter().sum::<f64>() * 1e3;
    m.insert(
        "rsdcomp.compile_share_est",
        if run_us > 0.0 { compile_busy_us / run_us } else { 0.0 },
    );

    // ctrt: the compiler-interface calls the runs made.
    m.insert("ctrt.validates", stat(|s| s.validates));
    m.insert("ctrt.validate_w_syncs", stat(|s| s.validate_w_syncs));
    m.insert("ctrt.pushes", stat(|s| s.pushes));
    m.insert("ctrt.neighbor_syncs", stat(|s| s.neighbor_syncs));
    m.insert("ctrt.merged_sync_msgs", stat(|s| s.merged_sync_msgs));
    m.insert("ctrt.split_phase_issues", stat(|s| s.split_phase_issues));
    m.insert("ctrt.sync_wait_ms", stat(|s| s.sync_wait_ns) / 1e6);

    // treadmarks: host time per run, protocol counters, the access path.
    for (name, host) in RUN_MS.into_iter().zip(run_ms) {
        m.insert(name, host);
    }
    m.insert("treadmarks.page_faults", stat(|s| s.page_faults));
    m.insert("treadmarks.twins", stat(|s| s.twins_created));
    m.insert("treadmarks.diffs_created", stat(|s| s.diffs_created));
    m.insert("treadmarks.diffs_applied", stat(|s| s.diffs_applied));
    m.insert("treadmarks.write_notices", stat(|s| s.write_notices));
    m.insert("treadmarks.full_page_fetches", stat(|s| s.full_page_fetches));
    m.insert("treadmarks.protection_ops", stat(|s| s.protection_ops));
    m.insert("treadmarks.barriers", stat(|s| s.barriers));
    m.insert("treadmarks.lock_acquires", stat(|s| s.lock_acquires));
    m.insert("treadmarks.gc_trimmed_diffs", stat(|s| s.gc_trimmed_diffs));
    m.insert("treadmarks.tlb_hits", stat(|s| s.tlb_hits));
    m.insert("treadmarks.tlb_misses", stat(|s| s.tlb_misses));
    m.insert(
        "treadmarks.tlb_hit_ratio",
        per_pass(&|runs| {
            let s = pass_stats(runs);
            s.tlb_hits as f64 / (s.tlb_hits + s.tlb_misses).max(1) as f64
        }),
    );
    m.insert("treadmarks.table_lock_acquires", stat(|s| s.table_lock_acquires));
    m.insert(
        "treadmarks.reference_disagreements",
        bench.reference_disagreements().iter().sum::<usize>() as f64,
    );

    // The reactor pool, summed over reactors and runs (queue depth: max).
    let reactor = |f: fn(&sp2model::ReactorSnapshot) -> u64| {
        per_pass(&|runs| runs.iter().flat_map(|r| &r.reactors).map(f).sum::<u64>() as f64)
    };
    m.insert("treadmarks.reactor.polls", reactor(|r| r.polls));
    m.insert("treadmarks.reactor.wakeups", reactor(|r| r.wakeups));
    m.insert("treadmarks.reactor.served", reactor(|r| r.served));
    m.insert(
        "treadmarks.reactor.served_per_poll",
        per_pass(&|runs| {
            let served: u64 = runs.iter().flat_map(|r| &r.reactors).map(|r| r.served).sum();
            let polls: u64 = runs.iter().flat_map(|r| &r.reactors).map(|r| r.polls).sum();
            served as f64 / polls.max(1) as f64
        }),
    );
    m.insert(
        "treadmarks.reactor.max_queue_depth",
        per_pass(&|runs| {
            runs.iter().flat_map(|r| &r.reactors).map(|r| r.max_queue_depth).max().unwrap_or(0)
                as f64
        }),
    );

    // sp2model: the waiting share (1 - mean/max final clock, averaged over
    // the pass's runs) and the earliest-finishing node's clock.
    m.insert(
        "sp2model.clock_skew",
        per_pass(&|runs| {
            runs.iter()
                .map(|r| {
                    let mean = r.clocks_ns.iter().sum::<u64>() as f64 / r.clocks_ns.len() as f64;
                    1.0 - mean / r.virt_ns().max(1) as f64
                })
                .sum::<f64>()
                / runs.len() as f64
        }),
    );
    m.insert(
        "sp2model.clock_min_ms",
        per_pass(&|runs| {
            runs.iter().map(|r| ms(r.clocks_ns.iter().copied().min().unwrap_or(0))).sum()
        }),
    );

    // msgnet: traffic, plus the hop probe.
    m.insert("msgnet.messages", stat(|s| s.messages_sent));
    m.insert("msgnet.kbytes", stat(|s| s.bytes_sent) / 1024.0);
    m.insert("msgnet.broadcasts", stat(|s| s.broadcasts));
    m.insert(
        "msgnet.bytes_per_msg",
        per_pass(&|runs| {
            let s = pass_stats(runs);
            s.bytes_sent as f64 / s.messages_sent.max(1) as f64
        }),
    );

    // The benchmark's own cost: traced against untraced passes, and the
    // self time of each span kind per traced pass.
    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| p.traced);
    let p50 = |ps: &[&Pass]| median(&ps.iter().map(|p| ms(p.host_ns)).collect::<Vec<_>>());
    let untraced_ms = p50(&untraced);
    m.insert("trace_overhead_pct", (p50(&traced) - untraced_ms) / untraced_ms * 100.0);
    let per_traced =
        |name| ms(bench.rec.self_total_ns(name, timed_from)) / traced.len().max(1) as f64;
    m.insert("bench.self_ms.pass", per_traced("pass"));
    m.insert("bench.self_ms.case", per_traced("case"));
    m.insert("bench.self_ms.try_run", per_traced("try_run"));
    m.insert("bench.self_ms.verify", per_traced("verify"));
    m.insert("bench.traced_passes", traced.len() as f64);
    m
}

fn summary_notes(
    bench: &Bench,
    passes: &[Pass],
    setups: &[(f64, f64)],
    counts: &FailureCounts,
) -> Vec<String> {
    let w = bench.workload;
    let untraced = passes.iter().filter(|p| !p.traced).count();
    let rounded = |f: fn(&(f64, f64)) -> f64| {
        setups.iter().map(|s| (f(s) * 1e3).round() / 1e3).collect::<Vec<_>>()
    };
    let mut notes = vec![
        format!(
            "workload {} ({} procs, {}{}): {} passes, closed loop, one client",
            w.name,
            w.nprocs,
            w.variant.name(),
            if w.is_variant == w.variant {
                String::new()
            } else {
                format!("; is as {}", w.is_variant.name())
            },
            passes.len()
        ),
        format!("why: {}", w.why),
        format!(
            "grids: {}",
            KERNELS
                .iter()
                .zip(&bench.inputs.cfgs)
                .map(|(k, c)| format!("{k} {}x{}x{}", c.rows, c.cols, c.iters))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!(
            "host_ms_tail is p{} of {untraced} untraced pass samples",
            tail_percentile(untraced)
        ),
        format!(
            "setup_s is the median CPU time of the set-ups {:?} s (wall-clock {:?} s)",
            rounded(|s| s.1),
            rounded(|s| s.0)
        ),
        format!(
            "fail_frac {:.6} = {} failed / {} attempted ({})",
            counts.fail_frac(),
            counts.failed(),
            counts.attempted,
            Failure::ALL
                .iter()
                .zip(counts.by_class)
                .map(|(f, n)| format!("{} {n}", f.name()))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ];
    notes.push(format!(
        "failed runs by kernel: {}",
        KERNELS
            .iter()
            .enumerate()
            .map(|(k, kernel)| {
                let cases = passes.iter().flat_map(|p| &p.cases).filter(|c| c.kernel == k);
                format!("{kernel} {}", cases.filter(|c| c.outcome.is_err()).count())
            })
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let disagreements = bench.reference_disagreements();
    notes.push(format!(
        "references: {}; plain-TreadMarks set-up runs disagreeing with them: {}",
        KERNELS
            .iter()
            .zip(&bench.reference_runs)
            .map(|(k, runs)| format!("{k} {} x{}", reference_variant(k).name(), runs.len()))
            .collect::<Vec<_>>()
            .join(", "),
        KERNELS
            .iter()
            .zip(&bench.treadmarks_runs)
            .zip(disagreements)
            .map(|((k, runs), n)| format!("{k} {n} of {}", runs.len()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    for (k, kernel) in KERNELS.iter().enumerate() {
        let v = virt_ms(passes, k);
        if v.is_empty() {
            notes.push(format!("virt_ms.{kernel}: no verified run"));
            continue;
        }
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        notes.push(format!(
            "virt_ms.{kernel}: {} over {} passes, spread {:.3}% (min {lo:.4}, max {hi:.4})",
            if lo == hi { "identical" } else { "varies" },
            v.len(),
            (hi - lo) / median(&v) * 100.0,
        ));
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 100.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(26), 60.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(1000), 99.0);
        for n in 20..2000 {
            let p = tail_percentile(n);
            assert!(n - (p / 100.0 * n as f64).ceil() as usize >= 10);
        }
    }
}
