//! The separation the layer table in `NOTES.md` relies on, checked on real
//! runs of each workload's kernels, plus the agreement between
//! `BENCHMARK.json` and what the benchmark reports.
//!
//! Run with `cargo test --release`: the runs are full-size.

use dsm_apps::GridConfig;
use perfbench::verify::{execute, RunData};
use perfbench::workload::{Inputs, Workload, DEFAULT_SEED, KERNELS, WORKLOADS};
use perfbench::{END_TO_END, PER_LAYER};

fn workload(name: &str) -> &'static Workload {
    Workload::by_name(name).expect("a listed workload")
}

/// Runs `kernel` of `w` on the default seed's grid.
fn run(w: &Workload, kernel: &str) -> RunData {
    let k = KERNELS.iter().position(|&n| n == kernel).expect("a listed kernel");
    let cfg = Inputs::generate(w, DEFAULT_SEED).cfgs[k];
    let (_, outcome) = execute(kernel, cfg, w.nprocs, w.variant_of(kernel));
    outcome.unwrap_or_else(|f| panic!("{} {kernel} failed: {f:?}", w.name))
}

fn checked_accesses(run: &RunData) -> u64 {
    run.stats.tlb_hits + run.stats.tlb_misses
}

#[test]
fn rsdcomp_is_bypassed_on_wide_validate_and_paper_treadmarks() {
    for name in ["wide-validate", "paper-treadmarks"] {
        let w = workload(name);
        assert_eq!(w.compiles_per_run(), 0, "{name} compiles nothing");
        for kernel in KERNELS {
            // Pushes, neighbour syncs and eliminated barriers are issued only
            // by a generated plan: none of them means no compiled plan ran.
            let s = run(w, kernel).stats;
            assert_eq!(
                (s.pushes, s.neighbor_syncs, s.barriers_eliminated),
                (0, 0, 0),
                "{name} {kernel} ran a generated plan"
            );
        }
    }
    let compiled = workload("wide-compiled");
    assert_eq!(compiled.compiles_per_run(), 64, "every processor compiles");
    let generated: u64 = KERNELS
        .iter()
        .map(|k| run(compiled, k).stats)
        .map(|s| s.pushes + s.neighbor_syncs + s.barriers_eliminated)
        .sum();
    assert!(generated > 0, "the compiled workload runs generated plans");
}

#[test]
fn jacobi_and_gauss_take_no_barriers_on_wide_compiled() {
    let w = workload("wide-compiled");
    for kernel in ["jacobi", "gauss"] {
        assert_eq!(run(w, kernel).stats.barriers, 0, "{kernel} compiles to pure pushes");
    }
    assert!(run(workload("wide-validate"), "jacobi").stats.barriers > 0);
}

#[test]
fn paper_treadmarks_checks_at_least_a_hundredfold_more_accesses() {
    let paper: u64 =
        KERNELS.iter().map(|k| checked_accesses(&run(workload("paper-treadmarks"), k))).sum();
    let wide: u64 =
        KERNELS.iter().map(|k| checked_accesses(&run(workload("wide-compiled"), k))).sum();
    assert!(wide > 0);
    assert!(
        paper >= 100 * wide,
        "paper-treadmarks {paper} vs wide-compiled {wide} checked accesses"
    );
}

#[test]
fn the_same_seed_reproduces_grids_and_deterministic_counters() {
    let w = workload("wide-validate");
    assert_eq!(Inputs::generate(w, 42).cfgs, Inputs::generate(w, 42).cfgs);
    assert_ne!(Inputs::generate(w, 42).cfgs, Inputs::generate(w, 43).cfgs);
    for kernel in ["jacobi", "sor", "gauss"] {
        let (a, b) = (run(w, kernel), run(w, kernel));
        assert_eq!(a.stats, b.stats, "{kernel} counters");
        assert_eq!(a.clocks_ns, b.clocks_ns, "{kernel} clocks");
        assert_eq!(a.bits, b.bits, "{kernel} checksums");
    }
}

/// Known defect: plain-TreadMarks IS at 8 processors loses or reorders
/// histogram updates when a column does not fill its page evenly (61 or
/// 62 rows); Validate and Compiled agree with each other at every size.
#[test]
#[ignore = "known defect in the TreadMarks lock/diff path; see NOTES.md"]
fn treadmarks_is_is_deterministic_on_straddling_columns() {
    let cfg = GridConfig { rows: 62, cols: 261, iters: 4 };
    let bits = |variant| execute("is", cfg, 8, variant).1.expect("the run completes").bits;
    let reference = bits(dsm_apps::Variant::Validate);
    for _ in 0..5 {
        assert_eq!(bits(dsm_apps::Variant::TreadMarks), reference);
    }
}

/// The same defect at 64 processors on the wide IS grid (8 rows, 64 columns
/// per page): about one plain-TreadMarks run in sixty returns a wrong
/// checksum, which is why the benchmark's reference is a majority vote.
#[test]
#[ignore = "known defect in the TreadMarks lock/diff path; see NOTES.md"]
fn treadmarks_is_is_deterministic_at_64_procs() {
    let cfg = GridConfig { rows: 8, cols: 317, iters: 2 };
    let bits = |variant| execute("is", cfg, 64, variant).1.expect("the run completes").bits;
    let reference = bits(dsm_apps::Variant::Validate);
    for _ in 0..200 {
        assert_eq!(bits(dsm_apps::Variant::TreadMarks), reference);
    }
}

/// The `name` values listed under `key` in `BENCHMARK.json`.
fn listed_names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("the key is present");
    let list = &json[start..start + json[start..].find(']').expect("a closed list")];
    list.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names =
        |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(listed_names(&json, "workloads"), WORKLOADS.map(|w| w.name.to_string()));
    assert_eq!(listed_names(&json, "end_to_end"), names(&END_TO_END));
    assert_eq!(listed_names(&json, "per_layer"), names(&PER_LAYER));
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{name} is listed with unit {unit}");
    }
}
