//! Command line: `perfbench --workload <name> [--seed <n>] [--seconds <s>]
//! [--trace <0|1>]`. Prints the metrics by name with their units, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A traced run also writes its spans to `out/` beside this
//! package's manifest.

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::workload::{Workload, DEFAULT_SEED, WORKLOADS};
use perfbench::{run, Options};

fn usage(err: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("perfbench: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload: Option<&'static Workload> = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage("every flag takes a value") };
        match flag.as_str() {
            "--workload" => match Workload::by_name(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 3600.0 => seconds = s,
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value:?}")),
            },
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    let Some(workload) = workload else { return usage("--workload is required") };

    let report = run(Options { workload, seed, seconds, trace });
    for line in &report.notes {
        println!("{line}");
    }
    if let Some(json) = &report.spans_json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{seed}.json", workload.name));
        if let Err(err) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            eprintln!("perfbench: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans written to {}", path.display());
    }
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct,
        report.counts.attempted,
        report.counts.failed()
    );
    ExitCode::SUCCESS
}
