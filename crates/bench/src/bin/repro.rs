//! `repro` — regenerate every table and figure of the paper's evaluation
//! in one run, without Criterion's timing loops.
//!
//! ```sh
//! cargo run -p p4auth-bench --bin repro                       # everything
//! cargo run -p p4auth-bench --bin repro -- fig17              # one experiment
//! cargo run -p p4auth-bench --bin repro -- scale --short
//! cargo run -p p4auth-bench --bin repro -- users --baseline BENCH_users.json
//! cargo run -p p4auth-bench --bin repro -- timeline --out /tmp/tl.json
//! cargo run -p p4auth-bench --bin repro -- decode /tmp/tl.json.bin
//! ```
//!
//! `--short` is consumed before name filtering and sets
//! `P4AUTH_SCALE_SHORT` for the scale, users, timeline, trace and
//! scenarios reports. `--out <path>` and
//! `--baseline <path>` are routed by [`ReportSink`] to the env var of the
//! one selected experiment: `--out` writes that experiment's
//! machine-readable output to `<path>` (plus `<path>.bin` for the binary
//! form, where one exists), `--baseline` points a report at its
//! checked-in JSON for the CI non-regression gates. `decode <file>`
//! re-emits a binary artifact (`P4TS` snapshot/delta, `P4TL` timeline or
//! `P4TR` trace) as canonical JSON.

use p4auth_bench::alloc::CountingAlloc;
use p4auth_bench::report;

/// The repro binary meters its own heap: reports read the live/peak
/// counters as a deterministic memory-footprint proxy (`repro -- users`).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Parsed CLI: experiment filters plus the file-routing flags. `--out`
/// and `--baseline` are generic — the sink maps them to the selected
/// experiment's env var, so a new report adds one table row here instead
/// of another copy of the flag plumbing.
struct ReportSink {
    /// Positional experiment names (substring-matched against the table).
    filter: Vec<String>,
    /// `--out <path>`: machine-readable output destination.
    out: Option<String>,
    /// `--baseline <path>`: checked-in JSON for a non-regression gate.
    baseline: Option<String>,
}

impl ReportSink {
    /// Experiments with machine-readable output, and the env var their
    /// report honours for redirecting it to a file.
    const OUT_VARS: &'static [(&'static str, &'static str)] = &[
        ("metrics", "P4AUTH_METRICS_OUT"),
        ("timeline", "P4AUTH_TIMELINE_OUT"),
        ("trace", "P4AUTH_TRACE_OUT"),
        ("replicas", "P4AUTH_REPLICAS_OUT"),
        ("users", "P4AUTH_USERS_OUT"),
        ("scenarios", "P4AUTH_SCENARIOS_OUT"),
        ("decode", "P4AUTH_DECODE_OUT"),
    ];
    /// Experiments with a checked-in baseline gate.
    const BASELINE_VARS: &'static [(&'static str, &'static str)] = &[
        ("users", "P4AUTH_USERS_BASELINE"),
        ("scenarios", "P4AUTH_SCENARIOS_BASELINE"),
    ];

    /// Parses the CLI. `--short`, a plain env-var switch, is applied
    /// immediately; `--out` and `--baseline` are held until the
    /// experiment selection is known.
    fn parse(args: &[String]) -> ReportSink {
        fn operand(args: &[String], i: usize, usage: &str) -> String {
            args.get(i).cloned().unwrap_or_else(|| {
                eprintln!("{usage}");
                std::process::exit(1);
            })
        }
        let mut sink = ReportSink {
            filter: Vec::new(),
            out: None,
            baseline: None,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--short" => std::env::set_var("P4AUTH_SCALE_SHORT", "1"),
                "--baseline" => {
                    i += 1;
                    sink.baseline = Some(operand(args, i, "--baseline needs a JSON path"));
                }
                "--out" => {
                    i += 1;
                    sink.out = Some(operand(args, i, "--out needs a file path"));
                }
                other => sink.filter.push(other.to_string()),
            }
            i += 1;
        }
        sink
    }

    /// The env var `flag` maps to under the current selection, or exits
    /// listing the experiments that accept the flag. Exactly one
    /// experiment must be selected (`decode` keeps its file operand).
    fn env_var_for(
        &self,
        flag: &str,
        vars: &'static [(&'static str, &'static str)],
    ) -> &'static str {
        let selected = match self.filter.first().map(String::as_str) {
            Some("decode") if self.filter.len() == 2 => Some("decode"),
            Some(name) if self.filter.len() == 1 => Some(name),
            _ => None,
        };
        selected
            .and_then(|name| vars.iter().find(|(n, _)| *n == name))
            .map(|(_, var)| *var)
            .unwrap_or_else(|| {
                let names: Vec<&str> = vars.iter().map(|(n, _)| *n).collect();
                eprintln!("{flag} needs exactly one of: {}", names.join(", "));
                std::process::exit(1);
            })
    }

    /// Routes `--out` / `--baseline` to the selected experiment's env
    /// vars, which the report functions read.
    fn route_to_env(&self) {
        if let Some(path) = &self.out {
            std::env::set_var(self.env_var_for("--out", Self::OUT_VARS), path);
        }
        if let Some(path) = &self.baseline {
            std::env::set_var(self.env_var_for("--baseline", Self::BASELINE_VARS), path);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sink = ReportSink::parse(&args);
    sink.route_to_env();

    // `decode <file>` is a converter, not an experiment: handle it before
    // the table loop so the file operand is not treated as a filter.
    if sink.filter.first().map(String::as_str) == Some("decode") {
        let Some(input) = sink.filter.get(1) else {
            eprintln!("decode needs a binary artifact path");
            std::process::exit(1);
        };
        report::decode(input);
        return;
    }
    let want = |name: &str| {
        sink.filter.is_empty() || sink.filter.iter().any(|f| name.contains(f.as_str()))
    };

    let experiments: [(&str, fn()); 17] = [
        ("table1", report::table1),
        ("fig16", report::fig16),
        ("fig17", report::fig17),
        ("fig18", report::fig18),
        ("fig19", report::fig19),
        ("fig20", report::fig20),
        ("fig21", report::fig21),
        ("table2", report::table2),
        ("table3", report::table3),
        ("fct", report::motivation_fct),
        ("metrics", report::metrics),
        ("scale", report::scale),
        ("users", report::users),
        ("timeline", report::timeline),
        ("trace", report::trace),
        ("replicas", report::replicas),
        ("scenarios", report::scenarios),
    ];
    let mut ran = 0;
    for (name, run) in experiments {
        if want(name) {
            run();
            ran += 1;
        }
    }
    if want("ablation") {
        report::ablation_digest();
        ran += 1;
    }
    if ran == 0 {
        eprintln!("no experiment matches {filter:?}; available: table1 fig16 fig17 fig18 fig19 fig20 fig21 table2 table3 fct metrics scale users timeline trace replicas scenarios ablation decode", filter = sink.filter);
        std::process::exit(1);
    }
}
