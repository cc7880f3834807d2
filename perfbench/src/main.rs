//! The modsyn benchmark: one workload per process, timed from the outside.
//!
//! ```text
//! perfbench --workload <table1|logic-bound|sat-bound|serve> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up (input generation, warm-up and, for `serve`, server bind and
//! durable-store open) runs several times and its median is `setup_s`;
//! then the workload is measured for about `--seconds`. Every circuit is
//! checked: batch results by the `modsyn-check` oracle, served results by
//! their `"certified":true` flag and byte-identity of cache hits. With
//! `--trace 0` the end-to-end metrics are reported; with `--trace 1` the
//! per-layer split from an enabled tracer. The last line of standard
//! output is one JSON object; the exit code is non-zero on any failure.

mod batch;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Worker threads for every synthesis run (and the server's pool).
pub const JOBS: usize = 2;

/// Directory (relative to the working directory) holding the serve
/// workload's durable stores while it runs.
const SERVE_ROOT: &str = ".bench_tmp";

/// Set-up runs at least this many times, and on until it has taken
/// [`SETUP_BUDGET_S`] (or [`SETUP_MAX_REPEATS`] runs), so that a set-up of a
/// millisecond still has a steady median.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 200;
const SETUP_BUDGET_S: f64 = 1.0;

/// End-to-end metrics, reported with `--trace 0`: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("stg_geomean_ms", "ms"),
    ("literals", "count"),
    ("state_signals", "count"),
    ("peak_rss_mb", "MiB"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
];

/// Per-layer metrics, reported with `--trace 1`. A layer the workload does
/// not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("stg.parse_ms", "ms"),
    ("sg.derive_ms", "ms"),
    ("sg.states", "count"),
    ("core.select_ms", "ms"),
    ("core.select_trials", "count"),
    ("core.select_kept_share", "ratio"),
    ("core.resolve_ms", "ms"),
    ("core.modules", "count"),
    ("core.formulas", "count"),
    ("core.formula_sat_share", "ratio"),
    ("core.encode_vars", "count"),
    ("core.encode_clauses", "count"),
    ("core.final_states", "count"),
    ("sat.solve_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.restarts", "count"),
    ("sat.learned_clauses", "count"),
    ("logic.derive_ms", "ms"),
    ("logic.espresso_ms", "ms"),
    ("logic.espresso_calls", "count"),
    ("logic.espresso_iterations", "count"),
    ("logic.cubes_out", "count"),
    ("check.certify_ms", "ms"),
    ("svc.hit_p50_ms", "ms"),
    ("svc.miss_p50_ms", "ms"),
    ("svc.incr_p50_ms", "ms"),
    ("svc.cache_hit_share", "ratio"),
    ("svc.queue_wait_p99_us", "us"),
    ("svc.pool_wait_p99_us", "us"),
    ("svc.synth_cpu_ms", "ms"),
    ("store.module_hit_share", "ratio"),
    ("store.dirty_modules", "count"),
    ("store.wal_appends", "count"),
    ("store.wal_fsyncs", "count"),
    ("bench.other_ms", "ms"),
    ("bench.trace_overhead_share", "ratio"),
];

/// What a measured workload run produced.
pub struct Outcome {
    /// Operations attempted: STG runs (batch) or requests (serve).
    pub attempted: usize,
    /// Operations that failed: a synthesis error or abort, an oracle
    /// rejection, a non-200, or a hit that differs from the first body.
    pub failed: usize,
    /// Every failure and benchmark error, for standard error.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !batch::is_batch(&workload) && workload != "serve" {
        return Err(format!(
            "unknown workload {workload:?} (table1|logic-bound|sat-bound|serve)"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs `setup` repeatedly and returns the median duration with the last
/// result.
fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.len() < SETUP_MAX_REPEATS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // The previous repetition's result is dropped (a server drained)
        // before the next one starts.
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((stats::median(&times), last.expect("at least one set-up")))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (setup_s, mut outcome) = if args.workload == "serve" {
        let root = std::path::Path::new(SERVE_ROOT);
        let (setup_s, server) = timed_setup(|| serve::Setup::new(args.seed, root))?;
        let outcome = server.run(args.seed, args.seconds, args.trace);
        let _ = std::fs::remove_dir(root);
        (setup_s, outcome)
    } else {
        let (setup_s, items) = timed_setup(|| {
            let items = batch::generate(&args.workload)?;
            batch::warm_up(&items)?;
            Ok(items)
        })?;
        (
            setup_s,
            batch::run(&items, args.seed, args.seconds, args.trace),
        )
    };
    if !args.trace {
        outcome.metrics.insert("setup_s", setup_s);
        outcome.metrics.insert("peak_rss_mb", stats::peak_rss_mb());
    }
    Ok(outcome)
}

/// Formats the result line: every metric of the mode, by name with unit.
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().filter(|v| v.is_finite());
            let value = value.unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty() && outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &outcome.errors {
        eprintln!("perfbench: {e}");
    }
    println!("{}", result_line(&outcome, args.trace));
    if outcome.errors.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
