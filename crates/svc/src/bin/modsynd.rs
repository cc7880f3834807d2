//! `modsynd` — the synthesis service daemon.
//!
//! ```text
//! modsynd [--addr HOST:PORT] [--jobs N] [--queue N] [--max-connections N]
//!         [--cache-entries N] [--cache-bytes N] [--timeout-ms T]
//!         [--max-body BYTES] [--limit N] [--stats] [--trace-json FILE]
//!         [--faults SPEC] [--fault-seed N]
//!         [--breaker-threshold F] [--breaker-cooldown-ms T]
//!         [--access-log off|stderr|FILE] [--flight-slots N]
//!         [--durable DIR] [--wal-fsync-every N] [--checkpoint-every N]
//! ```
//!
//! Binds the address (default `127.0.0.1:7171`), prints one
//! `listening on http://…` line to stdout (so scripts can wait for
//! readiness), and serves until `POST /shutdown`, then drains gracefully.
//!
//! Endpoints: `POST /synth?method=modular|modular-min-area|direct|lavagno
//! [&timeout_ms=T]` with a `.g` body; `GET /metrics`; `GET /healthz`;
//! `GET /debug/flight[?trace=HEX][&limit=N]`; `POST /shutdown`. Every 200
//! from `/synth` is certified by the independent oracle before it is
//! written, carries an `X-Modsyn-Trace` id, and leaves its span chain in
//! the always-on flight recorder.
//!
//! On exit, `--stats` renders the serving trace to stderr and
//! `--trace-json FILE` writes it as JSON, mirroring the `modsyn` CLI.
//!
//! `--faults SPEC` arms a seeded fault plan for chaos runs (see
//! [`modsyn_fault::FaultPlan::parse`] for the spec grammar); `--fault-seed`
//! picks the plan's decision stream. `--breaker-threshold` and
//! `--breaker-cooldown-ms` tune the per-method circuit breaker.
//! `--access-log` steers the per-request JSON log (the daemon defaults to
//! `stderr`; embedded servers default to off); `--flight-slots` sizes the
//! flight recorder's per-shard ring.
//!
//! `--durable DIR` persists the synthesis store (module solves,
//! provenance records, cached response bodies) across restarts, so a
//! restarted daemon answers previously-seen work from cache and serves
//! `/synth/incr` and `/explain` against the old session's records. Every
//! mutation is journaled (write-ahead, checksummed, fsync'd every
//! `--wal-fsync-every` appends) before it is applied, and every
//! `--checkpoint-every` frames the journal is compacted into an atomically
//! rotated snapshot generation — so warm state survives `kill -9`, torn
//! tails are truncated on replay, and a corrupt snapshot falls back to the
//! previous generation. `/readyz` reports 503 while recovery replays; the
//! recovery counters land in `/metrics`.

use std::process::ExitCode;
use std::time::Duration;

use modsyn_fault::FaultPlan;
use modsyn_obs::Tracer;
use modsyn_store::DurableConfig;
use modsyn_svc::{AccessLog, Server, ServerConfig};

fn usage() -> &'static str {
    "usage: modsynd [--addr HOST:PORT] [--jobs N] [--queue N] [--max-connections N] \
     [--cache-entries N] [--cache-bytes N] [--timeout-ms T] [--max-body BYTES] \
     [--limit N] [--stats] [--trace-json FILE] [--faults SPEC] [--fault-seed N] \
     [--breaker-threshold F] [--breaker-cooldown-ms T] \
     [--access-log off|stderr|FILE] [--flight-slots N] \
     [--durable DIR] [--wal-fsync-every N] [--checkpoint-every N]\n\
     \n\
     Serves POST /synth (body: .g STG; query: method, timeout_ms),\n\
     POST /synth/incr (query: base=<digest-hex>), GET /explain (query: digest,\n\
     signal), GET /metrics, GET /healthz, GET /readyz, GET /debug/flight,\n\
     POST /shutdown.\n\
     Every 200 is oracle-certified and trace-stamped (X-Modsyn-Trace).\n\
     --durable DIR persists the synthesis store across restarts: a checksummed\n\
     write-ahead journal plus atomic snapshot generations; state survives kill -9.\n\
     --faults arms a seeded chaos plan, e.g. 'sat.abort*2,svc.write-torn@1/4'\n\
     (rule grammar: site[*max][+skip][@num/denom][~delay_ms])."
}

struct Args {
    config: ServerConfig,
    stats: bool,
    trace_json: Option<String>,
}

/// The durable tuning block, created on first use so `--wal-fsync-every`
/// and `--checkpoint-every` may precede `--durable` on the command line
/// (the empty-dir placeholder is rejected after parsing if `--durable`
/// never arrives).
fn durable_tuning(config: &mut ServerConfig) -> &mut DurableConfig {
    config.durable.get_or_insert_with(|| DurableConfig::new(""))
}

fn parse_args() -> Result<Args, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7171".to_string(),
        // The daemon logs requests by default; embedded servers stay quiet.
        access_log: AccessLog::Stderr,
        ..ServerConfig::default()
    };
    let mut stats = false;
    let mut trace_json = None;
    let mut fault_spec: Option<String> = None;
    let mut fault_seed = 0x000d_da05_u64;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--jobs" => {
                config.jobs = value("--jobs")?.parse().map_err(|_| "bad --jobs value")?;
                if config.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--queue" => {
                config.queue_capacity =
                    value("--queue")?.parse().map_err(|_| "bad --queue value")?;
            }
            "--max-connections" => {
                config.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|_| "bad --max-connections value")?;
            }
            "--cache-entries" => {
                config.cache.max_entries = value("--cache-entries")?
                    .parse()
                    .map_err(|_| "bad --cache-entries value")?;
            }
            "--cache-bytes" => {
                config.cache.max_bytes = value("--cache-bytes")?
                    .parse()
                    .map_err(|_| "bad --cache-bytes value")?;
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| "bad --timeout-ms value")?;
                config.request_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-body" => {
                config.limits.max_body = value("--max-body")?
                    .parse()
                    .map_err(|_| "bad --max-body value")?;
            }
            "--limit" => {
                config.backtrack_limit =
                    Some(value("--limit")?.parse().map_err(|_| "bad --limit value")?);
            }
            "--stats" => stats = true,
            "--trace-json" => trace_json = Some(value("--trace-json")?),
            "--faults" => fault_spec = Some(value("--faults")?),
            "--fault-seed" => {
                fault_seed = value("--fault-seed")?
                    .parse()
                    .map_err(|_| "bad --fault-seed value")?;
            }
            "--breaker-threshold" => {
                config.breaker.failure_threshold = value("--breaker-threshold")?
                    .parse()
                    .map_err(|_| "bad --breaker-threshold value")?;
            }
            "--breaker-cooldown-ms" => {
                let ms: u64 = value("--breaker-cooldown-ms")?
                    .parse()
                    .map_err(|_| "bad --breaker-cooldown-ms value")?;
                config.breaker.cooldown = Duration::from_millis(ms);
            }
            "--access-log" => {
                config.access_log = match value("--access-log")?.as_str() {
                    "off" => AccessLog::Off,
                    "stderr" => AccessLog::Stderr,
                    path => AccessLog::File(path.into()),
                };
            }
            "--flight-slots" => {
                config.flight_slots = value("--flight-slots")?
                    .parse()
                    .map_err(|_| "bad --flight-slots value")?;
            }
            "--durable" => {
                let dir = value("--durable")?;
                let tuned = config
                    .durable
                    .take()
                    .unwrap_or_else(|| DurableConfig::new(""));
                config.durable = Some(DurableConfig {
                    dir: dir.into(),
                    ..tuned
                });
            }
            "--wal-fsync-every" => {
                let n: u64 = value("--wal-fsync-every")?
                    .parse()
                    .map_err(|_| "bad --wal-fsync-every value")?;
                durable_tuning(&mut config).fsync_every = n.max(1);
            }
            "--checkpoint-every" => {
                let n: u64 = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| "bad --checkpoint-every value")?;
                durable_tuning(&mut config).checkpoint_every = n.max(1);
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unexpected argument {other:?}\n{}", usage())),
        }
    }
    if let Some(d) = &config.durable {
        if d.dir.as_os_str().is_empty() {
            return Err("--wal-fsync-every/--checkpoint-every need --durable DIR".to_string());
        }
    }
    if let Some(spec) = fault_spec {
        let plan = FaultPlan::parse("modsynd", &spec, fault_seed)?;
        eprintln!("chaos: armed fault plan {spec:?} (seed {fault_seed})");
        config.faults = plan.arm();
    }
    Ok(Args {
        config,
        stats,
        trace_json,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let tracer = if args.stats || args.trace_json.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let server = match Server::bind(args.config, tracer.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = server.handle();
    println!("listening on http://{}", server.local_addr());
    // Scripts wait for the line above; make sure it is not stuck in a pipe
    // buffer while the server blocks in accept().
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let result = server.run();
    let metrics = handle.metrics();
    eprint!("{}", metrics.render());
    if let Err(e) = result {
        eprintln!("error: server failed: {e}");
        return ExitCode::FAILURE;
    }

    if tracer.is_enabled() {
        let report = tracer.report();
        if args.stats {
            eprint!("{}", report.render());
        }
        if let Some(path) = &args.trace_json {
            if let Err(e) = std::fs::write(path, report.to_json().pretty()) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
