//! The `serve` workload: a fresh in-process `modsynd` server (durable
//! store in a fresh directory, `jobs = 2`) driven over HTTP by a closed
//! loop of two client connections.
//!
//! The request stream is fixed by the seed. Each of the 23 Table-1 bodies
//! is first requested cold (`/synth?method=modular`: synthesis,
//! certification, cache and journal writes); its later repeats are warm
//! cache hits. Interleaved incremental requests (`/synth/incr?base=`) send
//! a seeded single edit of a served base. A request whose base has not
//! been answered yet waits for it before it is sent; the wait is not part
//! of its latency.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modsyn::{certify_report, synthesize, Method, SynthesisOptions};
use modsyn_bench::incr::edit_specs;
use modsyn_bench::PAPER_TABLE1;
use modsyn_check::rng::SplitMix64;
use modsyn_obs::{parse_json, Json, Tracer};
use modsyn_sg::derive;
use modsyn_stg::{benchmarks, parse_g, write_g};
use modsyn_store::DurableConfig;
use modsyn_svc::{client, Metrics, Server, ServerConfig, ServerHandle};

use crate::stats::{geomean, harrell_davis, median, quantile, ratio};
use crate::trace::TraceSums;
use crate::{Outcome, JOBS};

/// `/synth` requests in one round of the stream (incremental requests
/// come on top). At this length a round's p99 falls among the cold
/// requests of mid-sized Table-1 rows, a dozen requests from the top.
const ROUND_REQUESTS: usize = 1200;
/// Seeded edits per Table-1 base offered to the incremental requests.
const EDITS_PER_BASE: usize = 2;
/// Only rows with fewer initial states are edited. Edits of the larger
/// rows cost from 40 to 280 ms, depending on the edit, and so on the
/// seed. They would make the p99 tail, which is meant to be the fixed
/// set of cold requests, depend on the seed.
const EDIT_MAX_STATES: usize = 30;
/// An incremental request follows every `INCR_EVERY`-th request of the
/// stream, while unsent edits of already-requested bases remain.
const INCR_EVERY: usize = 25;
/// Client-side timeout per request.
const TIMEOUT: Duration = Duration::from_secs(30);

/// One incremental request: an edited body and the base it edits.
struct Edit {
    base: usize,
    body: String,
}

/// The generated inputs and a bound, ready, untraced server.
pub struct Setup {
    inputs: Inputs,
    root: PathBuf,
    server: Running,
}

struct Running {
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    dir: PathBuf,
    tracer: Tracer,
}

impl Running {
    /// Binds a fresh server with a durable store in a fresh directory under
    /// `root` and waits until `/readyz` answers 200.
    fn start(root: &Path, traced: bool) -> Result<Running, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = root.join(format!(
            "serve-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let tracer = if traced {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let config = ServerConfig {
            jobs: JOBS,
            durable: Some(DurableConfig::new(&dir)),
            ..ServerConfig::default()
        };
        let server = Server::bind(config, tracer.clone()).map_err(|e| format!("bind: {e}"))?;
        let running = Running {
            handle: server.handle(),
            thread: Some(std::thread::spawn(move || server.run())),
            dir,
            tracer,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let ready = client::request(running.addr(), "GET", "/readyz", b"", TIMEOUT)
                .is_ok_and(|r| r.status == 200);
            if ready {
                return Ok(running);
            }
            if Instant::now() > deadline {
                return Err("server not ready within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    fn metrics(&self) -> Result<String, String> {
        client::request(self.addr(), "GET", "/metrics", b"", TIMEOUT)
            .map(|r| r.text())
            .map_err(|e| format!("/metrics: {e}"))
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The seeded edits of the Table-1 rows below [`EDIT_MAX_STATES`] states
/// that synthesise and certify, so that no incremental request of the
/// stream fails.
fn edits(seed: u64, bodies: &[String]) -> Result<Vec<Edit>, String> {
    let options = SynthesisOptions::for_method(Method::Modular);
    let mut edits: Vec<Edit> = Vec::new();
    for (base, row) in PAPER_TABLE1.iter().enumerate() {
        if row.initial_states >= EDIT_MAX_STATES {
            continue;
        }
        for k in 0..EDITS_PER_BASE {
            let (base_text, body) = edit_specs(row.name, seed as usize * EDITS_PER_BASE + k);
            if base_text != bodies[base] {
                return Err(format!(
                    "{}: edit base differs from the served body",
                    row.name
                ));
            }
            if edits.iter().any(|e| e.body == body) {
                continue;
            }
            let stg = parse_g(&body).map_err(|e| format!("{}: edit: {e}", row.name))?;
            let spec = derive(&stg, &options.derive).map_err(|e| e.to_string());
            let solved = spec.and_then(|spec| {
                let report = synthesize(&stg, &options).map_err(|e| e.to_string())?;
                certify_report(Some(&spec), &report).map_err(|e| e.to_string())
            });
            if solved.is_ok() {
                edits.push(Edit { base, body });
            }
        }
    }
    Ok(edits)
}

impl Setup {
    /// Generates the Table-1 bodies and the seeded edits, and binds an
    /// untraced server under `root`.
    pub fn new(seed: u64, root: &Path) -> Result<Setup, String> {
        let bodies: Vec<String> = PAPER_TABLE1
            .iter()
            .map(|row| write_g(&benchmarks::by_name(row.name).expect("Table-1 benchmark")))
            .collect();
        let edits = edits(seed, &bodies)?;
        let server = Running::start(root, false)?;
        Ok(Setup {
            inputs: Inputs { bodies, edits },
            root: root.to_path_buf(),
            server,
        })
    }

    /// Replays rounds of the seeded stream for about `seconds`, each round
    /// against a fresh server, so every round starts cold. The first round
    /// uses the set-up's server. With `traced`, rounds alternate between
    /// untraced servers (the trace-overhead baseline) and traced ones,
    /// which give the per-layer split; otherwise the end-to-end metrics are
    /// reported.
    pub fn run(self, seed: u64, seconds: f64, traced: bool) -> Outcome {
        let Setup {
            inputs,
            root,
            server,
        } = self;
        let mut outcome = Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Default::default(),
        };
        let mut plain: Vec<Round> = Vec::new();
        let mut with_trace: Vec<Round> = Vec::new();
        let mut server = Some(server);
        let started = Instant::now();
        for round in 0u64.. {
            // Traced runs alternate untraced and traced rounds.
            let trace_this = traced && round % 2 == 1;
            let running = match server.take() {
                Some(s) => Ok(s),
                None => Running::start(&root, trace_this),
            };
            let result = running.and_then(|running| {
                let requests = schedule(&inputs, seed.wrapping_mul(1_000_003) ^ round);
                let before = running.metrics()?;
                let stream = drive(&inputs, running.addr(), &requests);
                let after = running.metrics()?;
                let spans = TraceSums::of(&running.tracer);
                Ok(Round {
                    stream,
                    before,
                    after,
                    spans,
                })
            });
            let round_result = match result {
                Ok(r) => r,
                Err(e) => {
                    outcome.errors.push(e);
                    break;
                }
            };
            outcome.attempted += round_result.stream.samples.len() + round_result.stream.failed;
            outcome.failed += round_result.stream.failed;
            outcome
                .errors
                .extend(round_result.stream.errors.iter().cloned());
            if trace_this {
                with_trace.push(round_result);
            } else {
                plain.push(round_result);
            }
            let done = if traced {
                with_trace.len()
            } else {
                plain.len()
            };
            if done >= 1 && started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        check_rounds_agree(&plain, &with_trace, &mut outcome.errors);
        if outcome.errors.is_empty() {
            if traced {
                layer_metrics(&mut outcome, &with_trace, &plain);
            } else {
                end_to_end_metrics(&mut outcome, &plain);
            }
        }
        outcome
    }
}

/// The workload's inputs, shared read-only by the client connections.
struct Inputs {
    bodies: Vec<String>,
    edits: Vec<Edit>,
}

/// One round: the stream against one fresh server, with `/metrics`
/// scraped before and after and the server tracer's sums.
struct Round {
    stream: Stream,
    before: String,
    after: String,
    spans: TraceSums,
}

/// Every round must serve each Table-1 body the same certified circuit.
fn check_rounds_agree(plain: &[Round], traced: &[Round], errors: &mut Vec<String>) {
    let mut rounds = plain.iter().chain(traced);
    let Some(first) = rounds.next() else {
        return;
    };
    for round in rounds {
        for (i, (a, b)) in first.stream.cold.iter().zip(&round.stream.cold).enumerate() {
            if let (Some((_, a)), Some((_, b))) = (a, b) {
                if a.to_string() != b.to_string() {
                    errors.push(format!("body {i}: rounds served different circuits"));
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Request {
    /// `/synth` of Table-1 body `i` (cold the first time, warm after).
    Synth(usize),
    /// `/synth/incr` of edit `e` against its base.
    Incr(usize),
}

/// The seeded request stream: body references in shuffled order (each
/// body at least once), with every [`INCR_EVERY`]-th position an edit of
/// a base whose first request comes earlier in the stream.
fn schedule(inputs: &Inputs, seed: u64) -> Vec<Request> {
    let len = ROUND_REQUESTS;
    let mut rng = SplitMix64::new(seed);
    let n = inputs.bodies.len();
    let mut synth: Vec<usize> = (0..n).collect();
    while synth.len() < len {
        synth.push(rng.below(n));
    }
    for i in (1..synth.len()).rev() {
        synth.swap(i, rng.below(i + 1));
    }
    let mut seen = vec![false; n];
    let mut out = Vec::with_capacity(len);
    let mut edit_order: Vec<usize> = (0..inputs.edits.len()).collect();
    for i in (1..edit_order.len()).rev() {
        edit_order.swap(i, rng.below(i + 1));
    }
    let mut next_edit = 0;
    for body in synth {
        seen[body] = true;
        out.push(Request::Synth(body));
        if out.len() % INCR_EVERY == 0 {
            // The next unsent edit whose base is already in the stream.
            if let Some(k) =
                (next_edit..edit_order.len()).find(|&k| seen[inputs.edits[edit_order[k]].base])
            {
                edit_order.swap(next_edit, k);
                out.push(Request::Incr(edit_order[next_edit]));
                next_edit += 1;
            }
        }
    }
    out
}

/// What the closed loop observed.
struct Stream {
    wall: f64,
    failed: usize,
    errors: Vec<String>,
    /// `(latency ms, request, cache header was "hit")` in completion order.
    samples: Vec<(f64, Request, bool)>,
    /// Per Table-1 body: the cold latency (ms) and the parsed cold body.
    cold: Vec<Option<(f64, Json)>>,
}

/// Where a Table-1 body's first request stands.
#[derive(Clone)]
enum First {
    Pending,
    /// Answered: the `X-Modsyn-Digest` and the body every hit must match.
    Answered(String, Vec<u8>),
    /// The first request failed; requests waiting on it fail too.
    Failed,
}

/// The shared state of the two client connections.
struct Shared {
    next: AtomicUsize,
    /// Per stream position: whether it is its body's first request.
    is_first: Vec<bool>,
    /// Per Table-1 body.
    first: Mutex<Vec<First>>,
    answered: Condvar,
    log: Mutex<Stream>,
}

const POISONED: &str = "a client connection panicked";

fn drive(inputs: &Inputs, addr: SocketAddr, schedule: &[Request]) -> Stream {
    let n = inputs.bodies.len();
    let mut seen = vec![false; n];
    let is_first = schedule
        .iter()
        .map(|r| match r {
            Request::Synth(i) => !std::mem::replace(&mut seen[*i], true),
            Request::Incr(_) => false,
        })
        .collect();
    let shared = Shared {
        next: AtomicUsize::new(0),
        is_first,
        first: Mutex::new(vec![First::Pending; n]),
        answered: Condvar::new(),
        log: Mutex::new(Stream {
            wall: 0.0,
            failed: 0,
            errors: Vec::new(),
            samples: Vec::with_capacity(schedule.len()),
            cold: vec![None; n],
        }),
    };
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..JOBS {
            scope.spawn(|| client_loop(inputs, addr, schedule, &shared));
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let mut stream = shared.log.into_inner().expect(POISONED);
    stream.wall = wall;
    stream
}

/// Waits until body `i`'s first request has been answered, returning its
/// digest, or `None` if that request failed.
fn wait_answered(shared: &Shared, i: usize) -> Option<String> {
    let mut first = shared.first.lock().expect(POISONED);
    loop {
        match &first[i] {
            First::Answered(digest, _) => return Some(digest.clone()),
            First::Failed => return None,
            First::Pending => first = shared.answered.wait(first).expect(POISONED),
        }
    }
}

fn client_loop(inputs: &Inputs, addr: SocketAddr, schedule: &[Request], shared: &Shared) {
    loop {
        let idx = shared.next.fetch_add(1, Ordering::Relaxed);
        let Some(&request) = schedule.get(idx) else {
            return;
        };
        let (target, body, base) = match request {
            Request::Synth(i) => {
                // Only the stream's first request of a body goes out before
                // the body is answered; a repeat waits so that it is a hit.
                if !shared.is_first[idx] && wait_answered(shared, i).is_none() {
                    record_failure(
                        shared,
                        format!("request {idx}: body {i} was never answered"),
                    );
                    continue;
                }
                ("/synth?method=modular".to_string(), &inputs.bodies[i], i)
            }
            Request::Incr(e) => {
                let edit = &inputs.edits[e];
                let Some(digest) = wait_answered(shared, edit.base) else {
                    record_failure(shared, format!("request {idx}: base was never answered"));
                    continue;
                };
                (
                    format!("/synth/incr?base={digest}&method=modular"),
                    &edit.body,
                    edit.base,
                )
            }
        };
        let sent = Instant::now();
        let response = client::request(addr, "POST", &target, body.as_bytes(), TIMEOUT);
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        let checked = response.map_err(|e| e.to_string()).and_then(|response| {
            if response.status != 200 {
                return Err(format!("status {}: {}", response.status, response.text()));
            }
            let doc = certified(&response.body)?;
            if let Request::Synth(i) = request {
                let digest = response.header("x-modsyn-digest").unwrap_or("");
                check_synth(shared, i, digest, &response.body, (latency_ms, doc))?;
            }
            Ok(response.header("x-modsyn-cache") == Some("hit"))
        });
        match checked {
            Ok(hit) => shared
                .log
                .lock()
                .expect(POISONED)
                .samples
                .push((latency_ms, request, hit)),
            Err(e) => {
                if shared.is_first[idx] {
                    shared.first.lock().expect(POISONED)[base] = First::Failed;
                    shared.answered.notify_all();
                }
                record_failure(shared, format!("request {idx} {target}: {e}"));
            }
        }
    }
}

fn record_failure(shared: &Shared, error: String) {
    let mut log = shared.log.lock().expect(POISONED);
    log.failed += 1;
    log.errors.push(error);
}

fn certified(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = parse_json(text).map_err(|e| format!("body is not JSON: {e}"))?;
    if doc.get("certified").and_then(Json::as_bool) != Some(true) {
        return Err("response is not \"certified\":true".to_string());
    }
    Ok(doc)
}

/// A certified `/synth` answer for body `i`: a repeat must be
/// byte-identical to the first answer; the first answer (with its latency
/// and parsed body) is recorded and wakes the requests waiting on it.
fn check_synth(
    shared: &Shared,
    i: usize,
    digest: &str,
    body: &[u8],
    cold: (f64, Json),
) -> Result<(), String> {
    let mut first = shared.first.lock().expect(POISONED);
    match &first[i] {
        First::Answered(_, earlier) if earlier != body => {
            Err("body differs from the first response for its digest".to_string())
        }
        First::Answered(..) => Ok(()),
        First::Pending | First::Failed => {
            if digest.is_empty() {
                return Err("first response has no X-Modsyn-Digest".to_string());
            }
            first[i] = First::Answered(digest.to_string(), body.to_vec());
            shared.log.lock().expect(POISONED).cold[i] = Some(cold);
            shared.answered.notify_all();
            Ok(())
        }
    }
}

fn field(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// End-to-end metrics: each round's wall, throughput and latency
/// quantiles, reported as the median over rounds, so a transient stall
/// moves one round rather than the pooled tail. A round's p99 lies in a
/// sparse tail of synthesis requests, so it is the Harrell–Davis estimate.
fn end_to_end_metrics(outcome: &mut Outcome, rounds: &[Round]) {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let latency_q =
        |r: &Round, q: f64| quantile(&r.stream.samples.iter().map(|s| s.0).collect::<Vec<_>>(), q);
    let n = rounds[0].stream.cold.len();
    let cold_ms: Vec<f64> = (0..n)
        .map(|i| {
            let times: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.stream.cold[i].as_ref().map(|c| c.0))
                .collect();
            median(&times)
        })
        .collect();
    let cold: Vec<&Json> = rounds[0]
        .stream
        .cold
        .iter()
        .flatten()
        .map(|c| &c.1)
        .collect();
    let m = &mut outcome.metrics;
    m.insert("pass_s", per_round(&|r| r.stream.wall));
    m.insert("stg_geomean_ms", geomean(&cold_ms));
    m.insert("literals", cold.iter().map(|d| field(d, "literals")).sum());
    m.insert(
        "state_signals",
        cold.iter()
            .map(|d| field(d, "final_signals") - field(d, "initial_signals"))
            .sum(),
    );
    m.insert(
        "req_per_s",
        per_round(&|r| r.stream.samples.len() as f64 / r.stream.wall),
    );
    m.insert("req_p50_ms", per_round(&|r| latency_q(r, 0.5)));
    m.insert(
        "req_p99_ms",
        per_round(&|r| {
            harrell_davis(
                &r.stream.samples.iter().map(|s| s.0).collect::<Vec<_>>(),
                0.99,
            )
        }),
    );
}

/// Per-layer split over the traced rounds: client latencies pooled,
/// `/metrics` deltas and span sums per round, histogram quantiles as the
/// median over rounds.
fn layer_metrics(outcome: &mut Outcome, traced: &[Round], plain: &[Round]) {
    let samples: Vec<&(f64, Request, bool)> =
        traced.iter().flat_map(|r| &r.stream.samples).collect();
    let p50 = |pick: &dyn Fn(&(f64, Request, bool)) -> bool| {
        median(
            &samples
                .iter()
                .filter(|s| pick(s))
                .map(|s| s.0)
                .collect::<Vec<_>>(),
        )
    };
    let rounds = traced.len() as f64;
    let delta = |name: &str| {
        traced
            .iter()
            .map(|r| {
                Metrics::parse_line(&r.after, name)
                    .unwrap_or(0)
                    .saturating_sub(Metrics::parse_line(&r.before, name).unwrap_or(0))
                    as f64
            })
            .sum::<f64>()
    };
    let hist = |name: &str, q: &str| {
        median(
            &traced
                .iter()
                .map(|r| Metrics::parse_hist(&r.after, name, q).unwrap_or(0) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let mut spans = TraceSums::default();
    for round in traced {
        spans.merge(&round.spans);
    }
    let hits = delta("modsynd_cache_hits_total");
    let misses = delta("modsynd_cache_misses_total");
    let store_hits = delta("modsynd_store_hits_total");
    let store_misses = delta("modsynd_store_misses_total");
    let kept = spans.counter("input_set.kept_trials") as f64;
    let trials = kept + spans.counter("input_set.rejected_trials") as f64;
    let cold: Vec<&Json> = traced
        .iter()
        .flat_map(|r| r.stream.cold.iter().flatten().map(|c| &c.1))
        .collect();
    let cold_sum = |key: &str| cold.iter().map(|d| field(d, key)).sum::<f64>() / rounds;
    let wall = |rounds: &[Round]| median(&rounds.iter().map(|r| r.stream.wall).collect::<Vec<_>>());
    let (traced_wall, plain_wall) = (wall(traced), wall(plain));
    // Connection time spent outside requests: waits for a base and the
    // client's own checks.
    let outside_ms = traced
        .iter()
        .map(|r| {
            JOBS as f64 * r.stream.wall * 1e3 - r.stream.samples.iter().map(|s| s.0).sum::<f64>()
        })
        .sum::<f64>()
        / rounds;
    let is_synth = |s: &(f64, Request, bool)| matches!(s.1, Request::Synth(_));
    let mut m = vec![
        ("svc.hit_p50_ms", p50(&|s| is_synth(s) && s.2)),
        ("svc.miss_p50_ms", p50(&|s| is_synth(s) && !s.2)),
        ("svc.incr_p50_ms", p50(&|s| !is_synth(s) && !s.2)),
        ("svc.cache_hit_share", ratio(hits, hits + misses)),
        ("svc.queue_wait_p99_us", hist("queue_wait_us", "p99")),
        ("svc.pool_wait_p99_us", hist("pool_wait_us", "p99")),
        (
            "svc.synth_cpu_ms",
            hist("synth_cpu_us:modular", "p50") / 1e3,
        ),
        (
            "store.module_hit_share",
            ratio(store_hits, store_hits + store_misses),
        ),
        ("core.select_kept_share", ratio(kept, trials)),
        ("sg.states", cold_sum("initial_states")),
        ("core.final_states", cold_sum("final_states")),
        ("bench.other_ms", outside_ms),
        (
            "bench.trace_overhead_share",
            ratio(traced_wall - plain_wall, plain_wall),
        ),
    ];
    // Per-round totals. The synthesis layers come from the spans the
    // server's own pipeline records; parse and certification record none
    // there and report 0.
    for (name, total) in [
        ("store.dirty_modules", delta("modsynd_store_dirty_total")),
        ("store.wal_appends", delta("modsynd_wal_appends_total")),
        ("store.wal_fsyncs", delta("modsynd_wal_fsyncs_total")),
        ("sg.derive_ms", spans.span_ms("sg.derive")),
        ("core.select_ms", spans.span_ms("select")),
        ("core.select_trials", trials),
        ("core.resolve_ms", spans.span_ms("modular")),
        ("core.formulas", spans.calls("csc.attempt") as f64),
        ("sat.solve_ms", spans.span_ms("sat.solve")),
        ("sat.conflicts", spans.counter("conflicts") as f64),
        ("sat.propagations", spans.counter("propagations") as f64),
        ("sat.decisions", spans.counter("decisions") as f64),
        ("sat.restarts", spans.counter("restarts") as f64),
        (
            "sat.learned_clauses",
            spans.counter("learned_clauses") as f64,
        ),
        ("logic.derive_ms", spans.span_ms("logic")),
        ("logic.espresso_ms", spans.span_ms("espresso")),
        ("logic.espresso_calls", spans.calls("espresso") as f64),
        (
            "logic.espresso_iterations",
            spans.counter("iterations") as f64,
        ),
        ("logic.cubes_out", spans.gauge("espresso", "cubes_out")),
    ] {
        m.push((name, total / rounds));
    }
    outcome.metrics.extend(m);
}
