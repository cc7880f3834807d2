//! Incremental-synthesis integration tests: every Table-1 row is edited,
//! re-synthesised through a warm synthesis store, certified by the
//! independent oracle and byte-compared against from-scratch synthesis —
//! plus the serving surface (`/synth/incr`, `/explain`, `--durable` warm
//! restarts) against real loopback listeners.

use std::time::{Duration, Instant};

use modsyn_bench::incr::{edit_specs, run_incr_row};
use modsyn_bench::PAPER_TABLE1;
use modsyn_obs::{parse_json, Tracer};
use modsyn_store::{DurableConfig, SNAP_FILE};
use modsyn_svc::client::{self, ClientResponse};
use modsyn_svc::{Server, ServerConfig, ServerHandle};

const TIMEOUT: Duration = Duration::from_secs(120);
const SEED: usize = 0;

/// Runs the full cold → edit → from-scratch → incremental protocol for
/// each row. `run_incr_row` itself asserts the hard invariants (oracle
/// certification, byte identity with the from-scratch run, at least one
/// store hit, dirty strictly below total); the re-assertions here keep the
/// headline shape pinned even if the harness is refactored.
fn assert_incremental(names: &[&str]) {
    for name in names {
        let m = run_incr_row(name, SEED);
        assert!(m.store_hits >= 1, "{name}: incremental run reused nothing");
        assert!(
            m.dirty_modules < m.total_modules,
            "{name}: dirty {} not below total {}",
            m.dirty_modules,
            m.total_modules
        );
        assert_eq!(
            m.store_hits + m.dirty_modules,
            m.total_modules,
            "{name}: hits + dirty must cover every module solve"
        );
    }
}

// The 23 Table-1 rows, split so no single test dominates the (single
// threaded) suite wall clock. `incremental_tests_cover_every_table1_row`
// fails if a row is added or dropped without updating the groups.
const LARGE_ROWS: [&str; 4] = ["mr0", "mr1", "mmu0", "mmu1"];
const SMALL_ROWS_A: [&str; 7] = [
    "sbuf-ram-write",
    "vbe4a",
    "nak-pa",
    "pe-rcv-ifc-fc",
    "ram-read-sbuf",
    "alex-nonfc",
    "sbuf-send-pkt2",
];
const SMALL_ROWS_B: [&str; 6] = [
    "sbuf-send-ctl",
    "atod",
    "pa",
    "alloc-outbound",
    "wrdata",
    "fifo",
];
const SMALL_ROWS_C: [&str; 6] = [
    "sbuf-read-ctl",
    "nouse",
    "vbe-ex2",
    "nousc-ser",
    "sendr-done",
    "vbe-ex1",
];

#[test]
fn incremental_tests_cover_every_table1_row() {
    let mut covered: Vec<&str> = LARGE_ROWS
        .iter()
        .chain(&SMALL_ROWS_A)
        .chain(&SMALL_ROWS_B)
        .chain(&SMALL_ROWS_C)
        .copied()
        .collect();
    covered.sort_unstable();
    let mut expected: Vec<&str> = PAPER_TABLE1.iter().map(|r| r.name).collect();
    expected.sort_unstable();
    assert_eq!(covered, expected);
}

#[test]
fn incremental_identity_large_rows() {
    assert_incremental(&LARGE_ROWS);
}

#[test]
fn incremental_identity_small_rows_a() {
    assert_incremental(&SMALL_ROWS_A);
}

#[test]
fn incremental_identity_small_rows_b() {
    assert_incremental(&SMALL_ROWS_B);
}

#[test]
fn incremental_identity_small_rows_c() {
    assert_incremental(&SMALL_ROWS_C);
}

// ---------------------------------------------------------------------
// Serving surface.

fn start(config: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config, Tracer::disabled()).expect("bind loopback");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (handle, thread)
}

fn stop(handle: &ServerHandle, thread: std::thread::JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    thread.join().expect("server thread").expect("server run");
}

fn request(handle: &ServerHandle, method: &str, path: &str, body: &str) -> ClientResponse {
    client::request(handle.addr(), method, path, body.as_bytes(), TIMEOUT)
        .expect("loopback request")
}

/// Polls `/readyz` until a durable server finishes its background recovery.
fn wait_ready(handle: &ServerHandle) {
    let deadline = Instant::now() + TIMEOUT;
    while request(handle, "GET", "/readyz", "").status != 200 {
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn synth_incr_resolves_fewer_modules_and_matches_fresh_synthesis() {
    let (base_g, edited_g) = edit_specs("nak-pa", SEED);
    let (handle, thread) = start(ServerConfig::default());

    // Base synthesis seeds the store and names the incremental baseline.
    let base = request(&handle, "POST", "/synth?method=modular", &base_g);
    assert_eq!(base.status, 200, "{}", base.text());
    let digest = base
        .header("x-modsyn-digest")
        .expect("digest header")
        .to_string();

    // Unknown base and missing base are typed client errors.
    let missing = request(&handle, "POST", "/synth/incr?method=modular", &edited_g);
    assert_eq!(missing.status, 400, "{}", missing.text());
    let unknown = request(
        &handle,
        "POST",
        "/synth/incr?method=modular&base=0123456789abcdef",
        &edited_g,
    );
    assert_eq!(unknown.status, 422, "{}", unknown.text());

    // The incremental run: strictly fewer modules re-solved than total.
    let incr = request(
        &handle,
        "POST",
        &format!("/synth/incr?method=modular&base={digest}"),
        &edited_g,
    );
    assert_eq!(incr.status, 200, "{}", incr.text());
    assert_eq!(incr.header("x-modsyn-cache"), Some("miss"));
    let dirty: u64 = incr
        .header("x-modsyn-dirty-modules")
        .expect("dirty header")
        .parse()
        .expect("dirty count");
    let total: u64 = incr
        .header("x-modsyn-total-modules")
        .expect("total header")
        .parse()
        .expect("total count");
    assert!(dirty < total, "dirty {dirty} not below total {total}");

    // Store counters surface in /metrics.
    let metrics = request(&handle, "GET", "/metrics", "").text();
    let counter = |name: &str| {
        modsyn_svc::Metrics::parse_line(&metrics, name)
            .unwrap_or_else(|| panic!("{name} missing from:\n{metrics}"))
    };
    assert!(counter("modsynd_store_hits_total") >= 1);
    assert!(counter("modsynd_store_misses_total") >= 1);
    assert_eq!(counter("modsynd_store_dirty_total"), dirty);

    // Byte identity against a *second, fresh* daemon's from-scratch run —
    // the first daemon would answer from its response cache.
    let incr_body = incr.text();
    stop(&handle, thread);
    let (fresh_handle, fresh_thread) = start(ServerConfig::default());
    let fresh = request(&fresh_handle, "POST", "/synth?method=modular", &edited_g);
    assert_eq!(fresh.status, 200, "{}", fresh.text());
    assert_eq!(
        incr_body,
        fresh.text(),
        "incremental response must be byte-identical to from-scratch synthesis"
    );
    stop(&fresh_handle, fresh_thread);
}

#[test]
fn explain_reports_provenance_for_certified_synthesis() {
    let (handle, thread) = start(ServerConfig::default());
    let g = modsyn_stg::write_g(&modsyn_stg::benchmarks::by_name("vbe-ex2").expect("benchmark"));

    let synth = request(&handle, "POST", "/synth?method=modular", &g);
    assert_eq!(synth.status, 200, "{}", synth.text());
    let digest = synth
        .header("x-modsyn-digest")
        .expect("digest header")
        .to_string();
    let body = parse_json(&synth.text()).expect("synth body");
    let inserted = body
        .get("inserted")
        .and_then(modsyn_obs::Json::as_arr)
        .and_then(|arr| arr.first())
        .and_then(modsyn_obs::Json::as_str)
        .expect("at least one inserted signal")
        .to_string();

    let explain = request(
        &handle,
        "GET",
        &format!("/explain?digest={digest}&signal={inserted}"),
        "",
    );
    assert_eq!(explain.status, 200, "{}", explain.text());
    let explanation = parse_json(&explain.text()).expect("explain body");
    assert_eq!(
        explanation.get("signal").and_then(modsyn_obs::Json::as_str),
        Some(inserted.as_str())
    );
    let provenance = explanation
        .get("provenance")
        .and_then(modsyn_obs::Json::as_arr)
        .expect("provenance array");
    assert!(!provenance.is_empty());

    // Typed misses: unknown digest, then unknown signal.
    let bad_digest = request(
        &handle,
        "GET",
        "/explain?digest=ffffffffffffffff&signal=x",
        "",
    );
    assert_eq!(bad_digest.status, 404, "{}", bad_digest.text());
    let bad_signal = request(
        &handle,
        "GET",
        &format!("/explain?digest={digest}&signal=no-such-signal"),
        "",
    );
    assert_eq!(bad_signal.status, 404, "{}", bad_signal.text());

    stop(&handle, thread);
}

#[test]
fn durable_store_survives_restart_with_full_cache_warmth() {
    let dir = std::env::temp_dir().join(format!("modsyn-store-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        durable: Some(DurableConfig::new(&dir)),
        ..ServerConfig::default()
    };
    let rows = ["vbe-ex1", "vbe-ex2"];
    let bodies: Vec<String> = rows
        .iter()
        .map(|name| modsyn_stg::write_g(&modsyn_stg::benchmarks::by_name(name).expect("benchmark")))
        .collect();

    // First life: synthesise, then drain (which checkpoints the store).
    let (handle, thread) = start(config());
    wait_ready(&handle);
    let mut digest = String::new();
    for body in &bodies {
        let response = request(&handle, "POST", "/synth?method=modular", body);
        assert_eq!(response.status, 200, "{}", response.text());
        assert_eq!(response.header("x-modsyn-cache"), Some("miss"));
        digest = response
            .header("x-modsyn-digest")
            .expect("digest")
            .to_string();
    }
    stop(&handle, thread);
    assert!(
        dir.join(SNAP_FILE).exists(),
        "graceful drain must write the snapshot"
    );

    // Second life: every request is answered from the restored cache, and
    // /explain still reaches the first life's provenance records.
    let (handle, thread) = start(config());
    wait_ready(&handle);
    for body in &bodies {
        let response = request(&handle, "POST", "/synth?method=modular", body);
        assert_eq!(response.status, 200, "{}", response.text());
        assert_eq!(
            response.header("x-modsyn-cache"),
            Some("hit"),
            "restarted daemon must answer warm"
        );
    }
    let explain = request(
        &handle,
        "GET",
        &format!("/explain?digest={digest}&signal=csc0"),
        "",
    );
    assert_eq!(explain.status, 200, "{}", explain.text());
    stop(&handle, thread);
    let _ = std::fs::remove_dir_all(&dir);
}
