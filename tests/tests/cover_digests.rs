//! Pins the synthesised covers themselves, not only their literal counts.
//!
//! Every `SignalFunction` SOP of a modular run is rendered as
//! `name = sop` lines and hashed with FNV-1a. A change to the minimiser
//! that keeps the literal total but picks different primes, or orders the
//! cubes differently, changes the digest. The digests were recorded before
//! the espresso loop switched from testing against `rest ∪ DC` to testing
//! the ON-set pieces, which must give byte-identical covers.

use modsyn::{synthesize, Method, SynthesisOptions};
use modsyn_stg::{benchmarks, fnv1a64, parse_g, write_g, Stg};

fn cover_digest(stg: &Stg) -> (u64, usize) {
    let report = synthesize(stg, &SynthesisOptions::for_method(Method::Modular))
        .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
    let rendered: String = report
        .functions
        .iter()
        .map(|f| format!("{} = {}\n", f.name, f.sop))
        .collect();
    (fnv1a64(rendered.as_bytes()), report.literals)
}

/// `(benchmark, cover digest, literals)` of the 19 Table-1 rows with fewer
/// than 80 initial states, in table order.
const SMALL_ROWS: [(&str, u64, usize); 19] = [
    ("sbuf-ram-write", 0xca04_4716_d105_b82a, 44),
    ("vbe4a", 0x7dbd_3d0c_29c6_9f8a, 56),
    ("nak-pa", 0xc8f6_e6a8_87f6_bf6a, 73),
    ("pe-rcv-ifc-fc", 0xde2f_ce41_a584_052a, 97),
    ("ram-read-sbuf", 0x3235_1699_0b3b_708f, 49),
    ("alex-nonfc", 0x4d05_490d_2364_d5a7, 18),
    ("sbuf-send-pkt2", 0x0013_f1b9_9d1c_e131, 44),
    ("sbuf-send-ctl", 0x10b6_0f7a_530b_256c, 22),
    ("atod", 0x9ec3_1ac8_0cee_1b1a, 22),
    ("pa", 0xf1eb_a2ee_4416_fd69, 30),
    ("alloc-outbound", 0x900d_c67c_52a4_70a3, 31),
    ("wrdata", 0xaef5_839a_9254_2ba1, 38),
    ("fifo", 0xd7a4_78ef_d6f0_1b37, 13),
    ("sbuf-read-ctl", 0xd636_6501_664d_2e8b, 30),
    ("nouse", 0x84b0_d8a9_668c_d202, 10),
    ("vbe-ex2", 0xaa62_114e_b45c_fcbc, 18),
    ("nousc-ser", 0xc8ec_90d9_d6f8_9096, 12),
    ("sendr-done", 0xc5c9_e696_e9ed_03cd, 12),
    ("vbe-ex1", 0xc1ff_150a_0943_6279, 8),
];

#[test]
fn small_table1_covers_are_byte_identical() {
    let mut mismatches = Vec::new();
    for (name, digest, literals) in SMALL_ROWS {
        let stg = benchmarks::by_name(name).expect("Table-1 benchmark");
        let got = cover_digest(&stg);
        if got != (digest, literals) {
            mismatches.push(format!("(\"{name}\", {:#018x}, {}),", got.0, got.1));
        }
    }
    assert!(
        mismatches.is_empty(),
        "covers changed; new rows:\n{}",
        mismatches.join("\n")
    );
}

/// `pipeline(8)` as the CLI and the benchmark see it: its `.g` rendering,
/// parsed back (the parser's signal order is the one that gives 311).
#[test]
fn pipeline8_cover_is_byte_identical() {
    let stg = parse_g(&write_g(&benchmarks::pipeline(8))).expect("round-trips");
    assert_eq!(
        cover_digest(&stg),
        (0xd1b5_389a_5495_f836, 311),
        "pipeline(8) modular cover changed"
    );
}
