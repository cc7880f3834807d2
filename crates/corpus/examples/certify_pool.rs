//! Scans the gen stream and the skeleton-product space for leaves the
//! modular flow certifies, to populate the corpus crate's certified pools.
//!
//! ```text
//! cargo run -p modsyn-corpus --release --example certify_pool -- gen|sync|art
//! ```
//!
//! * `gen` (default) — the certified small and medium gen-stream seeds;
//! * `sync` — every ordered skeleton pair's synchronous product;
//! * `art` — each pair of `CERTIFIED_SYNC_PAIRS` articulated with every
//!   leaf the corpus can draw after it (each skeleton template and each
//!   certified small seed); prints the pairs that certify with all of them,
//!   which is `ARTICULABLE_SYNC_PAIRS`.
use std::time::Instant;

use modsyn::Method;
use modsyn_check::{gen_recipe, Profile};
use modsyn_corpus::compose::{CERTIFIED_SMALL_SEEDS, CERTIFIED_SYNC_PAIRS};
use modsyn_corpus::{
    evaluate_case, CorpusNode, CorpusRecipe, EvalOptions, Expectation, Skeleton, Unit, Verdict,
};

fn modular_certifies(stg: &modsyn_stg::Stg) -> (bool, f64, usize) {
    let started = Instant::now();
    let report = evaluate_case(stg, Expectation::InTheory, &EvalOptions::default());
    let wall = started.elapsed().as_secs_f64();
    let ok = report.ok()
        && report
            .outcomes
            .iter()
            .any(|o| o.method == Method::Modular && o.verdict == Verdict::Certified);
    (ok, wall, report.states)
}

fn sync_node(a: Skeleton, b: Skeleton) -> CorpusNode {
    CorpusNode::Sync(vec![
        CorpusNode::Unit(Unit::Skel(a)),
        CorpusNode::Unit(Unit::Skel(b)),
    ])
}

fn gen_mode() {
    for (profile, label, want) in [
        (Profile::Small, "small", 64),
        (Profile::Medium, "medium", 32),
    ] {
        let mut accepted = Vec::new();
        let mut sub_seed = 1u64;
        while accepted.len() < want && sub_seed < 2_000 {
            let recipe = gen_recipe(sub_seed, profile);
            let stg = recipe.build();
            let (ok, wall, states) = modular_certifies(&stg);
            if ok && wall < 0.25 {
                accepted.push(sub_seed);
                eprintln!("  {label} {sub_seed}: ok ({states} states, {wall:.3}s)");
            }
            sub_seed += 1;
        }
        println!("{label}: {accepted:?}");
    }
}

fn sync_mode() {
    let skels = [
        Skeleton::Channel,
        Skeleton::Pipeline(2),
        Skeleton::Pipeline(3),
        Skeleton::Pipeline(4),
        Skeleton::MutexPair,
        Skeleton::ForkJoin(2),
    ];
    for a in skels {
        for b in skels {
            let recipe = CorpusRecipe {
                seed: 0,
                node: sync_node(a, b),
            };
            let (stg, _) = recipe.build();
            let (ok, wall, states) = modular_certifies(&stg);
            println!(
                "sync({},{}): {} ({states} states, {wall:.2}s)",
                a.name(),
                b.name(),
                if ok { "OK" } else { "FAIL" }
            );
        }
    }
}

fn art_mode() {
    // The leaves `gen_corpus` may draw after an articulated product: every
    // skeleton template its skeleton draw reaches, and every certified
    // small-profile gen seed.
    let leaves: Vec<Unit> = [
        Skeleton::Channel,
        Skeleton::Pipeline(2),
        Skeleton::Pipeline(3),
        Skeleton::Pipeline(4),
        Skeleton::MutexPair,
        Skeleton::ForkJoin(2),
        Skeleton::ForkJoin(3),
    ]
    .into_iter()
    .map(Unit::Skel)
    .chain(
        CERTIFIED_SMALL_SEEDS
            .iter()
            .map(|&s| Unit::Gen(gen_recipe(s, Profile::Small))),
    )
    .collect();
    let mut articulable = Vec::new();
    for (a, b) in CERTIFIED_SYNC_PAIRS {
        let started = Instant::now();
        let failing: Vec<String> = leaves
            .iter()
            .filter(|leaf| {
                let recipe = CorpusRecipe {
                    seed: 0,
                    node: CorpusNode::Articulate(vec![
                        sync_node(a, b),
                        CorpusNode::Unit((*leaf).clone()),
                    ]),
                };
                let (stg, _) = recipe.build();
                !modular_certifies(&stg).0
            })
            .map(|leaf| match leaf {
                Unit::Skel(s) => s.name(),
                Unit::Gen(r) => format!("gen{}", r.seed),
            })
            .collect();
        println!(
            "art(sync({},{}), leaf): {} ({:.1}s)",
            a.name(),
            b.name(),
            if failing.is_empty() {
                "OK".to_string()
            } else {
                format!("FAIL with {}", failing.join(" "))
            },
            started.elapsed().as_secs_f64()
        );
        if failing.is_empty() {
            articulable.push((a, b));
        }
    }
    println!("articulable ({}):", articulable.len());
    for (a, b) in articulable {
        println!("    (Skeleton::{a:?}, Skeleton::{b:?}),");
    }
}

fn main() {
    match std::env::args().nth(1).as_deref().unwrap_or("gen") {
        "gen" => gen_mode(),
        "sync" => sync_mode(),
        "art" => art_mode(),
        other => {
            eprintln!("unknown mode {other:?} (expected gen, sync or art)");
            std::process::exit(1);
        }
    }
}
