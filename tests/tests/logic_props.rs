//! Seeded property tests for the two-level minimiser.
//!
//! Every property draws its cases from [`SplitMix64`] with a fixed seed, so
//! a failure names a case index that reproduces exactly. Besides semantic
//! properties of [`minimize`], the suite pins the espresso loop to a
//! reference copy of its earlier formulation ([`legacy_minimize`], which
//! tests IRREDUNDANT and REDUCE against `rest ∪ DC`), and checks the
//! word-level cube kernels against per-variable loops over
//! [`Cube::literal`] on universes that straddle the 32-variable word
//! boundary.

use modsyn_check::rng::SplitMix64;
use modsyn_logic::{complement, expand, is_tautology, minimize, Cover, Cube, MinimizeResult};

/// Cases per semantic property.
const CASES: usize = 48;

/// A random cube over `n` variables: each variable is a negative literal,
/// a positive literal or don't-care with probability `lit_num/lit_den`
/// split evenly between the polarities.
fn random_cube(rng: &mut SplitMix64, n: usize, lit_num: usize, lit_den: usize) -> Cube {
    let mut c = Cube::full(n);
    for v in 0..n {
        if rng.chance(lit_num, lit_den) {
            c.set_literal(v, Some(rng.below(2) == 1));
        }
    }
    c
}

/// A random cover of up to seven cubes over `n` variables, each variable a
/// literal with probability 2/3.
fn random_cover(rng: &mut SplitMix64, n: usize) -> Cover {
    let count = rng.below(8);
    Cover::from_cubes(n, (0..count).map(|_| random_cube(rng, n, 2, 3)))
}

fn minterms(n: usize) -> Vec<Vec<bool>> {
    (0u32..(1 << n))
        .map(|bits| (0..n).map(|v| bits >> v & 1 == 1).collect())
        .collect()
}

#[test]
fn minimize_preserves_semantics() {
    let mut rng = SplitMix64::new(0x1091c5);
    for case in 0..CASES {
        let on = random_cover(&mut rng, 4);
        let r = minimize(&on, &Cover::empty(4));
        for m in minterms(4) {
            assert_eq!(
                r.cover.covers_minterm(&m),
                on.covers_minterm(&m),
                "case {case}: differs on {m:?}"
            );
        }
    }
}

#[test]
fn minimize_never_increases_cost() {
    let mut rng = SplitMix64::new(0xc057);
    for case in 0..CASES {
        let on = random_cover(&mut rng, 4);
        let r = minimize(&on, &Cover::empty(4));
        assert!(
            r.cover.cube_count() <= on.cube_count().max(1),
            "case {case}"
        );
        assert!(r.cover.literal_count() <= on.literal_count(), "case {case}");
    }
}

#[test]
fn minimize_result_is_prime_and_irredundant() {
    let mut rng = SplitMix64::new(0x9e13e);
    for case in 0..CASES {
        let on = random_cover(&mut rng, 4);
        let dc = Cover::empty(4);
        let r = minimize(&on, &dc);
        let off = complement(&on.union(&dc));
        for (i, c) in r.cover.cubes().iter().enumerate() {
            // Prime: raising any literal hits the OFF-set.
            for (v, _) in c.literals() {
                let mut raised = c.clone();
                raised.set_literal(v, None);
                assert!(
                    off.cubes().iter().any(|oc| oc.intersects(&raised)),
                    "case {case}: cube {c} not prime"
                );
            }
            // Irredundant: dropping the cube loses coverage.
            let rest = Cover::from_cubes(
                4,
                r.cover
                    .cubes()
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, x)| x.clone()),
            );
            assert!(!rest.covers_cube(c), "case {case}: cube {c} redundant");
        }
    }
}

#[test]
fn complement_is_exact() {
    let mut rng = SplitMix64::new(0xc03913);
    for case in 0..CASES {
        let f = random_cover(&mut rng, 4);
        let g = complement(&f);
        for m in minterms(4) {
            assert_ne!(
                f.covers_minterm(&m),
                g.covers_minterm(&m),
                "case {case}: on {m:?}"
            );
        }
    }
}

#[test]
fn tautology_matches_brute_force() {
    let mut rng = SplitMix64::new(0x7a07);
    for case in 0..CASES {
        let f = random_cover(&mut rng, 4);
        let brute = minterms(4).iter().all(|m| f.covers_minterm(m));
        assert_eq!(is_tautology(&f), brute, "case {case}: cover\n{f}");
    }
}

#[test]
fn dont_cares_only_shrink_cost() {
    let mut rng = SplitMix64::new(0xdc5);
    for case in 0..CASES {
        let on = random_cover(&mut rng, 4);
        let dc = random_cover(&mut rng, 4);
        // Remove overlap so ON and DC are disjoint.
        let dc = Cover::from_cubes(
            4,
            dc.cubes()
                .iter()
                .filter(|c| !on.cubes().iter().any(|oc| oc.intersects(c)))
                .cloned(),
        );
        let plain = minimize(&on, &Cover::empty(4));
        let with_dc = minimize(&on, &dc);
        assert!(
            with_dc.cover.literal_count() <= plain.cover.literal_count(),
            "case {case}"
        );
        // Result stays within ON ∪ DC and covers ON.
        let allowed = on.union(&dc);
        for m in minterms(4) {
            if on.covers_minterm(&m) {
                assert!(with_dc.cover.covers_minterm(&m), "case {case}: {m:?}");
            }
            if with_dc.cover.covers_minterm(&m) {
                assert!(allowed.covers_minterm(&m), "case {case}: {m:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reference: the espresso loop with IRREDUNDANT and REDUCE against the DC
// cover. Kept verbatim so the differential property below pins the current
// loop to the same covers, cube order and iteration counts.
// ---------------------------------------------------------------------------

fn legacy_irredundant(cover: &Cover, dc: &Cover) -> Cover {
    let n = cover.num_vars();
    let mut cubes = cover.cubes().to_vec();
    // Most-specific first: they are the most likely to be redundant.
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cubes[i].literal_count()));

    let mut removed = vec![false; cubes.len()];
    for &i in &order {
        let rest = Cover::from_cubes(
            n,
            cubes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i && !removed[j])
                .map(|(_, c)| c.clone())
                .chain(dc.cubes().iter().cloned()),
        );
        if rest.covers_cube(&cubes[i]) {
            removed[i] = true;
        }
    }
    let survivors = cubes
        .drain(..)
        .enumerate()
        .filter(|&(i, _)| !removed[i])
        .map(|(_, c)| c);
    Cover::from_cubes(n, survivors)
}

fn legacy_reduce(cover: &Cover, dc: &Cover) -> Cover {
    let n = cover.num_vars();
    let mut cubes = cover.cubes().to_vec();
    // Largest cubes first: standard espresso ordering for REDUCE.
    cubes.sort_by_key(Cube::literal_count);

    let mut reduced: Vec<Option<Cube>> = cubes.iter().cloned().map(Some).collect();
    for i in 0..cubes.len() {
        let c = cubes[i].clone();
        let rest = Cover::from_cubes(
            n,
            reduced
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .filter_map(|(_, x)| x.clone())
                .chain(dc.cubes().iter().cloned()),
        );
        let comp = complement(&rest.cofactor(&c));
        reduced[i] = match comp.cubes() {
            // The rest covers everything under c: c can vanish entirely.
            [] => None,
            [first, more @ ..] => {
                let sup = more.iter().fold(first.clone(), |acc, k| acc.supercube(k));
                Some(c.intersection(&sup))
            }
        };
    }
    Cover::from_cubes(n, reduced.into_iter().flatten().filter(|c| !c.is_empty()))
}

fn legacy_minimize(on: &Cover, dc: &Cover) -> MinimizeResult {
    let n = on.num_vars();
    assert_eq!(dc.num_vars(), n, "on/dc universe mismatch");
    let off = complement(&on.union(dc));

    let mut f = on.clone();
    f.drop_contained();
    f = expand(&f, &off);
    f = legacy_irredundant(&f, dc);

    let mut iterations = 1usize;
    loop {
        let cost = (f.cube_count(), f.literal_count());
        let reduced = legacy_reduce(&f, dc);
        let expanded = expand(&reduced, &off);
        let candidate = legacy_irredundant(&expanded, dc);
        let new_cost = (candidate.cube_count(), candidate.literal_count());
        iterations += 1;
        if new_cost < cost {
            f = candidate;
        } else {
            break;
        }
        if iterations > 20 {
            break; // safety net; espresso converges in a few passes
        }
    }

    MinimizeResult {
        cover: f,
        iterations,
    }
}

/// Draws an `(on, dc)` pair shaped like either state-graph logic (ON as
/// minterms, DC as wide cubes) or a general two-level problem. ON and DC
/// overlap freely in both shapes.
fn random_problem(rng: &mut SplitMix64, n: usize) -> (Cover, Cover) {
    let dc_count = rng.below(10);
    let dc = Cover::from_cubes(n, (0..dc_count).map(|_| random_cube(rng, n, 1, 2)));
    let on = if rng.chance(1, 2) {
        let count = 1 + rng.below(12);
        Cover::from_cubes(n, (0..count).map(|_| random_cube(rng, n, 1, 1)))
    } else {
        let count = 1 + rng.below(8);
        Cover::from_cubes(n, (0..count).map(|_| random_cube(rng, n, 3, 4)))
    };
    (on, dc)
}

#[test]
fn minimize_matches_the_legacy_loop_on_5000_problems() {
    let mut rng = SplitMix64::new(0x1e9ac70);
    let mut overlapping = 0usize;
    for case in 0..5000 {
        let n = 3 + case % 6;
        let (on, dc) = random_problem(&mut rng, n);
        if on
            .cubes()
            .iter()
            .any(|o| dc.cubes().iter().any(|d| o.intersects(d)))
        {
            overlapping += 1;
        }
        assert_eq!(
            minimize(&on, &dc),
            legacy_minimize(&on, &dc),
            "case {case}: on\n{on}\ndc\n{dc}"
        );
    }
    assert!(overlapping >= 1000, "only {overlapping} overlapping cases");
}

// ---------------------------------------------------------------------------
// Cube kernels against per-variable reference loops, across word
// boundaries (32 variables per word).
// ---------------------------------------------------------------------------

const KERNEL_WIDTHS: [usize; 7] = [1, 31, 32, 33, 37, 64, 65];

fn reference_literals(c: &Cube) -> Vec<(usize, bool)> {
    (0..c.num_vars())
        .filter_map(|v| c.literal(v).map(|pol| (v, pol)))
        .collect()
}

fn reference_intersects(a: &Cube, b: &Cube) -> bool {
    (0..a.num_vars()).all(|v| match (a.literal(v), b.literal(v)) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    })
}

fn reference_cofactor(f: &Cover, by: &Cube) -> Vec<Cube> {
    f.cubes()
        .iter()
        .filter(|c| reference_intersects(c, by))
        .map(|c| {
            let mut row = c.clone();
            for (v, _) in reference_literals(by) {
                row.set_literal(v, None);
            }
            row
        })
        .collect()
}

fn reference_most_binate(f: &Cover) -> Option<usize> {
    let n = f.num_vars();
    let count = |v: usize, pol: bool| {
        f.cubes()
            .iter()
            .filter(|c| c.literal(v) == Some(pol))
            .count()
    };
    let mut best: Option<(usize, usize, usize)> = None;
    for v in 0..n {
        let (pos, neg) = (count(v, true), count(v, false));
        if pos + neg == 0 {
            continue;
        }
        let key = (pos.min(neg), pos + neg);
        if best.is_none_or(|(bm, t, _)| key > (bm, t)) {
            best = Some((key.0, key.1, v));
        }
    }
    best.map(|(_, _, v)| v)
}

#[test]
fn cube_kernels_match_per_variable_references_across_words() {
    let mut rng = SplitMix64::new(0x3e7b17);
    for n in KERNEL_WIDTHS {
        for case in 0..200 {
            // Sparse cubes intersect often; dense ones conflict often.
            let (num, den) = [(1, 8), (1, 2), (7, 8)][case % 3];
            let a = random_cube(&mut rng, n, num, den);
            let b = random_cube(&mut rng, n, num, den);
            let lits = reference_literals(&a);
            assert_eq!(a.literal_count(), lits.len(), "n={n} case {case}: {a}");
            assert_eq!(a.literals(), lits, "n={n} case {case}: {a}");
            assert_eq!(
                a.intersects(&b),
                reference_intersects(&a, &b),
                "n={n} case {case}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn cover_kernels_match_per_variable_references_across_words() {
    let mut rng = SplitMix64::new(0xc0fac7);
    for n in KERNEL_WIDTHS {
        for case in 0..60 {
            let (num, den) = [(1, 8), (1, 2), (7, 8)][case % 3];
            let count = rng.below(12);
            let f = Cover::from_cubes(n, (0..count).map(|_| random_cube(&mut rng, n, num, den)));
            let by = random_cube(&mut rng, n, 1, 4);
            assert_eq!(
                f.cofactor(&by).cubes(),
                reference_cofactor(&f, &by).as_slice(),
                "n={n} case {case}: cofactor by {by}"
            );
            assert_eq!(
                f.most_binate_variable(),
                reference_most_binate(&f),
                "n={n} case {case}:\n{f}"
            );
        }
    }
}
