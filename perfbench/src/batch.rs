//! The batch workloads: passes over a fixed set of STGs, each taken from
//! `.g` text through parse, state-graph derivation, CSC resolution, logic
//! derivation and oracle certification to a certified circuit.
//!
//! Every stage is timed from the outside at one of five boundaries
//! (parse, derive, resolve, logic, certify); the pass time not covered by
//! them is reported as `bench.other_ms`.

use std::collections::BTreeMap;
use std::time::Instant;

use modsyn::{
    derive_logic_jobs_traced, direct_resolve_traced, gate_netlist, modular_resolve_jobs_traced,
    total_literals, CscSolveOptions, FormulaStat, Method, MinimizeMode,
};
use modsyn_bench::{PAPER_TABLE1, TABLE1_BACKTRACK_LIMIT};
use modsyn_check::rng::SplitMix64;
use modsyn_check::verify_solution;
use modsyn_obs::Tracer;
use modsyn_sat::SolverOptions;
use modsyn_sg::{derive, DeriveOptions, StateGraph};
use modsyn_stg::{benchmarks, parse_g, write_g, Stg};

use crate::stats::{geomean, median, quantile, ratio};
use crate::trace::TraceSums;
use crate::{Outcome, JOBS};

/// One STG of a batch workload: the `.g` text the program receives and the
/// specification graph certification compares against, derived during
/// set-up from the generator's own STG (not from the parsed text).
pub struct Item {
    pub name: String,
    pub method: Method,
    pub text: String,
    pub spec: StateGraph,
}

/// The STGs of a batch workload, by generator.
fn sources(workload: &str) -> Option<Vec<(Stg, Method)>> {
    let table = |name: &str| benchmarks::by_name(name).expect("Table-1 benchmark");
    Some(match workload {
        "table1" => PAPER_TABLE1
            .iter()
            .map(|row| (table(row.name), Method::Modular))
            .collect(),
        "logic-bound" => vec![
            (benchmarks::pipeline(8), Method::Modular),
            (benchmarks::pipeline(12), Method::Modular),
        ],
        "sat-bound" => vec![
            (benchmarks::master_read(2, 3), Method::Modular),
            (table("mr0"), Method::Direct),
            (table("mmu0"), Method::Direct),
        ],
        _ => return None,
    })
}

/// Whether `workload` names a batch workload.
pub fn is_batch(workload: &str) -> bool {
    sources(workload).is_some()
}

/// Generates the workload's inputs: `.g` bodies plus specification graphs.
pub fn generate(workload: &str) -> Result<Vec<Item>, String> {
    sources(workload)
        .expect("batch workload")
        .into_iter()
        .map(|(stg, method)| {
            let spec = derive(&stg, &DeriveOptions::default())
                .map_err(|e| format!("{}: spec derivation: {e}", stg.name()))?;
            Ok(Item {
                name: stg.name().to_string(),
                method,
                text: write_g(&stg),
                spec,
            })
        })
        .collect()
}

/// What one STG's trip to a certified circuit took and produced.
#[derive(Debug, Clone)]
pub struct Run {
    /// parse, derive, resolve, logic, certify — seconds each.
    pub stages: [f64; 5],
    pub initial_states: usize,
    pub modules: usize,
    pub formulas: Vec<FormulaStat>,
    pub final_states: usize,
    pub literals: usize,
    pub state_signals: usize,
    pub trace: TraceSums,
}

impl Run {
    pub fn total(&self) -> f64 {
        self.stages.iter().sum()
    }

    /// The deterministic work counters; two runs of one STG must agree.
    fn fingerprint(&self) -> Vec<u64> {
        let sat = |f: fn(&FormulaStat) -> u64| self.formulas.iter().map(f).sum::<u64>();
        vec![
            self.literals as u64,
            self.state_signals as u64,
            self.final_states as u64,
            self.formulas.len() as u64,
            sat(|f| f.solver.conflicts),
            sat(|f| f.solver.propagations),
            sat(|f| f.solver.decisions),
            sat(|f| f.solver.restarts),
            sat(|f| f.solver.learned_clauses),
            self.trace.counter("iterations"),
            select_trials(&self.trace),
        ]
    }
}

fn select_trials(trace: &TraceSums) -> u64 {
    trace.counter("input_set.kept_trials") + trace.counter("input_set.rejected_trials")
}

fn solve_options() -> CscSolveOptions {
    CscSolveOptions {
        solver: SolverOptions {
            max_backtracks: Some(TABLE1_BACKTRACK_LIMIT),
            ..SolverOptions::default()
        },
        ..CscSolveOptions::default()
    }
}

/// Takes one STG from `.g` text to an oracle-certified circuit through the
/// library's public entry points, timing each stage.
pub fn run_item(item: &Item, tracer: &Tracer) -> Result<Run, String> {
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{}: {stage}: {e}", item.name);
    let t0 = Instant::now();
    let stg = parse_g(&item.text).map_err(|e| fail("parse", &e))?;
    let t1 = Instant::now();
    let initial = derive(&stg, &DeriveOptions::default()).map_err(|e| fail("derive", &e))?;
    let t2 = Instant::now();
    let options = solve_options();
    let (graph, formulas, modules) = match item.method {
        Method::Direct => {
            let out = direct_resolve_traced(&initial, &options, tracer)
                .map_err(|e| fail("resolve", &e))?;
            (out.graph, out.formulas, 0)
        }
        _ => {
            let out = modular_resolve_jobs_traced(&initial, &options, JOBS, tracer)
                .map_err(|e| fail("resolve", &e))?;
            let modules = out.modules.len();
            (out.graph, out.formulas, modules)
        }
    };
    let t3 = Instant::now();
    let functions = derive_logic_jobs_traced(&graph, MinimizeMode::Heuristic, JOBS, tracer)
        .map_err(|e| fail("logic", &e))?;
    let t4 = Instant::now();
    let netlist = gate_netlist(&graph, &functions);
    verify_solution(Some(&item.spec), &graph, &netlist).map_err(|e| fail("certify", &e))?;
    let t5 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok(Run {
        stages: [
            secs(t0, t1),
            secs(t1, t2),
            secs(t2, t3),
            secs(t3, t4),
            secs(t4, t5),
        ],
        initial_states: initial.state_count(),
        modules,
        final_states: graph.state_count(),
        literals: total_literals(&functions),
        state_signals: graph.signals().len() - initial.signals().len(),
        formulas,
        trace: if tracer.is_enabled() {
            TraceSums::of(tracer)
        } else {
            TraceSums::default()
        },
    })
}

/// One pass: every item once, in an order drawn from `rng`.
struct Pass {
    wall: f64,
    /// Indexed like the workload's items; `None` where the item failed.
    runs: Vec<Option<Run>>,
}

fn run_pass(items: &[Item], rng: &mut SplitMix64, traced: bool, errors: &mut Vec<String>) -> Pass {
    let mut order: Vec<usize> = (0..items.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut runs = vec![None; items.len()];
    let started = Instant::now();
    for &i in &order {
        // A fresh tracer per STG, so its sums belong to that STG alone.
        let tracer = if traced {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        match run_item(&items[i], &tracer) {
            Ok(run) => runs[i] = Some(run),
            Err(e) => errors.push(e),
        }
    }
    Pass {
        wall: started.elapsed().as_secs_f64(),
        runs,
    }
}

/// Runs the warm-up: the smallest Table-1 STG through each method the
/// workload uses, untraced, so lazy initialisation is not timed.
pub fn warm_up(items: &[Item]) -> Result<(), String> {
    let stg = benchmarks::vbe_ex1();
    let spec = derive(&stg, &DeriveOptions::default()).map_err(|e| e.to_string())?;
    let text = write_g(&stg);
    for method in [Method::Modular, Method::Direct] {
        if items.iter().any(|i| i.method == method) {
            let item = Item {
                name: stg.name().to_string(),
                method,
                text: text.clone(),
                spec: spec.clone(),
            };
            run_item(&item, &Tracer::disabled())?;
        }
    }
    Ok(())
}

/// Checks every item's deterministic counters repeat exactly across
/// `passes`, recording each mismatch in `errors`.
fn check_determinism(items: &[Item], passes: &[Pass], errors: &mut Vec<String>) {
    for (i, item) in items.iter().enumerate() {
        let prints: Vec<Vec<u64>> = passes
            .iter()
            .filter_map(|p| p.runs[i].as_ref().map(Run::fingerprint))
            .collect();
        if let Some(first) = prints.first() {
            if let Some(other) = prints.iter().find(|p| *p != first) {
                errors.push(format!(
                    "{}: deterministic counters differ between passes: {first:?} vs {other:?}",
                    item.name
                ));
            }
        }
    }
}

/// Runs a batch workload for about `seconds`: untraced passes for the
/// end-to-end metrics, or (with `traced`) untraced and traced passes in
/// turn for the per-layer split — at least two traced, so the determinism
/// self-check has a pair to compare.
pub fn run(items: &[Item], seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut rng = SplitMix64::new(seed);
    let mut errors = Vec::new();
    let mut plain: Vec<Pass> = Vec::new();
    let mut with_trace: Vec<Pass> = Vec::new();
    let started = Instant::now();
    loop {
        // Traced runs alternate untraced and traced passes, so slow drift
        // over the run does not show up as tracing overhead.
        let trace_next = traced && plain.len() > with_trace.len();
        let pass = run_pass(items, &mut rng, trace_next, &mut errors);
        if trace_next {
            with_trace.push(pass);
        } else {
            plain.push(pass);
        }
        let done = if traced {
            with_trace.len()
        } else {
            plain.len()
        };
        let needed = if traced { 2 } else { 1 };
        if done >= needed && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let measured = if traced { &with_trace } else { &plain };
    if traced {
        // Per-STG results on standard error, for the record.
        for (i, item) in items.iter().enumerate() {
            if let Some(run) = measured.iter().find_map(|p| p.runs[i].as_ref()) {
                eprintln!(
                    "perfbench: {} {}: literals={} state_signals={} total_ms={:.1}",
                    item.name,
                    item.method,
                    run.literals,
                    run.state_signals,
                    run.total() * 1e3
                );
            }
        }
    }
    check_determinism(items, &plain, &mut errors);
    check_determinism(items, &with_trace, &mut errors);
    let attempted = (plain.len() + with_trace.len()) * items.len();
    let failed = attempted
        - plain
            .iter()
            .chain(&with_trace)
            .map(|p| p.runs.iter().flatten().count())
            .sum::<usize>();
    let mut outcome = Outcome {
        attempted,
        failed,
        errors,
        metrics: BTreeMap::new(),
    };
    if traced {
        layer_metrics(&mut outcome, measured, &plain);
    } else {
        end_to_end_metrics(&mut outcome, items, measured);
    }
    outcome
}

/// End-to-end metrics. The latency quantiles are taken over each STG's
/// median time, so one slow pass does not decide them.
fn end_to_end_metrics(outcome: &mut Outcome, items: &[Item], passes: &[Pass]) {
    let pass_s = median(&passes.iter().map(|p| p.wall).collect::<Vec<_>>());
    let per_stg: Vec<f64> = (0..items.len())
        .map(|i| {
            let times: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.runs[i].as_ref().map(|r| r.total() * 1e3))
                .collect();
            median(&times)
        })
        .filter(|&t| t > 0.0)
        .collect();
    let first = passes[0].runs.iter().flatten();
    let m = &mut outcome.metrics;
    m.insert("pass_s", pass_s);
    m.insert("stg_geomean_ms", geomean(&per_stg));
    m.insert("literals", first.clone().map(|r| r.literals as f64).sum());
    m.insert("state_signals", first.map(|r| r.state_signals as f64).sum());
    m.insert("req_per_s", items.len() as f64 / pass_s);
    m.insert("req_p50_ms", median(&per_stg));
    m.insert("req_p99_ms", quantile(&per_stg, 0.99));
}

/// Per-layer split: the median over the traced passes of each pass's sum.
fn layer_metrics(outcome: &mut Outcome, traced: &[Pass], plain: &[Pass]) {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let sum = |p: &Pass, f: &dyn Fn(&Run) -> f64| p.runs.iter().flatten().map(f).sum::<f64>();
    let stage_ms = |k: usize| per_pass(&|p| sum(p, &|r| r.stages[k] * 1e3));
    let span_ms = |name: &'static str| per_pass(&|p| sum(p, &|r| r.trace.span_ms(name)));
    let formulas = |p: &Pass, f: &dyn Fn(&FormulaStat) -> f64| {
        sum(p, &|r| r.formulas.iter().map(f).sum::<f64>())
    };
    let count = |f: &dyn Fn(&FormulaStat) -> f64| per_pass(&|p| formulas(p, f));
    let trials = per_pass(&|p| sum(p, &|r| select_trials(&r.trace) as f64));
    let kept = per_pass(&|p| sum(p, &|r| r.trace.counter("input_set.kept_trials") as f64));
    let n_formulas = count(&|_| 1.0);
    let traced_wall = per_pass(&|p| p.wall);
    let plain_wall = median(&plain.iter().map(|p| p.wall).collect::<Vec<_>>());
    let other_ms = per_pass(&|p| (p.wall - sum(p, &|r| r.total())) * 1e3);
    let m = &mut outcome.metrics;
    m.insert("stg.parse_ms", stage_ms(0));
    m.insert("sg.derive_ms", stage_ms(1));
    m.insert(
        "sg.states",
        per_pass(&|p| sum(p, &|r| r.initial_states as f64)),
    );
    m.insert("core.select_ms", span_ms("select"));
    m.insert("core.select_trials", trials);
    m.insert("core.select_kept_share", ratio(kept, trials));
    m.insert("core.resolve_ms", stage_ms(2));
    m.insert("core.modules", per_pass(&|p| sum(p, &|r| r.modules as f64)));
    m.insert("core.formulas", n_formulas);
    m.insert(
        "core.formula_sat_share",
        ratio(count(&|f| f64::from(u8::from(f.satisfiable))), n_formulas),
    );
    m.insert("core.encode_vars", count(&|f| f.variables as f64));
    m.insert("core.encode_clauses", count(&|f| f.clauses as f64));
    m.insert(
        "core.final_states",
        per_pass(&|p| sum(p, &|r| r.final_states as f64)),
    );
    m.insert("sat.solve_ms", span_ms("sat.solve"));
    m.insert("sat.conflicts", count(&|f| f.solver.conflicts as f64));
    m.insert("sat.propagations", count(&|f| f.solver.propagations as f64));
    m.insert("sat.decisions", count(&|f| f.solver.decisions as f64));
    m.insert("sat.restarts", count(&|f| f.solver.restarts as f64));
    m.insert(
        "sat.learned_clauses",
        count(&|f| f.solver.learned_clauses as f64),
    );
    m.insert("logic.derive_ms", stage_ms(3));
    m.insert("logic.espresso_ms", span_ms("espresso"));
    m.insert(
        "logic.espresso_calls",
        per_pass(&|p| sum(p, &|r| r.trace.calls("espresso") as f64)),
    );
    m.insert(
        "logic.espresso_iterations",
        per_pass(&|p| sum(p, &|r| r.trace.counter("iterations") as f64)),
    );
    m.insert(
        "logic.cubes_out",
        per_pass(&|p| sum(p, &|r| r.trace.gauge("espresso", "cubes_out"))),
    );
    m.insert("check.certify_ms", stage_ms(4));
    m.insert("bench.other_ms", other_ms);
    m.insert(
        "bench.trace_overhead_share",
        ratio(traced_wall - plain_wall, plain_wall),
    );
}
