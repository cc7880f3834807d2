//! The search engine: classic chronological DPLL, the branch-and-bound
//! search of the original SIS solver the paper used. Conflict-driven
//! search lives in `modsyn-cnc`'s `Cdcl`.

use modsyn_fault::{site, FaultHook, Faults};
use modsyn_obs::Tracer;
use modsyn_par::CancelToken;

use crate::heuristic::static_scores;
use crate::{CnfFormula, Heuristic, Lit, Model, SolverStats, Var};

/// Search limit and heuristic selection for a [`Solver`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolverOptions {
    /// Branching heuristic.
    pub heuristic: Heuristic,
    /// Abort with [`Outcome::BacktrackLimit`] after this many conflicts,
    /// mirroring the backtrack limit of the SIS branch-and-bound SAT
    /// program the paper used.
    pub max_backtracks: Option<u64>,
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A satisfying assignment was found.
    Satisfiable(Model),
    /// The formula has no satisfying assignment.
    Unsatisfiable,
    /// The backtrack/conflict limit was hit before a verdict (the paper's
    /// "SAT Backtrack Limit" abort).
    BacktrackLimit,
    /// The solver's [`CancelToken`] fired (explicit cancellation or an
    /// expired deadline) before a verdict.
    Aborted,
}

impl Outcome {
    /// Whether the outcome is [`Outcome::Satisfiable`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Satisfiable(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            Outcome::Satisfiable(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the solver gave a definite verdict (sat or unsat).
    pub fn is_decided(&self) -> bool {
        matches!(self, Outcome::Satisfiable(_) | Outcome::Unsatisfiable)
    }
}

const UNASSIGNED: u8 = 2;

#[derive(Debug, Clone, Copy)]
struct ChronoFrame {
    trail_len: usize,
    lit: Lit,
    flipped: bool,
}

/// SAT search engine over a borrowed [`CnfFormula`].
///
/// See the crate-level example; construct one per formula and call
/// [`Solver::solve`].
#[derive(Debug)]
pub struct Solver<'f> {
    formula: &'f CnfFormula,
    options: SolverOptions,
    /// Clause literal arrays, positions 0 and 1 watched.
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<u32>>,
    /// Per-variable values: 0 = false, 1 = true, 2 = unassigned.
    values: Vec<u8>,
    trail: Vec<Lit>,
    qhead: usize,
    /// The decision stack.
    frames: Vec<ChronoFrame>,
    scores: Vec<(f64, f64)>,
    activity: Vec<f64>,
    activity_inc: f64,
    saved_phase: Vec<bool>,
    stats: SolverStats,
    /// Cooperative cancellation, polled every [`CANCEL_POLL_MASK`]+1
    /// search-loop iterations. Inert by default.
    cancel: CancelToken,
    /// Iteration counter driving the cancellation poll cadence.
    tick: u64,
    /// Fault-injection handle, probed at the cancellation cadence. Inert
    /// by default.
    faults: Faults,
    /// Iteration counter driving the fault-probe cadence (kept separate
    /// from `tick` so arming faults never shifts the cancel poll points).
    fault_tick: u64,
}

/// The search loop polls the cancel token once every `CANCEL_POLL_MASK + 1`
/// iterations, keeping the atomic load (and possible clock read) off the
/// hot path.
const CANCEL_POLL_MASK: u64 = 0xFF;

impl<'f> Solver<'f> {
    /// Prepares a solver for `formula`.
    pub fn new(formula: &'f CnfFormula, options: SolverOptions) -> Self {
        let n = formula.num_vars();
        Solver {
            formula,
            options,
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2 * n],
            values: vec![UNASSIGNED; n],
            trail: Vec::new(),
            qhead: 0,
            frames: Vec::new(),
            scores: static_scores(formula, options.heuristic),
            activity: vec![0.0; n],
            activity_inc: 1.0,
            saved_phase: vec![false; n],
            stats: SolverStats::default(),
            cancel: CancelToken::never(),
            tick: 0,
            faults: Faults::none(),
            fault_tick: 0,
        }
    }

    /// Attaches a cancellation token: the search loop polls it
    /// periodically and returns [`Outcome::Aborted`] once it fires. Keeping
    /// this off [`SolverOptions`] preserves that type's `Copy` contract
    /// (DESIGN.md §7).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attaches a fault-injection handle: the search loop probes the
    /// `sat.abort` and `sat.conflict-storm` sites at the cancellation
    /// cadence and returns the corresponding outcome when a rule fires.
    /// Like [`Solver::with_cancel`], this lives off [`SolverOptions`] to
    /// preserve that type's `Copy` contract; a disarmed handle costs one
    /// branch per poll window.
    #[must_use]
    pub fn with_faults(mut self, faults: Faults) -> Self {
        self.faults = faults;
        self
    }

    /// Whether the cancel token should abort the search; polled every
    /// `CANCEL_POLL_MASK + 1` calls (and on the first).
    fn poll_cancelled(&mut self) -> bool {
        if !self.cancel.is_cancellable() {
            return false;
        }
        self.tick = self.tick.wrapping_add(1);
        (self.tick & CANCEL_POLL_MASK) == 1 && self.cancel.is_cancelled()
    }

    /// Probes the armed fault plan (if any) at the cancellation cadence:
    /// `sat.abort` forces an early [`Outcome::Aborted`], and
    /// `sat.conflict-storm` behaves as if the search just burned through
    /// its whole backtrack budget ([`Outcome::BacktrackLimit`]).
    fn poll_injected(&mut self) -> Option<Outcome> {
        if !self.faults.is_armed() {
            return None;
        }
        self.fault_tick = self.fault_tick.wrapping_add(1);
        if (self.fault_tick & CANCEL_POLL_MASK) != 1 {
            return None;
        }
        if self.faults.fire(site::SAT_ABORT) {
            return Some(Outcome::Aborted);
        }
        if self.faults.fire(site::SAT_CONFLICT_STORM) {
            return Some(Outcome::BacktrackLimit);
        }
        None
    }

    /// Statistics of the last [`Solver::solve`] run.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    fn lit_value(&self, lit: Lit) -> u8 {
        let v = self.values[lit.var().index()];
        if v == UNASSIGNED {
            UNASSIGNED
        } else if lit.is_negative() {
            v ^ 1
        } else {
            v
        }
    }

    fn assign(&mut self, lit: Lit) {
        let idx = lit.var().index();
        debug_assert_eq!(self.values[idx], UNASSIGNED);
        self.values[idx] = u8::from(lit.is_positive());
        self.trail.push(lit);
    }

    /// Assigns `lit` unless already set; false if it is already false.
    fn enqueue(&mut self, lit: Lit) -> bool {
        match self.lit_value(lit) {
            0 => false,
            1 => true,
            _ => {
                self.assign(lit);
                true
            }
        }
    }

    /// Propagates all pending assignments; returns the conflicting clause.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !lit;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0usize;
            while i < ws.len() {
                let cid = ws[i];
                let clause = &mut self.clauses[cid as usize];
                if clause[0] == false_lit {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], false_lit);
                let first = clause[0];
                let first_val = {
                    let v = self.values[first.var().index()];
                    if v == UNASSIGNED {
                        UNASSIGNED
                    } else if first.is_negative() {
                        v ^ 1
                    } else {
                        v
                    }
                };
                if first_val == 1 {
                    i += 1;
                    continue;
                }
                let mut moved = false;
                for k in 2..clause.len() {
                    let cand = clause[k];
                    let v = self.values[cand.var().index()];
                    let cand_false = v != UNASSIGNED && (v == 0) != cand.is_negative();
                    if !cand_false {
                        clause.swap(1, k);
                        let new_watch = clause[1];
                        self.watches[new_watch.index()].push(cid);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                if first_val == 0 {
                    self.watches[false_lit.index()] = ws;
                    return Some(cid);
                }
                self.assign(first);
                self.stats.propagations += 1;
                i += 1;
            }
            self.watches[false_lit.index()] = ws;
        }
        None
    }

    fn bump(&mut self, var: Var) {
        let a = &mut self.activity[var.index()];
        *a += self.activity_inc;
        if *a > 1e100 {
            for x in &mut self.activity {
                *x *= 1e-100;
            }
            self.activity_inc *= 1e-100;
        }
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        if self.options.heuristic == Heuristic::FirstUnassigned {
            return self
                .values
                .iter()
                .position(|&v| v == UNASSIGNED)
                .map(|i| Lit::positive(Var::new(i)));
        }
        if self.options.heuristic == Heuristic::Activity {
            let mut best: Option<(f64, usize)> = None;
            for (i, &v) in self.values.iter().enumerate() {
                if v != UNASSIGNED {
                    continue;
                }
                let s = self.activity[i];
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, i));
                }
            }
            return best.map(|(_, i)| Lit::with_polarity(Var::new(i), self.saved_phase[i]));
        }
        let mut best: Option<(f64, usize)> = None;
        for (i, &v) in self.values.iter().enumerate() {
            if v != UNASSIGNED {
                continue;
            }
            let (p, q) = self.scores[i];
            let s = p + q;
            if best.is_none_or(|(bs, _)| s > bs) {
                best = Some((s, i));
            }
        }
        best.map(|(_, i)| {
            let (p, q) = self.scores[i];
            Lit::with_polarity(Var::new(i), p >= q)
        })
    }

    fn unassign_to(&mut self, trail_len: usize) {
        while self.trail.len() > trail_len {
            let l = self.trail.pop().expect("trail shrinks to trail_len");
            let idx = l.var().index();
            self.saved_phase[idx] = l.is_positive();
            self.values[idx] = UNASSIGNED;
        }
        self.qhead = self.trail.len();
    }

    fn attach_clause(&mut self, lits: Vec<Lit>) {
        let cid = self.clauses.len() as u32;
        debug_assert!(lits.len() >= 2);
        self.watches[lits[0].index()].push(cid);
        self.watches[lits[1].index()].push(cid);
        self.clauses.push(lits);
        self.stats.peak_clauses = self.stats.peak_clauses.max(self.clauses.len());
    }

    fn install_problem_clauses(&mut self) -> Option<Outcome> {
        if self.formula.contains_empty_clause() {
            return Some(Outcome::Unsatisfiable);
        }
        for clause in self.formula.clauses() {
            match clause.len() {
                0 => return Some(Outcome::Unsatisfiable),
                1 => {
                    if !self.enqueue(clause[0]) {
                        return Some(Outcome::Unsatisfiable);
                    }
                }
                _ => self.attach_clause(clause.clone()),
            }
        }
        None
    }

    fn reset(&mut self) {
        self.stats = SolverStats::default();
        self.trail.clear();
        self.frames.clear();
        self.qhead = 0;
        self.values.fill(UNASSIGNED);
        for w in &mut self.watches {
            w.clear();
        }
        self.clauses.clear();
        self.activity_inc = 1.0;
        self.tick = 0;
        self.fault_tick = 0;
    }

    /// Runs the search to completion or to a limit. Repeated calls restart
    /// the search from scratch.
    pub fn solve(&mut self) -> Outcome {
        self.reset();
        if let Some(early) = self.install_problem_clauses() {
            return early;
        }
        self.solve_chronological()
    }

    /// [`Solver::solve`] wrapped in a `sat.solve` observability span:
    /// formula size as gauges, the full [`SolverStats`] as counters, and the
    /// outcome as a note. With a disabled tracer this is exactly
    /// [`Solver::solve`] — the search loops themselves are untouched.
    pub fn solve_traced(&mut self, tracer: &Tracer) -> Outcome {
        // `is_observed`, not `is_enabled`: the always-on flight recorder
        // and histograms must see solves even when the event sink is off.
        if !tracer.is_observed() {
            return self.solve();
        }
        let _span = tracer.span("sat.solve");
        let _flight = tracer.flight_span("sat.solve");
        tracer.gauge("vars", self.formula.num_vars() as f64);
        tracer.gauge("clauses", self.formula.clause_count() as f64);
        let fault_sites = [site::SAT_ABORT, site::SAT_CONFLICT_STORM];
        let injected_before = fault_sites.map(|at| self.faults.injected_at(at));
        let outcome = self.solve();
        // Injected fault-site fires land on the flight recorder with the
        // solve's trace id, so a chaos run's aborts are attributable to
        // the request that absorbed them.
        for (at, before) in fault_sites.into_iter().zip(injected_before) {
            let fired = self.faults.injected_at(at).saturating_sub(before);
            if fired > 0 {
                tracer.flight_event(modsyn_obs::FlightKind::Fault, at, fired);
            }
        }
        let s = self.stats;
        tracer.record_hist("sat_conflicts", s.conflicts);
        tracer.record_hist("sat_decisions", s.decisions);
        tracer.counter("decisions", s.decisions);
        tracer.counter("propagations", s.propagations);
        tracer.counter("backtracks", s.backtracks);
        tracer.counter("conflicts", s.conflicts);
        tracer.counter("learned_clauses", s.learned_clauses);
        tracer.counter("learned_literals", s.learned_literals);
        tracer.counter("restarts", s.restarts);
        tracer.gauge("peak_clauses", s.peak_clauses as f64);
        tracer.gauge("max_level", s.max_level as f64);
        tracer.note(
            "outcome",
            match &outcome {
                Outcome::Satisfiable(_) => "sat",
                Outcome::Unsatisfiable => "unsat",
                Outcome::BacktrackLimit => "backtrack-limit",
                Outcome::Aborted => "aborted",
            },
        );
        outcome
    }

    fn build_model(&self) -> Model {
        let values = self.values.iter().map(|&v| v == 1).collect();
        let model = Model::from_values(values);
        debug_assert!(model.check(self.formula));
        model
    }

    fn solve_chronological(&mut self) -> Outcome {
        loop {
            if self.poll_cancelled() {
                return Outcome::Aborted;
            }
            if let Some(injected) = self.poll_injected() {
                return injected;
            }
            if let Some(conflict) = self.propagate() {
                self.stats.backtracks += 1;
                self.stats.conflicts += 1;
                if self.options.heuristic == Heuristic::Activity {
                    for l in self.clauses[conflict as usize].clone() {
                        self.bump(l.var());
                    }
                }
                if let Some(limit) = self.options.max_backtracks {
                    if self.stats.backtracks > limit {
                        return Outcome::BacktrackLimit;
                    }
                }
                loop {
                    let Some(frame) = self.frames.pop() else {
                        return Outcome::Unsatisfiable;
                    };
                    self.unassign_to(frame.trail_len);
                    if !frame.flipped {
                        let flipped_lit = !frame.lit;
                        self.frames.push(ChronoFrame {
                            trail_len: frame.trail_len,
                            lit: flipped_lit,
                            flipped: true,
                        });
                        let ok = self.enqueue(flipped_lit);
                        debug_assert!(ok, "flipped decision literal was already false");
                        break;
                    }
                }
                continue;
            }

            let Some(lit) = self.pick_branch_lit() else {
                return Outcome::Satisfiable(self.build_model());
            };
            self.stats.decisions += 1;
            self.frames.push(ChronoFrame {
                trail_len: self.trail.len(),
                lit,
                flipped: false,
            });
            self.stats.max_level = self.stats.max_level.max(self.frames.len());
            let ok = self.enqueue(lit);
            debug_assert!(ok, "decision literal was already assigned");
        }
    }
}

/// Convenience: solve `formula` with the given options.
///
/// ```
/// use modsyn_sat::{solve, CnfFormula, Lit, SolverOptions, Var};
/// let mut f = CnfFormula::new(1);
/// f.add_clause([Lit::positive(Var::new(0))]);
/// assert!(solve(&f, SolverOptions::default()).is_sat());
/// ```
pub fn solve(formula: &CnfFormula, options: SolverOptions) -> Outcome {
    Solver::new(formula, options).solve()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::with_polarity(Var::new(i), pos)
    }

    /// The solver under each decision heuristic.
    fn every_heuristic() -> [SolverOptions; 4] {
        [
            Heuristic::FirstUnassigned,
            Heuristic::JeroslowWang,
            Heuristic::Moms,
            Heuristic::Activity,
        ]
        .map(|heuristic| SolverOptions {
            heuristic,
            ..Default::default()
        })
    }

    /// Pigeonhole principle PHP(n+1, n): unsatisfiable, exponential for DPLL.
    fn pigeonhole(holes: usize) -> CnfFormula {
        let pigeons = holes + 1;
        let mut f = CnfFormula::new(pigeons * holes);
        let var = |p: usize, h: usize| Var::new(p * holes + h);
        for p in 0..pigeons {
            f.add_clause((0..holes).map(|h| Lit::positive(var(p, h))));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    f.add_clause([Lit::negative(var(p1, h)), Lit::negative(var(p2, h))]);
                }
            }
        }
        f
    }

    #[test]
    fn trivially_sat_both_engines() {
        let mut f = CnfFormula::new(1);
        f.add_clause([lit(0, true)]);
        for opts in every_heuristic() {
            let out = solve(&f, opts);
            assert!(out.is_sat());
            assert!(out.model().unwrap().value(Var::new(0)));
        }
    }

    #[test]
    fn empty_formula_is_sat() {
        let f = CnfFormula::new(3);
        assert!(solve(&f, SolverOptions::default()).is_sat());
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut f = CnfFormula::new(1);
        f.add_clause([lit(0, true)]);
        f.add_clause([lit(0, false)]);
        for opts in every_heuristic() {
            assert_eq!(solve(&f, opts), Outcome::Unsatisfiable);
        }
    }

    #[test]
    fn xor_chain_is_sat_and_model_checks() {
        let mut f = CnfFormula::new(3);
        f.add_clause([lit(0, true), lit(1, true)]);
        f.add_clause([lit(0, false), lit(1, false)]);
        f.add_clause([lit(1, true), lit(2, true)]);
        f.add_clause([lit(1, false), lit(2, false)]);
        for opts in every_heuristic() {
            let out = solve(&f, opts);
            let model = out
                .model()
                .unwrap_or_else(|| panic!("{:?} failed", opts.heuristic));
            assert!(model.check(&f));
        }
    }

    #[test]
    fn pigeonhole_is_unsat_under_both_engines() {
        let f = pigeonhole(3);
        for opts in every_heuristic() {
            assert_eq!(solve(&f, opts), Outcome::Unsatisfiable);
        }
    }

    #[test]
    fn backtrack_limit_aborts_hard_instances() {
        let f = pigeonhole(8);
        let out = solve(
            &f,
            SolverOptions {
                max_backtracks: Some(50),
                ..Default::default()
            },
        );
        assert_eq!(out, Outcome::BacktrackLimit);
        assert!(!out.is_decided());
    }

    #[test]
    fn stats_are_populated() {
        let f = pigeonhole(3);
        let mut solver = Solver::new(&f, SolverOptions::default());
        let _ = solver.solve();
        let stats = solver.stats();
        assert!(stats.backtracks > 0);
        assert!(stats.decisions > 0);
        assert_eq!(stats.conflicts, stats.backtracks);
        assert!(stats.propagations > 0);
        assert!(stats.max_level > 0);
        assert_eq!(stats.peak_clauses, f.clause_count());
    }

    #[test]
    fn chronological_mode_learns_nothing() {
        let f = pigeonhole(3);
        let mut solver = Solver::new(&f, SolverOptions::default());
        let _ = solver.solve();
        let stats = solver.stats();
        assert!(stats.conflicts > 0);
        assert_eq!(stats.learned_clauses, 0);
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.peak_clauses, f.clause_count());
    }

    #[test]
    fn solve_traced_records_a_span_with_counters() {
        let f = pigeonhole(3);
        let tracer = Tracer::enabled();
        let mut solver = Solver::new(&f, SolverOptions::default());
        let outcome = solver.solve_traced(&tracer);
        assert_eq!(outcome, Outcome::Unsatisfiable);
        let report = tracer.report();
        let spans = report.spans_with_prefix("sat.solve");
        assert_eq!(spans.len(), 1);
        let span = spans[0];
        assert_eq!(span.gauge("clauses"), Some(f.clause_count() as f64));
        assert!(span.counter("conflicts").unwrap() > 0);
        assert_eq!(span.note("outcome"), Some("unsat"));
    }

    #[test]
    fn solve_traced_feeds_flight_and_histograms_with_the_sink_off() {
        use modsyn_obs::{FlightKind, FlightRecorder, HistogramRegistry};
        let flight = FlightRecorder::with_capacity(1, 32);
        let hists = HistogramRegistry::new();
        let tracer = Tracer::disabled()
            .with_flight(flight.clone())
            .with_histograms(hists.clone())
            .with_trace(0x51);
        let f = pigeonhole(3);
        let mut solver = Solver::new(&f, SolverOptions::default());
        assert_eq!(solver.solve_traced(&tracer), Outcome::Unsatisfiable);
        let events = flight.events_for_trace(0x51);
        assert!(events
            .iter()
            .any(|e| e.name == "sat.solve" && e.kind == FlightKind::SpanOpen));
        assert!(events
            .iter()
            .any(|e| e.name == "sat.solve" && e.kind == FlightKind::SpanClose));
        let names: Vec<String> = hists.snapshot().into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"sat_conflicts".to_string()));
        assert!(names.contains(&"sat_decisions".to_string()));
    }

    #[test]
    fn solve_traced_with_disabled_tracer_matches_solve() {
        let f = pigeonhole(3);
        let mut a = Solver::new(&f, SolverOptions::default());
        let mut b = Solver::new(&f, SolverOptions::default());
        assert_eq!(a.solve(), b.solve_traced(&Tracer::disabled()));
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn repeated_solve_is_idempotent() {
        let mut f = CnfFormula::new(2);
        f.add_clause([lit(0, true), lit(1, false)]);
        f.add_clause([lit(0, false), lit(1, true)]);
        for opts in every_heuristic() {
            let mut solver = Solver::new(&f, opts);
            let first = solver.solve();
            let second = solver.solve();
            assert_eq!(first, second);
            assert!(first.is_sat());
        }
    }

    #[test]
    fn a_cancelled_token_aborts_both_engines() {
        let f = pigeonhole(6);
        for opts in every_heuristic() {
            let token = CancelToken::new();
            token.cancel();
            let out = Solver::new(&f, opts).with_cancel(token).solve();
            assert_eq!(out, Outcome::Aborted);
            assert!(!out.is_decided());
        }
    }

    #[test]
    fn an_expired_deadline_aborts_a_hard_instance_quickly() {
        use std::time::{Duration, Instant};
        // PHP(10,9) takes far longer than the deadline to decide.
        let f = pigeonhole(9);
        let token = CancelToken::with_deadline(Duration::from_millis(20));
        let started = Instant::now();
        let out = Solver::new(&f, SolverOptions::default())
            .with_cancel(token)
            .solve();
        assert_eq!(out, Outcome::Aborted);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "cooperative abort must land well before the instance decides"
        );
    }

    #[test]
    fn an_inert_token_changes_nothing() {
        let f = pigeonhole(3);
        let mut plain = Solver::new(&f, SolverOptions::default());
        let mut tokened =
            Solver::new(&f, SolverOptions::default()).with_cancel(CancelToken::never());
        assert_eq!(plain.solve(), tokened.solve());
        assert_eq!(plain.stats(), tokened.stats());
    }

    #[test]
    fn aborted_outcome_is_noted_by_solve_traced() {
        let f = pigeonhole(6);
        let token = CancelToken::new();
        token.cancel();
        let tracer = Tracer::enabled();
        let outcome = Solver::new(&f, SolverOptions::default())
            .with_cancel(token)
            .solve_traced(&tracer);
        assert_eq!(outcome, Outcome::Aborted);
        let report = tracer.report();
        assert_eq!(
            report.spans_with_prefix("sat.solve")[0].note("outcome"),
            Some("aborted")
        );
    }

    #[test]
    fn an_armed_abort_fault_aborts_both_engines() {
        use modsyn_fault::{FaultPlan, FaultRule};
        let f = pigeonhole(6);
        for opts in every_heuristic() {
            let faults = FaultPlan::new("t", 1)
                .rule(FaultRule::at(site::SAT_ABORT))
                .arm();
            let out = Solver::new(&f, opts).with_faults(faults.clone()).solve();
            assert_eq!(out, Outcome::Aborted);
            assert_eq!(faults.injected_at(site::SAT_ABORT), 1);
        }
    }

    #[test]
    fn a_conflict_storm_fault_reports_the_backtrack_limit() {
        use modsyn_fault::{FaultPlan, FaultRule};
        let f = pigeonhole(6);
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::SAT_CONFLICT_STORM))
            .arm();
        let out = Solver::new(&f, SolverOptions::default())
            .with_faults(faults)
            .solve();
        assert_eq!(out, Outcome::BacktrackLimit);
    }

    #[test]
    fn an_exhausted_fault_budget_lets_the_search_finish() {
        use modsyn_fault::{FaultPlan, FaultRule};
        let f = pigeonhole(3);
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::SAT_ABORT).times(1))
            .arm();
        let mut solver = Solver::new(&f, SolverOptions::default()).with_faults(faults.clone());
        assert_eq!(solver.solve(), Outcome::Aborted);
        // The single-shot budget is spent; the retry decides the instance.
        assert_eq!(solver.solve(), Outcome::Unsatisfiable);
        assert_eq!(faults.total_injected(), 1);
    }

    #[test]
    fn a_disarmed_handle_changes_nothing() {
        let f = pigeonhole(3);
        let mut plain = Solver::new(&f, SolverOptions::default());
        let mut handled = Solver::new(&f, SolverOptions::default()).with_faults(Faults::none());
        assert_eq!(plain.solve(), handled.solve());
        assert_eq!(plain.stats(), handled.stats());
    }

    #[test]
    fn random_3sat_agreement_between_engines() {
        // The search under every heuristic must agree with the exhaustive
        // referee on satisfiability of small random instances.
        let mut seed = 0x853c49e6748fea9bu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..30 {
            let n = 8;
            let clauses = 3 + (next() % 40) as usize;
            let mut f = CnfFormula::new(n);
            for _ in 0..clauses {
                let a = lit((next() % n as u64) as usize, next() % 2 == 0);
                let b = lit((next() % n as u64) as usize, next() % 2 == 0);
                let c = lit((next() % n as u64) as usize, next() % 2 == 0);
                f.add_clause([a, b, c]);
            }
            let expected = crate::solve_exhaustive(&f).is_sat();
            for opts in every_heuristic() {
                let out = solve(&f, opts);
                assert_eq!(out.is_sat(), expected, "round {round}");
                if let Outcome::Satisfiable(m) = &out {
                    assert!(m.check(&f));
                }
            }
        }
    }
}
