//! Solver run statistics.

use std::fmt;

/// Counters accumulated over one [`crate::Solver::solve`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals assigned by unit propagation.
    pub propagations: u64,
    /// Chronological backtracks (conflicts).
    pub backtracks: u64,
    /// Conflicting clauses encountered (equals `backtracks` today; kept
    /// separate so the semantics survive future non-chronological modes).
    pub conflicts: u64,
    /// Clauses learned by conflict analysis (the `modsyn-cnc` CDCL core
    /// only; includes unit learns that never enter the clause database).
    pub learned_clauses: u64,
    /// Total literals across all learned clauses (after minimisation).
    pub learned_literals: u64,
    /// Restarts performed (the `modsyn-cnc` CDCL core only).
    pub restarts: u64,
    /// Largest clause-database size reached (problem + learned clauses).
    pub peak_clauses: usize,
    /// Highest decision level reached.
    pub max_level: usize,
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} propagations={} backtracks={} conflicts={} learned_clauses={} \
             learned_literals={} restarts={} peak_clauses={} max_level={}",
            self.decisions,
            self.propagations,
            self.backtracks,
            self.conflicts,
            self.learned_clauses,
            self.learned_literals,
            self.restarts,
            self.peak_clauses,
            self.max_level
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_lists_all_counters() {
        let s = SolverStats {
            decisions: 1,
            propagations: 2,
            backtracks: 3,
            conflicts: 4,
            learned_clauses: 5,
            learned_literals: 6,
            restarts: 7,
            peak_clauses: 8,
            max_level: 9,
        };
        let text = s.to_string();
        for needle in [
            "decisions=1",
            "propagations=2",
            "backtracks=3",
            "conflicts=4",
            "learned_clauses=5",
            "learned_literals=6",
            "restarts=7",
            "peak_clauses=8",
            "max_level=9",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn display_order_is_stable() {
        let text = SolverStats::default().to_string();
        let keys: Vec<&str> = text
            .split_whitespace()
            .map(|kv| kv.split('=').next().unwrap())
            .collect();
        assert_eq!(
            keys,
            [
                "decisions",
                "propagations",
                "backtracks",
                "conflicts",
                "learned_clauses",
                "learned_literals",
                "restarts",
                "peak_clauses",
                "max_level"
            ]
        );
    }
}
