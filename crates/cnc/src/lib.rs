//! The CDCL SAT core and the engine dispatch point for the CSC encodings.
//!
//! The paper's direct (no-decomposition) method deliberately reproduces
//! the 1994 experience: its monolithic CSC formulas blow the SAT backtrack
//! limit. This crate is the modern counterpoint:
//!
//! * [`Cdcl`] — conflict-driven clause learning with two-watched-literal
//!   propagation (blocker lists), 1-UIP analysis with deep clause
//!   minimisation, heap-backed VSIDS, LBD-aware clause-database reduction
//!   with glue protection, Luby restarts, phase saving, and assumptions;
//! * [`Engine`] / [`solve_with_engine_traced`] — the one dispatch point
//!   the synthesis loop and the `modsat`/`modsyn` CLIs share, over the
//!   CDCL core and the classic `modsyn-sat` engine.
//!
//! Everything honours the workspace-wide cancellation and fault
//! discipline: cancel tokens are polled every few hundred propagations,
//! and the `sat.abort` / `sat.conflict-storm` sites are probed at the same
//! cadence, so existing chaos plans cover this core unchanged.

mod cdcl;
mod engine;

pub use cdcl::{Cdcl, CdclExtra, CdclOptions};
pub use engine::{solve_with_engine, solve_with_engine_traced, Engine};
