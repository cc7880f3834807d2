//! Durable snapshot (de)serialization.
//!
//! `modsynd --durable DIR` checkpoints the store into snapshot generations
//! and reloads the newest at start, so a restarted daemon answers its warm
//! traffic from the first request. The format is a single deterministic
//! JSON document:
//! both namespaces key-sorted, module keys and digests as hex strings, and
//! `Quat` assignment values packed as one character each (`0`, `1`, `u`,
//! `d`). The daemon's response-cache bodies ride along so even the
//! byte-level HTTP cache survives a restart.

use modsyn_obs::Json;
use modsyn_sat::SolverStats;
use modsyn_sg::{Quat, StateSignalAssignment};

use crate::provenance::{ClauseFamilies, ModuleEntry, Provenance, StoredFormula, SynthRecord};
use crate::store::{Snapshot, SynthStore};

/// Snapshot format version; bump on breaking layout changes.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Everything a snapshot document holds, decoded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotData {
    /// Module solves, keyed by content key.
    pub modules: Vec<(u64, ModuleEntry)>,
    /// Synthesis records, keyed by STG digest.
    pub records: Vec<(u64, SynthRecord)>,
    /// Serving-layer response-cache entries `(cache key, body)`; empty when
    /// the snapshot was taken outside the daemon.
    pub responses: Vec<(u128, String)>,
    /// Highest journal sequence number this snapshot covers (0 when the
    /// snapshot was written outside the write-ahead-journal machinery).
    /// Recovery replays only journal frames *above* this point.
    pub wal_seq: u64,
}

/// Renders a snapshot (plus optional serving-layer response bodies) to the
/// durable JSON document. The journal watermark records that every journal
/// frame with `seq <= wal_seq` is already folded into the snapshot, so
/// recovery replays only the suffix.
pub fn snapshot_doc(snap: &Snapshot, responses: &[(u128, String)], wal_seq: u64) -> Json {
    Json::obj([
        ("version", Json::from(SNAPSHOT_VERSION)),
        ("seq", Json::from(snap.seq)),
        ("wal_seq", Json::from(wal_seq)),
        (
            "modules",
            Json::Arr(
                snap.modules()
                    .iter()
                    .map(|(k, e)| module_to_json(*k, e.as_ref()))
                    .collect(),
            ),
        ),
        (
            "records",
            Json::Arr(
                snap.records()
                    .iter()
                    .map(|(d, r)| record_to_json(*d, r.as_ref()))
                    .collect(),
            ),
        ),
        (
            "responses",
            Json::Arr(
                responses
                    .iter()
                    .map(|(k, body)| {
                        Json::obj([
                            ("key", Json::Str(format!("{k:032x}"))),
                            ("body", Json::Str(body.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a snapshot document produced by [`snapshot_doc`].
///
/// # Errors
///
/// Returns a human-readable message on version mismatch or any missing /
/// mistyped field.
pub fn snapshot_from_json(doc: &Json) -> Result<SnapshotData, String> {
    let version = uint(doc, "version")?;
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
        ));
    }
    let mut data = SnapshotData {
        // Absent in pre-journal documents; those cover no frames.
        wal_seq: doc
            .get("wal_seq")
            .and_then(Json::as_f64)
            .map_or(0, |v| v as u64),
        ..SnapshotData::default()
    };
    for item in arr(doc, "modules")? {
        let key = hex64(item, "key")?;
        data.modules.push((key, module_from_json(item)?));
    }
    for item in arr(doc, "records")? {
        let digest = hex64(item, "digest")?;
        data.records.push((digest, record_from_json(item)?));
    }
    for item in arr(doc, "responses")? {
        let key = str_field(item, "key")?;
        let key =
            u128::from_str_radix(key, 16).map_err(|_| format!("bad response cache key `{key}`"))?;
        data.responses
            .push((key, str_field(item, "body")?.to_string()));
    }
    Ok(data)
}

/// Loads decoded module and record entries into a live store (response
/// entries are the serving layer's business).
pub fn restore_into(store: &SynthStore, data: &SnapshotData) {
    for (key, entry) in &data.modules {
        store.put_module(*key, entry.clone());
    }
    for (digest, record) in &data.records {
        store.put_record(*digest, record.clone());
    }
}

pub(crate) fn module_to_json(key: u64, entry: &ModuleEntry) -> Json {
    Json::obj([
        ("key", Json::Str(format!("{key:016x}"))),
        (
            "assignments",
            Json::Arr(entry.assignments.iter().map(assignment_to_json).collect()),
        ),
        (
            "formulas",
            Json::Arr(entry.formulas.iter().map(formula_to_json).collect()),
        ),
        (
            "provenance",
            Json::Arr(entry.provenance.iter().map(provenance_to_json).collect()),
        ),
    ])
}

pub(crate) fn module_from_json(doc: &Json) -> Result<ModuleEntry, String> {
    Ok(ModuleEntry {
        assignments: arr(doc, "assignments")?
            .iter()
            .map(assignment_from_json)
            .collect::<Result<_, _>>()?,
        formulas: arr(doc, "formulas")?
            .iter()
            .map(formula_from_json)
            .collect::<Result<_, _>>()?,
        provenance: arr(doc, "provenance")?
            .iter()
            .map(provenance_from_json)
            .collect::<Result<_, _>>()?,
    })
}

pub(crate) fn record_to_json(digest: u64, record: &SynthRecord) -> Json {
    Json::obj([
        ("digest", Json::Str(format!("{digest:016x}"))),
        ("benchmark", Json::Str(record.benchmark.clone())),
        (
            "inserted",
            Json::Arr(
                record
                    .inserted
                    .iter()
                    .map(|s| Json::Str(s.clone()))
                    .collect(),
            ),
        ),
        (
            "provenance",
            Json::Arr(record.provenance.iter().map(provenance_to_json).collect()),
        ),
    ])
}

pub(crate) fn record_from_json(doc: &Json) -> Result<SynthRecord, String> {
    Ok(SynthRecord {
        benchmark: str_field(doc, "benchmark")?.to_string(),
        inserted: arr(doc, "inserted")?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "inserted entries must be strings".to_string())
            })
            .collect::<Result<_, _>>()?,
        provenance: arr(doc, "provenance")?
            .iter()
            .map(provenance_from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn assignment_to_json(a: &StateSignalAssignment) -> Json {
    let values: String = a
        .values
        .iter()
        .map(|q| match q {
            Quat::Zero => '0',
            Quat::One => '1',
            Quat::Up => 'u',
            Quat::Down => 'd',
        })
        .collect();
    Json::obj([
        ("name", Json::Str(a.name.clone())),
        ("values", Json::Str(values)),
    ])
}

fn assignment_from_json(doc: &Json) -> Result<StateSignalAssignment, String> {
    let values = str_field(doc, "values")?
        .chars()
        .map(|c| match c {
            '0' => Ok(Quat::Zero),
            '1' => Ok(Quat::One),
            'u' => Ok(Quat::Up),
            'd' => Ok(Quat::Down),
            other => Err(format!("bad quat character `{other}`")),
        })
        .collect::<Result<_, _>>()?;
    Ok(StateSignalAssignment {
        name: str_field(doc, "name")?.to_string(),
        values,
    })
}

/// Field order here is the wire contract; `solver_from_json` reads the same
/// nine [`SolverStats`] counters back.
fn formula_to_json(f: &StoredFormula) -> Json {
    Json::obj([
        ("state_signals", Json::from(f.state_signals)),
        ("clauses", Json::from(f.clauses)),
        ("variables", Json::from(f.variables)),
        ("satisfiable", Json::from(f.satisfiable)),
        (
            "solver",
            Json::obj([
                ("decisions", Json::from(f.solver.decisions)),
                ("propagations", Json::from(f.solver.propagations)),
                ("backtracks", Json::from(f.solver.backtracks)),
                ("conflicts", Json::from(f.solver.conflicts)),
                ("learned_clauses", Json::from(f.solver.learned_clauses)),
                ("learned_literals", Json::from(f.solver.learned_literals)),
                ("restarts", Json::from(f.solver.restarts)),
                ("peak_clauses", Json::from(f.solver.peak_clauses)),
                ("max_level", Json::from(f.solver.max_level)),
            ]),
        ),
    ])
}

fn formula_from_json(doc: &Json) -> Result<StoredFormula, String> {
    let solver = doc
        .get("solver")
        .ok_or_else(|| "formula missing `solver`".to_string())?;
    Ok(StoredFormula {
        state_signals: uint(doc, "state_signals")? as usize,
        clauses: uint(doc, "clauses")? as usize,
        variables: uint(doc, "variables")? as usize,
        satisfiable: bool_field(doc, "satisfiable")?,
        solver: SolverStats {
            decisions: uint(solver, "decisions")?,
            propagations: uint(solver, "propagations")?,
            backtracks: uint(solver, "backtracks")?,
            conflicts: uint(solver, "conflicts")?,
            learned_clauses: uint(solver, "learned_clauses")?,
            learned_literals: uint(solver, "learned_literals")?,
            restarts: uint(solver, "restarts")?,
            peak_clauses: uint(solver, "peak_clauses")? as usize,
            max_level: uint(solver, "max_level")? as usize,
        },
    })
}

fn provenance_to_json(p: &Provenance) -> Json {
    Json::obj([
        ("signal", Json::Str(p.signal.clone())),
        ("module_output", Json::Str(p.module_output.clone())),
        ("module_key", Json::Str(format!("{:016x}", p.module_key))),
        (
            "resolved_pairs",
            Json::Arr(
                p.resolved_pairs
                    .iter()
                    .map(|&(a, b)| Json::Arr(vec![Json::from(a), Json::from(b)]))
                    .collect(),
            ),
        ),
        ("state_signals", Json::from(p.state_signals)),
        ("variables", Json::from(p.variables)),
        ("clauses", Json::from(p.clauses)),
        (
            "families",
            Json::obj([
                ("consistency", Json::from(p.families.consistency)),
                ("persistence", Json::from(p.families.persistence)),
                ("usc", Json::from(p.families.usc)),
                ("resolution", Json::from(p.families.resolution)),
            ]),
        ),
    ])
}

fn provenance_from_json(doc: &Json) -> Result<Provenance, String> {
    let families = doc
        .get("families")
        .ok_or_else(|| "provenance missing `families`".to_string())?;
    Ok(Provenance {
        signal: str_field(doc, "signal")?.to_string(),
        module_output: str_field(doc, "module_output")?.to_string(),
        module_key: hex64(doc, "module_key")?,
        resolved_pairs: arr(doc, "resolved_pairs")?
            .iter()
            .map(|pair| {
                let items = pair
                    .as_arr()
                    .ok_or_else(|| "resolved pair must be an array".to_string())?;
                match items {
                    [a, b] => Ok((
                        a.as_f64().ok_or("bad pair index")? as usize,
                        b.as_f64().ok_or("bad pair index")? as usize,
                    )),
                    _ => Err("resolved pair must have two indices".to_string()),
                }
            })
            .collect::<Result<_, _>>()?,
        state_signals: uint(doc, "state_signals")? as usize,
        variables: uint(doc, "variables")? as usize,
        clauses: uint(doc, "clauses")? as usize,
        families: ClauseFamilies {
            consistency: uint(families, "consistency")? as usize,
            persistence: uint(families, "persistence")? as usize,
            usc: uint(families, "usc")? as usize,
            resolution: uint(families, "resolution")? as usize,
        },
    })
}

fn arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array `{key}`"))
}

pub(crate) fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn uint(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool `{key}`")),
    }
}

pub(crate) fn hex64(doc: &Json, key: &str) -> Result<u64, String> {
    let text = str_field(doc, key)?;
    u64::from_str_radix(text, 16).map_err(|_| format!("bad hex `{key}`: `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_obs::parse_json;

    fn sample_store() -> SynthStore {
        let store = SynthStore::new();
        store.put_module(
            0xdead_beef,
            ModuleEntry {
                assignments: vec![StateSignalAssignment {
                    name: "csc0".into(),
                    values: vec![Quat::Zero, Quat::Up, Quat::One, Quat::Down],
                }],
                formulas: vec![StoredFormula {
                    state_signals: 1,
                    clauses: 42,
                    variables: 8,
                    satisfiable: true,
                    solver: SolverStats {
                        decisions: 3,
                        propagations: 17,
                        backtracks: 1,
                        conflicts: 1,
                        learned_clauses: 1,
                        learned_literals: 2,
                        restarts: 0,
                        peak_clauses: 44,
                        max_level: 5,
                    },
                }],
                provenance: vec![Provenance {
                    signal: "csc0".into(),
                    module_output: "y".into(),
                    module_key: 0xdead_beef,
                    resolved_pairs: vec![(0, 2)],
                    state_signals: 1,
                    variables: 8,
                    clauses: 42,
                    families: ClauseFamilies {
                        consistency: 30,
                        persistence: 4,
                        usc: 6,
                        resolution: 2,
                    },
                }],
            },
        );
        store.put_record(
            0x1234,
            SynthRecord {
                benchmark: "vbe-ex1".into(),
                inserted: vec!["csc0".into()],
                provenance: Vec::new(),
            },
        );
        store
    }

    #[test]
    fn snapshot_round_trips_through_json_text() {
        let store = sample_store();
        let snap = store.snapshot();
        let responses = vec![(0xabc_u128, "{\"certified\":true}\n".to_string())];
        let doc = snapshot_doc(&snap, &responses, 7);
        let text = doc.pretty();
        let parsed = parse_json(&text).unwrap();
        let data = snapshot_from_json(&parsed).unwrap();

        assert_eq!(data.modules.len(), 1);
        assert_eq!(data.records.len(), 1);
        assert_eq!(data.responses, responses);
        assert_eq!(data.wal_seq, 7);
        let entry = &data.modules[0].1;
        assert_eq!(
            *entry,
            *store.get_module(0xdead_beef).unwrap(),
            "module entry must survive the round trip bit-for-bit"
        );
        assert_eq!(data.records[0].1.benchmark, "vbe-ex1");

        // Restoring into a fresh store reproduces the same snapshot text.
        let fresh = SynthStore::new();
        restore_into(&fresh, &data);
        let again = snapshot_doc(&fresh.snapshot(), &responses, 7).pretty();
        assert_eq!(text, again);
    }

    #[test]
    fn version_and_field_errors_are_reported() {
        let doc = parse_json("{\"version\": 99}").unwrap();
        let err = snapshot_from_json(&doc).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        let doc = parse_json("{\"version\": 1, \"modules\": [{}]}").unwrap();
        assert!(snapshot_from_json(&doc).is_err());
    }
}
