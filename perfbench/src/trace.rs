//! Per-layer sums over the events an enabled [`Tracer`] recorded.
//!
//! Spans are summed by name over *all* roots. Under `jobs > 1` the
//! `logic:*` and `espresso` spans opened on worker-pool threads have no
//! parent in the submitting thread's tree (they become orphan roots), so a
//! tree walk from the `synthesize`/`modular` root would miss them. Summed
//! durations are busy time across workers and can exceed wall time; no
//! self-time is derived from them.

use std::collections::HashMap;

use modsyn_obs::{Event, Tracer};

/// Span durations, call counts, counters and gauges by span name.
#[derive(Debug, Default, Clone)]
pub struct TraceSums {
    span_us: HashMap<String, u64>,
    span_calls: HashMap<String, u64>,
    /// Counter name → summed delta, whichever span owns it: counters
    /// recorded on worker-pool threads have no owner in the submitter's
    /// tree.
    counters: HashMap<String, u64>,
    /// `(owning span name, gauge name)` → sum of each span's last sample.
    gauges: HashMap<(String, String), f64>,
}

impl TraceSums {
    /// Aggregates every event `tracer` recorded. A span nested inside a
    /// span of the same name (a solver entry point calling another) counts
    /// once, at its outermost occurrence.
    pub fn of(tracer: &Tracer) -> TraceSums {
        let events = tracer.events();
        let mut names: HashMap<u64, (String, Option<u64>, u64)> = HashMap::new();
        let mut sums = TraceSums::default();
        let mut last_gauge: HashMap<(u64, String), f64> = HashMap::new();
        for event in &events {
            match event {
                Event::SpanStart {
                    id,
                    parent,
                    name,
                    at_us,
                } => {
                    names.insert(*id, (name.clone(), *parent, *at_us));
                }
                Event::SpanEnd { id, at_us } => {
                    let Some((name, parent, start)) = names.get(id) else {
                        continue;
                    };
                    if has_ancestor_named(&names, *parent, name) {
                        continue;
                    }
                    *sums.span_us.entry(name.clone()).or_default() += at_us - start;
                    *sums.span_calls.entry(name.clone()).or_default() += 1;
                }
                Event::Counter { name, delta, .. } => {
                    *sums.counters.entry(name.clone()).or_default() += delta;
                }
                Event::Gauge { span, name, value } => {
                    if let Some(id) = span {
                        last_gauge.insert((*id, name.clone()), *value);
                    }
                }
                Event::Note { .. } => {}
            }
        }
        for ((id, gauge), value) in last_gauge {
            let owner = owner_name(&names, Some(id));
            *sums.gauges.entry((owner, gauge)).or_default() += value;
        }
        sums
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &TraceSums) {
        for (k, v) in &other.span_us {
            *self.span_us.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.span_calls {
            *self.span_calls.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_default() += v;
        }
    }

    /// Summed duration of the spans named `name`, in milliseconds.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.span_us.get(name).copied().unwrap_or(0) as f64 / 1e3
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.span_calls.get(name).copied().unwrap_or(0)
    }

    /// Counter `name` summed over every span.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge `gauge` summed over the spans named `span` (each span's last
    /// sample).
    pub fn gauge(&self, span: &str, gauge: &str) -> f64 {
        self.gauges
            .get(&(span.to_string(), gauge.to_string()))
            .copied()
            .unwrap_or(0.0)
    }
}

fn owner_name(names: &HashMap<u64, (String, Option<u64>, u64)>, span: Option<u64>) -> String {
    span.and_then(|id| names.get(&id))
        .map_or_else(String::new, |(n, _, _)| n.clone())
}

fn has_ancestor_named(
    names: &HashMap<u64, (String, Option<u64>, u64)>,
    mut parent: Option<u64>,
    name: &str,
) -> bool {
    while let Some(id) = parent {
        let Some((n, p, _)) = names.get(&id) else {
            return false;
        };
        if n == name {
            return true;
        }
        parent = *p;
    }
    false
}
