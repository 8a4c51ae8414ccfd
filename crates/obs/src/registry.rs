//! A [`Registry`] of named counters and histograms — the session-level
//! metric store of `twq-prof`.
//!
//! Where [`RunMetrics`](crate::metrics::RunMetrics) describes *one* run,
//! a `Registry` accumulates across a whole session (an experiment sweep, a
//! serving process): evaluators feed it phase timings through the
//! [`Collector`](crate::collect::Collector) seam (see
//! [`MetricsCollector::with_registry`](crate::collect::MetricsCollector::with_registry)),
//! and harness code records latencies and telemetry directly. A snapshot
//! serializes as one JSON Lines record, so a long-lived process can emit
//! a metrics stream without any external dependency.

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::json::Json;

/// Named counters (monotonic `u64`) and [`Histogram`]s. Names are
/// free-form; the workspace convention is `area/detail` paths
/// (`pool/steals`, `latency/E1`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    /// Sequence number of the next snapshot.
    seq: u64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if delta == 0 && !self.counters.contains_key(name) {
            // Register the name so it appears in snapshots even when zero.
            self.counters.insert(name.to_owned(), 0);
            return;
        }
        *self.counters.entry_or_default(name) += delta;
    }

    /// Record one sample into the named histogram.
    pub fn hist_record(&mut self, name: &str, v: u64) {
        self.hists.entry_or_default(name).record(v);
    }

    /// Fold a whole histogram into the named one.
    pub fn hist_merge(&mut self, name: &str, h: &Histogram) {
        self.hists.entry_or_default(name).merge(h);
    }

    /// A snapshot of everything recorded so far.
    pub fn snapshot(&mut self) -> Snapshot {
        let seq = self.seq;
        self.seq += 1;
        Snapshot {
            seq,
            counters: self.counters.clone(),
            hists: self.hists.clone(),
        }
    }
}

/// `BTreeMap::entry(...).or_default()` without the owned-key allocation on
/// the hit path.
trait EntryOrDefault<V: Default> {
    fn entry_or_default(&mut self, key: &str) -> &mut V;
}

impl<V: Default> EntryOrDefault<V> for BTreeMap<String, V> {
    fn entry_or_default(&mut self, key: &str) -> &mut V {
        if !self.contains_key(key) {
            self.insert(key.to_owned(), V::default());
        }
        self.get_mut(key).expect("just inserted")
    }
}

/// One point-in-time view of a [`Registry`], serializable as a single
/// JSONL record and parseable back ([`Snapshot::from_json`] inverts
/// [`Snapshot::to_json`] exactly).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotone sequence number within the source registry.
    pub seq: u64,
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Histograms.
    pub hists: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// The snapshot as one JSON object (one JSONL record).
    pub fn to_json(&self) -> Json {
        let counters: Vec<(String, Json)> = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.into()))
            .collect();
        let hists: Vec<(String, Json)> = self
            .hists
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        Json::obj([
            ("type", Json::str("metrics")),
            ("seq", self.seq.into()),
            ("counters", Json::Obj(counters)),
            ("hists", Json::Obj(hists)),
        ])
    }

    /// Parse a snapshot serialized by [`Snapshot::to_json`].
    pub fn from_json(j: &Json) -> Option<Snapshot> {
        if j.get("type").and_then(Json::as_str) != Some("metrics") {
            return None;
        }
        let pairs = |key: &str| -> Option<&[(String, Json)]> {
            match j.get(key)? {
                Json::Obj(pairs) => Some(pairs),
                _ => None,
            }
        };
        let mut s = Snapshot {
            seq: j.get("seq")?.as_i64()? as u64,
            ..Snapshot::default()
        };
        for (k, v) in pairs("counters")? {
            s.counters.insert(k.clone(), v.as_i64()? as u64);
        }
        for (k, v) in pairs("hists")? {
            s.hists.insert(k.clone(), Histogram::from_json(v)?);
        }
        Some(s)
    }

    /// The snapshot rendered as one JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_hists() {
        let mut r = Registry::new();
        r.counter_add("runs", 2);
        r.counter_add("runs", 3);
        r.counter_add("registered", 0);
        r.hist_record("lat", 100);
        r.hist_record("lat", 200);
        let snap = r.snapshot();
        let counters: Vec<_> = snap
            .counters
            .iter()
            .map(|(k, &v)| (k.as_str(), v))
            .collect();
        assert_eq!(counters, [("registered", 0), ("runs", 5)]);
        assert_eq!(snap.hists.len(), 1);
        assert_eq!(snap.hists["lat"].count(), 2);
    }

    #[test]
    fn snapshot_jsonl_round_trips() {
        let mut r = Registry::new();
        r.counter_add("pool/steals", 3);
        r.hist_record("latency/E1", 12345);
        r.hist_record("latency/E1", 999);
        let snap = r.snapshot();
        let line = snap.to_jsonl();
        let parsed = Json::parse(&line).expect("snapshot renders valid JSON");
        assert_eq!(Snapshot::from_json(&parsed), Some(snap));
        assert_eq!(Snapshot::from_json(&Json::Null), None);
    }
}
