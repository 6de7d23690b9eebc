//! The metric tables.  `BENCHMARK.json` at the repository root lists the
//! same names, units, directions and bounds; a unit test keeps the two in
//! step.  `README.md` has each metric's definition and reason.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression; `None` per layer.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// Reported by an untraced run, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("lookups_per_s", "URLs/s", true, 0.25),
    e2e("lookup_p50_us", "us", false, 0.25),
    e2e("update_p50_ms", "ms", false, 0.25),
    e2e("round_trips_per_url", "count", false, 0.15),
    e2e("prefixes_revealed_per_url", "count", false, 0.15),
    e2e("client_db_bytes_per_prefix", "B", false, 0.01),
    e2e("peak_rss_mb", "MB", false, 0.1),
];

/// The exact counts among [`END_TO_END`]: identical on every run of one
/// seed (asserted by `--repeat`).
pub const EXACT: &[&str] = &[
    "round_trips_per_url",
    "prefixes_revealed_per_url",
    "client_db_bytes_per_prefix",
];

/// Reported by a traced run, on every workload (0 where a layer is not on
/// the workload's path).
pub const PER_LAYER: &[MetricDef] = &[
    // sb-url
    layer("url.canonicalize_ns", "ns", false),
    layer("url.decompose_ns", "ns", false),
    layer("url.decomps_per_url", "count", false),
    // sb-hash
    layer("hash.sha256_ns_per_url", "ns", false),
    layer("hash.sha256_ns_per_digest", "ns", false),
    layer("hash.bytes_per_digest", "B", false),
    // sb-store
    layer("store.probe_ns", "ns", false),
    layer("store.probes_per_url", "count", false),
    layer("store.local_hit_share", "ratio", false),
    layer("store.overlay_len", "count", false),
    layer("store.deltas_absorbed", "count", true),
    layer("store.rebuilds", "count", false),
    layer("store.snapshot_load_ms", "ms", false),
    // sb-client
    layer("client.check_url_ns", "ns", false),
    layer("client.self_ns", "ns", false),
    layer("client.explained_share", "ratio", true),
    layer("client.cache_hit_share", "ratio", true),
    layer("client.allocs_per_lookup", "count", false),
    layer("client.allocs_per_local_lookup", "count", false),
    layer("client.requests_per_batch", "count", false),
    layer("client.cover_prefix_share", "ratio", false),
    layer("client.full_sync_ms", "ms", false),
    layer("client.apply_chunks_ms", "ms", false),
    layer("client.ledger_records", "count", false),
    layer("client.lookup_p99_us", "us", false),
    // sb-client retry
    layer("retry.round_trip_us", "us", false),
    layer("retry.retries", "count", false),
    // sb-client TCP
    layer("tcp_client.rtt_us", "us", false),
    layer("tcp_client.rtt_p99_us", "us", false),
    layer("tcp_client.connections_opened", "count", false),
    layer("tcp_client.reuse_share", "ratio", true),
    // sb-wire
    layer("wire.encode_request_ns", "ns", false),
    layer("wire.decode_request_ns", "ns", false),
    layer("wire.encode_response_ns", "ns", false),
    layer("wire.decode_response_ns", "ns", false),
    layer("wire.request_bytes", "B", false),
    layer("wire.response_bytes", "B", false),
    layer("wire.update_bytes_per_prefix", "B", false),
    layer("wire_bytes_per_url", "B", false),
    // sb-server tier
    layer("tier.residual_us", "us", false),
    layer("tier.frames_received", "count", false),
    layer("tier.checksum_failures", "count", false),
    layer("tier.bytes_parity", "ratio", true),
    // sb-server provider
    layer("server.full_hashes_us", "us", false),
    layer("server.full_hashes_p99_us", "us", false),
    layer("server.requests_per_batch", "count", false),
    layer("server.prefixes_per_request", "count", false),
    layer("server.update_ms", "ms", false),
    layer("server.mutate_ms", "ms", false),
    layer("server.journal_live_chunks", "count", false),
    layer("server.journal_compactions", "count", false),
    layer("server.build_ms", "ms", false),
    // sb-telemetry
    layer("telemetry.lookup_p50_skew", "ratio", false),
    layer("trace.overhead_share", "ratio", false),
    // sb-corpus
    layer("corpus.generate_ms", "ms", false),
    // the oracle
    layer("failed_share", "ratio", false),
];

/// Metric values by name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The values of `table`, in table order, 0 for a metric nobody set;
    /// a value set under a name that is not in the table is a bug.
    pub fn in_order(&self, table: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|def| def.name == *name),
                "metric {name} is not in the table it is reported under"
            );
        }
        table.iter().map(|def| (def, self.get(def.name))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `"key": value` pairs out of the flat objects of one JSON
    /// array in `BENCHMARK.json` — enough for a file this crate's own
    /// contract fixes the shape of.
    fn objects_of(json: &str, array: &str) -> Vec<BTreeMap<String, String>> {
        let start = json.find(&format!("\"{array}\"")).expect("array present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        json[open + 1..close]
            .split('}')
            .filter(|object| object.contains('{'))
            .map(|object| {
                let body = &object[object.find('{').unwrap() + 1..];
                body.split(',')
                    .filter_map(|pair| pair.split_once(':'))
                    .map(|(k, v)| {
                        (
                            k.trim().trim_matches('"').to_string(),
                            v.trim().trim_matches('"').to_string(),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (array, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let objects = objects_of(&json, array);
            assert_eq!(objects.len(), table.len(), "{array}: metric count");
            for (object, def) in objects.iter().zip(table) {
                assert_eq!(object["name"], def.name, "{array}");
                assert_eq!(object["unit"], def.unit, "{}", def.name);
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(object["better"], better, "{}", def.name);
                match def.bound {
                    Some(bound) => {
                        assert_eq!(
                            object["bound"].parse::<f64>().unwrap(),
                            bound,
                            "{}",
                            def.name
                        )
                    }
                    None => assert!(!object.contains_key("bound"), "{}", def.name),
                }
            }
        }
        let workloads = objects_of(&json, "workloads");
        let names: Vec<&str> = workloads.iter().map(|w| w["name"].as_str()).collect();
        let ours: Vec<&str> = crate::pool::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_unique_and_exact_metrics_exist() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for exact in EXACT {
            assert!(END_TO_END.iter().any(|d| d.name == *exact));
        }
    }
}
