//! The metric catalog, the result line the benchmark ends with, and the
//! pieces of the run record that come from outside the library.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mine_s", "s"),
    ("ingest_rows_per_s", "rows/s"),
    ("publish_ms.p50", "ms"),
    ("publish_ms.p90", "ms"),
    ("query_us.p50", "us"),
    ("query_us.p99", "us"),
    ("qps", "1/s"),
    ("recover_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mining.apriori_s", "s"),
    ("mining.close_s", "s"),
    ("mining.frequent", "count"),
    ("mining.closed", "count"),
    ("mining.close_yield", "closed/query"),
    ("dataset.context.build_s", "s"),
    ("dataset.engine.supports", "count"),
    ("dataset.engine.extents", "count"),
    ("dataset.engine.intents", "count"),
    ("dataset.engine.closure_hits", "count"),
    ("dataset.engine.closure_misses", "count"),
    ("dataset.engine.bytes_copied", "bytes"),
    ("core.exact.dg_s", "s"),
    ("core.exact.dg_rules", "count"),
    ("core.approx.lux_full_s", "s"),
    ("core.approx.lux_full_rules", "count"),
    ("core.approx.lux_reduced_s", "s"),
    ("core.approx.lux_reduced_rules", "count"),
    ("lattice.hasse_s", "s"),
    ("stream.push_ms.p50", "ms"),
    ("stream.push_ms.p90", "ms"),
    ("stream.materialize_ms.p50", "ms"),
    ("lattice.replay_s", "s"),
    ("lattice.classes", "count"),
    ("lattice.gen.candidates", "count"),
    ("lattice.gen.subsumption_checks", "count"),
    ("lattice.gen.transversal_fallbacks", "count"),
    ("dataset.engine.calls_during_replay", "count"),
    ("dataset.segments", "count"),
    ("dataset.storage_bytes", "bytes"),
    ("serve.snapshot_build_ms.p50", "ms"),
    ("serve.rules", "count"),
    ("serve.index_probes_per_query", "count"),
    ("serve.rules_scanned_per_query", "count"),
    ("serve.rules_fired_per_query", "count"),
    ("serve.fired_per_scanned", "ratio"),
    ("serve.snapshots_published", "count"),
    ("serve.snapshot_refreshes", "count"),
    ("checkpoint.write_ms.p50", "ms"),
    ("checkpoint.bytes_per_user_byte", "ratio"),
    ("checkpoint.restore_engine_calls", "count"),
    ("trace.mine_overhead_ms", "ms"),
    ("trace.ingest_overhead_ms", "ms"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The measured values of one run, by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// The value of every catalog metric, in catalog order, or an error
    /// naming a metric that is missing, not finite, or not in the catalog.
    pub fn in_catalog<'a>(
        &self,
        catalog: &[(&'a str, &'a str)],
    ) -> Result<Vec<(&'a str, &'a str, f64)>, String> {
        if let Some(extra) = self
            .0
            .keys()
            .find(|k| !catalog.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in the catalog"));
        }
        catalog
            .iter()
            .map(|&(name, unit)| match self.0.get(name) {
                Some(&value) if value.is_finite() => Ok((name, unit, value)),
                Some(value) => Err(format!("metric {name} is {value}")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: u64, failed: u64, values: &[(&str, &str, f64)]) -> String {
    let mut metrics = String::new();
    for (i, (name, unit, value)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    )
}

/// The `(name, unit)` lists of `end_to_end` and `per_layer` in a
/// `BENCHMARK.json` document.
pub fn declared(json: &str) -> Result<[Vec<(String, String)>; 2], String> {
    let doc = serde_json::parse(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let fields = doc.as_object().ok_or("BENCHMARK.json is not an object")?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        let entries = serde::get_field(fields, key)
            .and_then(|v| v.as_array())
            .ok_or(format!("BENCHMARK.json has no {key} list"))?;
        entries
            .iter()
            .map(|entry| {
                let entry = entry.as_object().ok_or(format!("{key}: not an object"))?;
                let text = |k: &str| {
                    serde::get_field(entry, k)
                        .and_then(|v| v.as_str())
                        .map(str::to_owned)
                        .ok_or(format!("{key}: entry without {k}"))
                };
                Ok((text("name")?, text("unit")?))
            })
            .collect()
    };
    Ok([list("end_to_end")?, list("per_layer")?])
}

/// Checks that the catalog and a `BENCHMARK.json` document list the
/// same metrics with the same units, and that every name is legal.
pub fn check_declared(json: &str) -> Result<(), String> {
    let [end_to_end, per_layer] = declared(json)?;
    for (catalog, listed, key) in [
        (END_TO_END, end_to_end, "end_to_end"),
        (PER_LAYER, per_layer, "per_layer"),
    ] {
        let ours: Vec<(String, String)> = catalog
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        if ours != listed {
            return Err(format!(
                "BENCHMARK.json {key} {listed:?} differs from the catalog {ours:?}"
            ));
        }
        if let Some((bad, _)) = ours.iter().find(|(n, _)| !valid_name(n)) {
            return Err(format!("illegal metric name {bad:?}"));
        }
    }
    Ok(())
}

/// The peak resident set of this process, in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs,
    /// the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // 64-bit Linux defines, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    f64::NAN
}

/// The commit of the checkout, read from `.git` under the working
/// directory; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn every_metric_is_declared_with_its_unit() {
        check_declared(&benchmark_json()).expect("catalog matches BENCHMARK.json");
    }

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".p50"));
        assert!(!valid_name("query us"));
        assert!(!valid_name("rows/s"));
    }

    #[test]
    fn result_line_prints_exactly_the_catalog() {
        let catalog: &[(&str, &str)] = &[("a_s", "s"), ("b.p50", "ms")];
        let mut metrics = Metrics::default();
        metrics.set("b.p50", 0.25);
        assert!(metrics.in_catalog(catalog).unwrap_err().contains("a_s"));
        metrics.set("a_s", 1.5);
        let values = metrics.in_catalog(catalog).expect("complete");
        assert_eq!(
            result_line(3, 0, &values),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"b.p50\": {\"value\": 0.25, \"unit\": \"ms\"}}}"
        );
        let parsed = serde_json::parse(&result_line(3, 1, &values)).expect("valid JSON");
        let fields = parsed.as_object().expect("object");
        assert_eq!(
            serde::get_field(fields, "correct").and_then(|v| v.as_bool()),
            Some(false)
        );

        metrics.set("stray", 1.0);
        assert!(metrics.in_catalog(catalog).unwrap_err().contains("stray"));
    }

    #[test]
    fn non_finite_values_are_refused() {
        let mut metrics = Metrics::default();
        metrics.set("a_s", f64::NAN);
        assert!(metrics.in_catalog(&[("a_s", "s")]).is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
