//! Shared helpers: the run result, percentiles, process memory, the
//! seeded generator, and the per-run scratch directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one workload run prints as its last line.
#[derive(Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (requests, records, seals, builds, checks).
    pub attempted: u64,
    /// Operations that failed: `ERR` replies, shed sessions, stream
    /// retries, seal errors and check mismatches.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// The end-to-end metrics every untraced run prints, with their units,
/// in `BENCHMARK.json` order. Each workload gives each one its own
/// meaning (see `NOTES.md`), and none is ever 0.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("work_s", "s")];

/// The per-layer metrics every traced run prints, in `BENCHMARK.json`
/// order. A workload that never calls a layer reports that layer's
/// metrics as 0: no time spent, nothing counted.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("core.simulate_s", "s"),
    ("faultlog.recover_s", "s"),
    ("faultlog.recover_max_node_s", "s"),
    ("faultlog.records_recovered", "count"),
    ("analysis.extract_s", "s"),
    ("analysis.faults_per_mrecord", "count"),
    ("faultdb.seal_s", "s"),
    ("faultdb.db_bytes", "bytes"),
    ("faultdb.query.parse_us", "us"),
    ("faultdb.query.exec_us.window", "us"),
    ("faultdb.query.exec_us.point", "us"),
    ("faultdb.query.exec_us.scan", "us"),
    ("faultdb.query.exec_us.unpruned", "us"),
    ("faultdb.query.blocks_scanned_ratio", "ratio"),
    ("faultdb.query.shards_scanned_ratio", "ratio"),
    ("faultdb.query.rows_per_match", "ratio"),
    ("faultdb.cache.hit_ratio", "ratio"),
    ("faultdb.cache.evictions", "count"),
    ("faultdb.server.query_p50_us", "us"),
    ("faultdb.server.query_p99_us", "us"),
    ("faultdb.server.queries_per_s", "1/s"),
    ("faultdb.server.wire_us", "us"),
    ("faultdb.server.rejected", "count"),
    ("faultdb.days.collect_s", "s"),
    ("policy.compare_s", "s"),
    ("policy.days_per_s", "days/s"),
    ("faultdb.ingest.stream_s", "s"),
    ("faultdb.ingest.retries", "count"),
    ("faultdb.ingest.push_records_per_s", "records/s"),
    ("faultdb.catalog.seal_total_s", "s"),
    ("faultdb.catalog.seal_p50_ms", "ms"),
    ("faultdb.catalog.seal_us_per_record", "us"),
    ("faultdb.wal.bytes_per_record", "bytes"),
    ("faultdb.catalog.gen_bytes_ratio", "ratio"),
    ("faultdb.repl.catchup_s", "s"),
    ("faultdb.repl.applied", "count"),
    ("faultdb.repl.seals", "count"),
    ("faultdb.repl.lag_max", "count"),
    ("faultdb.cache.hit_ratio.live", "ratio"),
    ("mix.window.count", "count"),
    ("mix.window.time_share", "ratio"),
    ("mix.point.count", "count"),
    ("mix.point.time_share", "ratio"),
    ("mix.scan.count", "count"),
    ("mix.scan.time_share", "ratio"),
    ("mix.unpruned.count", "count"),
    ("mix.unpruned.time_share", "ratio"),
    ("trace.traced_over_untraced", "ratio"),
];

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Put the metrics in the manifest's order and check them against it:
    /// an untraced run must have measured every end-to-end metric, and a
    /// traced run's unmeasured layers are filled in as 0. A metric outside
    /// the list, or in another unit, is an error.
    pub fn finish(&mut self, traced: bool) -> Result<(), String> {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        if let Some((name, _, unit)) = self
            .metrics
            .iter()
            .find(|(n, _, u)| !list.contains(&(n.as_str(), *u)))
        {
            return Err(format!("metric {name} ({unit}) is not in the manifest"));
        }
        let mut ordered = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some(&(_, v, _)) if v.is_finite() => v,
                Some(_) => return Err(format!("metric {name} is not a finite number")),
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !traced && value <= 0.0 {
                return Err(format!("metric {name} is not positive"));
            }
            ordered.push((name.to_string(), value, unit));
        }
        self.metrics = ordered;
        Ok(())
    }

    /// Record a check: one attempted operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile (nearest rank) of a sample, or `None` unless at
/// least ten samples lie beyond it: a tail figure resting on fewer
/// events is noise, not a measurement.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let beyond = ((n as f64) * (1.0 - q)).floor() as usize;
    if n == 0 || beyond < 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(v[rank - 1])
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// SplitMix64: the benchmark's own seeded stream, so every input the
/// program receives is a function of `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A scratch directory under the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh (emptied) subdirectory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still holds a directory there).
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Total size of the regular files in `dir` whose names satisfy `keep`.
pub fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_str().is_some_and(&keep))
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn manifest_lists_every_metric_with_its_unit() {
        let manifest = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let entries = manifest.matches("\"unit\"").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                manifest.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn finish_orders_fills_and_rejects() {
        let mut out = Outcome::default();
        out.metric("work_s", 2.0, "s");
        out.metric("setup_s", 1.0, "s");
        assert!(out.finish(false).is_err(), "peak_rss_mb is missing");
        out.metric("peak_rss_mb", 3.0, "MiB");
        out.finish(false).unwrap();
        let names: Vec<&str> = out.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, ["setup_s", "peak_rss_mb", "work_s"]);

        let mut traced = Outcome::default();
        traced.metric("faultdb.repl.seals", 12.0, "count");
        traced.finish(true).unwrap();
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert!(traced
            .metrics
            .iter()
            .all(|(n, v, _)| (*v == 12.0) == (n == "faultdb.repl.seals")));

        let mut wrong = Outcome::default();
        wrong.metric("faultdb.repl.seals", 1.0, "s");
        assert!(
            wrong.finish(true).is_err(),
            "a unit other than the manifest's"
        );
    }

    #[test]
    fn json_numbers_keep_a_decimal_point() {
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(0.125), "0.125");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
