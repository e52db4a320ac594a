//! The §6 determinism contract for the parallel analysis pipeline: every
//! stage (recovering ingest, fault extraction, report build) must produce
//! byte-identical output regardless of the worker count, and out-of-order
//! records — which lossy recovery deliberately keeps — must never panic
//! the extraction arithmetic.

mod common;

use common::ScratchDir;
use proptest::prelude::*;

use uc_analysis::extract::{
    extract_cluster_faults, extract_recovered, fault_sort_key, ExtractConfig,
};
use uc_faultlog::ingest::recover_text;
use uc_faultlog::store::ClusterLog;
use uc_parallel::with_thread_limit;
use unprotected_core::{render, run_campaign, CampaignConfig, Report};

/// The full rendered report — the pipeline's final byte stream — is
/// identical at 1, 2, and 8 worker threads.
#[test]
fn full_report_is_byte_identical_across_thread_counts() {
    let result = run_campaign(&CampaignConfig::small(42, 6));
    let one = with_thread_limit(1, || render::full_report(&Report::build(&result)));
    let two = with_thread_limit(2, || render::full_report(&Report::build(&result)));
    let eight = with_thread_limit(8, || render::full_report(&Report::build(&result)));
    assert!(!one.is_empty());
    assert_eq!(one, two);
    assert_eq!(one, eight);
}

/// Render one synthetic ERROR line in the on-disk log format.
fn error_line(node: &str, t: i64, vaddr: u64, actual: u32) -> String {
    format!(
        "ERROR t={t} node={node} vaddr=0x{vaddr:08x} page=0x{page:06x} \
         expected=0xffffffff actual=0x{actual:08x} temp=35.0",
        page = vaddr >> 12
    )
}

/// Recover per-node text files into a cluster log. Recovery stable-sorts
/// entries by start time, so same-instant records keep file order — the
/// tie-heavy case the fully discriminating sort key must break
/// identically on every worker.
fn cluster_from_entries(entries: &[(usize, i64, u64, u32)]) -> ClusterLog {
    const NODES: [&str; 3] = ["01-01", "01-02", "01-03"];
    let mut logs = Vec::new();
    for (idx, name) in NODES.iter().enumerate() {
        let text: String = entries
            .iter()
            .filter(|(n, _, _, _)| n % NODES.len() == idx)
            .map(|&(_, t, vaddr, actual)| error_line(name, t, vaddr, actual) + "\n")
            .collect();
        let rec = recover_text(&text);
        assert!(rec.stats.is_conserved());
        logs.push(rec.log);
    }
    ClusterLog::new(logs)
}

proptest! {
    /// Extraction over arbitrary (including out-of-order and tie-heavy)
    /// record streams is identical at 1 vs 4 worker threads, sorted by the
    /// fully discriminating key, and never panics — in debug builds the
    /// checked time arithmetic asserts on any wrap.
    #[test]
    fn extraction_is_thread_count_invariant(
        entries in prop::collection::vec(
            (0usize..3, 0i64..200_000, prop_oneof![Just(0x100u64), Just(0x200u64), 0u64..0x4000],
             prop_oneof![Just(0xffff_fffeu32), Just(0x7fff_ffffu32), any::<u32>()]),
            0..120,
        ),
    ) {
        let cluster = cluster_from_entries(&entries);
        let cfg = ExtractConfig::default();
        let one = with_thread_limit(1, || extract_cluster_faults(&cluster, &cfg));
        let four = with_thread_limit(4, || extract_cluster_faults(&cluster, &cfg));
        prop_assert_eq!(&one, &four);
        let mut sorted = one.clone();
        sorted.sort_by_key(fault_sort_key);
        prop_assert_eq!(&sorted, &one);
    }
}

/// The §6 contract extended to the database path: a report rendered from
/// a sealed fault database is byte-identical to one rendered straight
/// from the ingested cluster, at every thread count — which is exactly
/// what makes `uc analyze --db` a drop-in replacement for `uc analyze`.
#[test]
fn db_report_is_byte_identical_to_text_report_at_any_thread_count() {
    use unprotected_computing::faultdb::{format::write_db, FaultDb, Snapshot, WriteOptions};

    // Tie-heavy synthetic cluster: same-instant records across nodes, so
    // any ordering wobble in build or scan would change the report.
    let entries: Vec<(usize, i64, u64, u32)> = (0..90)
        .map(|i| {
            (
                i % 3,
                (i as i64 / 9) * 40_000,
                0x100 * (1 + i as u64 % 4),
                0xffff_fffe,
            )
        })
        .collect();
    let cluster = cluster_from_entries(&entries);
    let stats = uc_faultlog::ingest::IngestStats::default();
    let direct = Snapshot::from_cluster(&cluster, stats);

    let dir = ScratchDir::new("pipe-db");
    let path = dir.join("t.fdb");
    // Small blocks so the parallel build and scan actually fan out.
    write_db(
        &direct,
        &path,
        &WriteOptions {
            rows_per_block: 4,
            ..WriteOptions::default()
        },
    )
    .unwrap();

    let baseline = direct.report_text();
    for threads in [1, 2, 8] {
        let report = with_thread_limit(threads, || {
            FaultDb::open(&path)
                .unwrap()
                .snapshot()
                .unwrap()
                .report_text()
        });
        assert_eq!(report, baseline, "threads = {threads}");
    }
    // And the build itself is thread-invariant: re-seal at 1 thread and
    // compare the file bytes.
    let single = dir.join("t1.fdb");
    with_thread_limit(1, || {
        write_db(
            &direct,
            &single,
            &WriteOptions {
                rows_per_block: 4,
                ..WriteOptions::default()
            },
        )
        .unwrap()
    });
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&single).unwrap(),
        "sealed database bytes depend on thread count"
    );
}

/// A hand-built worst case: reordered records with extreme timestamps for
/// the same (vaddr, pattern) key. Recovery stable-sorts entries by start
/// time, so extraction sees MIN+1, 10, 10, 4e9, MAX-1 — and the very
/// first recurrence gap (`10 - (i64::MIN + 1)`) overflows `i64`. Raw
/// `SimTime` subtraction would wrap (and `debug_assert` in this build);
/// the checked recurrence gap must classify the pair as separate faults
/// instead, at every thread count.
#[test]
fn reversed_extreme_timestamps_survive_recovery_and_extraction() {
    // Three nodes with the same pathological stream, so no single node
    // crosses the 50% flood threshold and the k-way merge sees duplicate
    // keys across streams.
    let mut stats = uc_faultlog::ingest::IngestStats::default();
    let mut logs = Vec::new();
    for name in ["01-01", "01-02", "01-03"] {
        let text = [
            error_line(name, 4_000_000_000, 0x100, 0xffff_fffe),
            error_line(name, 10, 0x100, 0xffff_fffe),
            error_line(name, i64::MAX - 1, 0x100, 0xffff_fffe),
            error_line(name, i64::MIN + 1, 0x100, 0xffff_fffe),
            error_line(name, 10, 0x100, 0xffff_fffe),
        ]
        .join("\n")
            + "\n";
        let rec = recover_text(&text);
        assert!(rec.stats.is_conserved());
        assert_eq!(rec.stats.records_kept, 5);
        stats.merge(&rec.stats);
        logs.push(rec.log);
    }
    let cluster = ClusterLog::new(logs);
    let cfg = ExtractConfig::default();
    let one = with_thread_limit(1, || extract_recovered(&cluster, stats, &cfg, 0.5));
    let eight = with_thread_limit(8, || extract_recovered(&cluster, stats, &cfg, 0.5));
    assert!(one.flood_nodes.is_empty());
    // Per node, the two t=10 records are adjacent after recovery's sort
    // and merge into one fault; every other step either overflows the
    // checked gap or exceeds the merge window, so each opens a new fault:
    // four faults per node.
    assert_eq!(one.faults.len(), 12);
    assert_eq!(one.faults, eight.faults);
    let mut sorted = one.faults.clone();
    sorted.sort_by_key(fault_sort_key);
    assert_eq!(sorted, one.faults);
}
