//! Differential properties of the run-aware direct path. `recover_log`
//! keeps each `ErrorRun` whole and derives the plain-corpus accounting
//! from run arithmetic; its oracle is the per-record expansion
//! `recover_text(&log.to_text())`, the plain text file a node would
//! write. On random node logs in first-timestamp order — overlapping
//! runs, same-cell singles inside a run's span, periods above the 45 s
//! merge window, saturating periods, NaN temperatures, out-of-topology
//! nodes, duplicated session markers — the two must agree on:
//!
//! 1. every `IngestStats` field and the node fallback;
//! 2. the records, once the run-aware entries are expanded and
//!    stable-sorted by time;
//! 3. the extracted faults: `extract_node_faults` on the run-aware log
//!    equals `extract_node_faults` on the expanded one.

use proptest::prelude::*;

use uc_analysis::extract::{extract_node_faults, fault_sort_key, ExtractConfig};
use uc_analysis::fault::Fault;
use uc_cluster::NodeId;
use uc_faultlog::codec::write_record_exact_into;
use uc_faultlog::ingest::{recover_log, recover_text, Recovered};
use uc_faultlog::record::{EndRecord, ErrorRecord, LogRecord, StartRecord, TempC};
use uc_faultlog::store::{LogEntry, NodeLog};
use uc_simclock::{SimDuration, SimTime};

/// SplitMix64: the generator's own seeded stream.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

const TEMPS: [Option<f32>; 7] = [
    None,
    Some(35.0),
    Some(41.26),
    Some(f32::NAN),
    Some(-0.0),
    Some(99.95),
    Some(f32::INFINITY),
];

/// Cells as (vaddr, expected, actual). The first two share an address
/// and an XOR pattern with different values: one cell to extraction.
const CELLS: [(u64, u32, u32); 4] = [
    (0x100, 0xFFFF_FFFF, 0xFFFF_FFFE),
    (0x100, 0x0000_0001, 0x0000_0000),
    (0x200, 0xFFFF_FFFF, 0xFFFF_7BFF),
    (0x300, 0x0000_0000, 0x0000_0400),
];

/// A random node log, entries in first-timestamp order. Built with
/// `NodeLog::from_entries` so that negative periods (which only a parsed
/// `ERRORRUN` line can carry) are reachable too.
fn random_log(seed: u64) -> NodeLog {
    let mut g = Gen(seed);
    let home = NodeId::from_name("03-04").unwrap();
    let stranger = NodeId(u32::MAX);
    let mut t = g.pick(&[0i64, 86_400, -5_000, i64::MAX - 4_000]);
    let mut entries = Vec::new();
    for _ in 0..g.below(32) {
        t = t.saturating_add(g.pick(&[0i64, 1, 20, 40, 45, 46, 100, 3_000]));
        let time = SimTime::from_secs(t);
        let node = if g.below(16) == 0 { stranger } else { home };
        let temp = g.pick(&TEMPS).map(TempC);
        let kind = g.below(10);
        if kind < 3 {
            let marker = match kind {
                0 => LogRecord::Start(StartRecord {
                    time,
                    node,
                    alloc_bytes: 3 << 30,
                    temp,
                }),
                1 => LogRecord::End(EndRecord { time, node, temp }),
                _ => LogRecord::AllocFail { time, node },
            };
            entries.push(LogEntry::One(marker));
            if g.below(4) == 0 {
                entries.push(LogEntry::One(marker)); // a shipper duplicate
            }
            continue;
        }
        let (vaddr, expected, actual) = g.pick(&CELLS);
        let first = ErrorRecord {
            time,
            node,
            vaddr,
            phys_page: vaddr >> 12,
            expected,
            actual,
            temp,
        };
        if kind < 6 {
            entries.push(LogEntry::One(LogRecord::Error(first)));
        } else {
            let period = g.pick(&[
                -7i64,
                0,
                1,
                20,
                40,
                45,
                46,
                90,
                1_000,
                i64::MAX / 3,
                i64::MAX,
            ]);
            entries.push(LogEntry::ErrorRun {
                first,
                count: 1 + g.below(40),
                period: SimDuration::from_secs(period),
            });
        }
    }
    NodeLog::from_entries(Some(home), entries)
}

/// The oracle: the log written as plain text and read back.
fn oracle(log: &NodeLog) -> Recovered {
    let mut rec = recover_text(&log.to_text());
    rec.stats.files_read = 1;
    if rec.log.node.is_none() {
        rec.log.node = log.node;
    }
    rec
}

/// Every record, expanded and stable-sorted by time, through the
/// exact-bit renderer (float `==` would miss NaN-vs-NaN).
fn sorted_records(log: &NodeLog) -> String {
    let mut records: Vec<LogRecord> = log.iter().collect();
    records.sort_by_key(LogRecord::time);
    let mut out = String::new();
    for r in &records {
        write_record_exact_into(&mut out, r);
        out.push('\n');
    }
    out
}

/// A fault's sort key plus its temperature's bits.
type FaultView = ((SimTime, u32, u64, u32, u32, u64), Option<u32>);

/// Faults compared field by field, the temperature by its bits.
fn fault_view(faults: &[Fault]) -> Vec<FaultView> {
    faults
        .iter()
        .map(|f| (fault_sort_key(f), f.temp.map(f32::to_bits)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn run_aware_recovery_matches_the_plain_text_oracle(seed in any::<u64>()) {
        let log = random_log(seed);
        let run_aware = recover_log(&log);
        let expanded = oracle(&log);
        prop_assert_eq!(run_aware.stats, expanded.stats, "seed {}", seed);
        prop_assert_eq!(run_aware.log.node, expanded.log.node, "seed {}", seed);
        prop_assert_eq!(
            sorted_records(&run_aware.log),
            sorted_records(&expanded.log),
            "seed {}",
            seed
        );
    }

    #[test]
    fn run_aware_extraction_matches_expanded_extraction(seed in any::<u64>()) {
        let log = random_log(seed);
        let run_aware = recover_log(&log);
        let expanded = oracle(&log);
        let cfg = ExtractConfig::default();
        prop_assert_eq!(
            fault_view(&extract_node_faults(&run_aware.log, &cfg)),
            fault_view(&extract_node_faults(&expanded.log, &cfg)),
            "seed {}",
            seed
        );
    }
}

/// The hand-picked cases the exactness condition names, each checked
/// against extraction over the expanded records.
#[test]
fn runs_outside_the_collapse_condition_extract_exactly() {
    let n = NodeId::from_name("01-01").unwrap();
    let err = |t: i64, vaddr: u64, expected: u32, actual: u32| ErrorRecord {
        time: SimTime::from_secs(t),
        node: n,
        vaddr,
        phys_page: 0,
        expected,
        actual,
        temp: None,
    };
    let run = |first: ErrorRecord, count: u64, period: i64| LogEntry::ErrorRun {
        first,
        count,
        period: SimDuration::from_secs(period),
    };
    let single = |rec: ErrorRecord| LogEntry::One(LogRecord::Error(rec));
    let cases: Vec<(&str, Vec<LogEntry>, usize)> = vec![
        (
            "same-cell single inside a run's span joins its fault",
            vec![
                run(err(100, 0x10, 0xF, 0xE), 10, 40),
                single(err(200, 0x10, 0xF, 0xE)),
            ],
            1,
        ),
        (
            "overlapping same-cell runs are one fault",
            vec![
                run(err(100, 0x10, 0xF, 0xE), 10, 40),
                run(err(130, 0x10, 0x1, 0x0), 10, 40),
            ],
            1,
        ),
        (
            "a period above the window splits every repetition",
            vec![run(err(100, 0x10, 0xF, 0xE), 5, 46)],
            5,
        ),
        (
            "singles bridge a long-period run into one fault",
            vec![
                run(err(100, 0x10, 0xF, 0xE), 3, 80),
                single(err(140, 0x10, 0xF, 0xE)),
                single(err(220, 0x10, 0xF, 0xE)),
            ],
            1,
        ),
        (
            "a saturating run splits once, at the saturation jump",
            vec![run(err(100, 0x10, 0xF, 0xE), 6, i64::MAX)],
            2,
        ),
    ];
    let cfg = ExtractConfig::default();
    for (what, entries, want) in cases {
        let log = NodeLog::from_entries(Some(n), entries);
        let expanded =
            NodeLog::from_entries(Some(n), log.iter().map(LogEntry::One).collect::<Vec<_>>());
        let got = extract_node_faults(&log, &cfg);
        assert_eq!(got.len(), want, "{what}");
        assert_eq!(
            fault_view(&got),
            fault_view(&extract_node_faults(&expanded, &cfg)),
            "{what}"
        );
        let raw: u64 = got.iter().map(|f| f.raw_logs).sum();
        assert_eq!(raw, log.raw_error_count(), "{what}: raw logs conserved");
    }
}

fn hostile_first(t: i64) -> ErrorRecord {
    ErrorRecord {
        time: SimTime::from_secs(t),
        node: NodeId::from_name("01-01").unwrap(),
        vaddr: 0x10,
        phys_page: 0,
        expected: 0xF,
        actual: 0xE,
        temp: None,
    }
}

fn run_log(runs: impl IntoIterator<Item = (i64, u64, i64)>) -> NodeLog {
    let entries = runs
        .into_iter()
        .map(|(t, count, period)| LogEntry::ErrorRun {
            first: hostile_first(t),
            count,
            period: SimDuration::from_secs(period),
        })
        .collect();
    NodeLog::from_entries(NodeId::from_name("01-01"), entries)
}

/// A hostile run cannot be expanded: it stays bounded instead of
/// becoming `count` faults.
#[test]
fn hostile_runs_do_not_explode_into_faults() {
    let cfg = ExtractConfig::default();
    for (count, period) in [
        (u64::MAX, 46),
        (1_000_000_000_000, 3_600),
        (u64::MAX, i64::MAX),
        (u64::MAX, 40),
        (65_536, 46),
        (4_097, 46),
    ] {
        let log = run_log([(100, count, period)]);
        let faults = extract_node_faults(&log, &cfg);
        assert!(faults.len() <= 2, "count {count} period {period}");
        let raw = faults
            .iter()
            .fold(0u64, |acc, f| acc.saturating_add(f.raw_logs));
        assert_eq!(raw, count, "count {count} period {period}");
    }
}

/// The expansion budget is shared by the whole node log: many long-period
/// runs, each small enough to expand on its own, give at most one fault
/// per entry once their sum passes it.
#[test]
fn many_long_period_runs_share_one_expansion_budget() {
    let cfg = ExtractConfig::default();
    let runs: Vec<(i64, u64, i64)> = (0..1_000).map(|i| (i * 10, 65_536, 46)).collect();
    let log = run_log(runs);
    let faults = extract_node_faults(&log, &cfg);
    assert!(faults.len() <= 1_000, "{} faults", faults.len());
    let raw: u64 = faults.iter().map(|f| f.raw_logs).sum();
    assert_eq!(raw, 1_000 * 65_536);

    // At the budget the log is still expanded, and exact.
    let log = run_log([(100, 2_048, 100), (150, 2_048, 100)]);
    let faults = extract_node_faults(&log, &cfg);
    assert_eq!(faults.len(), 4_096);
    let expanded =
        NodeLog::from_entries(log.node, log.iter().map(LogEntry::One).collect::<Vec<_>>());
    assert_eq!(
        fault_view(&faults),
        fault_view(&extract_node_faults(&expanded, &cfg))
    );
    // One record past it, every run is absorbed whole: the second starts
    // inside the first's span, so both are one fault.
    let log = run_log([(100, 2_048, 100), (150, 2_049, 100)]);
    let faults = extract_node_faults(&log, &cfg);
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].raw_logs, 4_097);
}
