//! `campaign-direct`: the full machine (`CampaignConfig::small(seed, 72)`)
//! simulated and streamed straight into one fsynced, sealed database by
//! `direct::campaign_to_db`. No server, WAL or query engine runs.

use std::path::Path;
use std::time::Instant;

use unprotected_computing::core::{run_campaign, run_campaign_checkpointed, CampaignConfig};
use unprotected_computing::direct::campaign_to_db;
use unprotected_computing::faultdb::format::write_db;
use unprotected_computing::faultdb::{build_db, DirectFold, FaultDb, Snapshot, WriteOptions};
use unprotected_computing::faultlog::files::write_cluster_log_compact;
use unprotected_computing::faultlog::ingest::recover_log;
use unprotected_computing::parallel::par_map;

use crate::trace::Tracer;
use crate::util::{median, peak_rss_mib, secs, Outcome, WorkDir};

/// Blades of the full machine.
const BLADES: u32 = 72;
/// Timed builds per run, at least: one build is one event.
const MIN_BUILDS: usize = 2;
/// Fixture generations per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

pub fn run(seed: u64, seconds: f64, tracer: &Tracer, work: &WorkDir) -> Result<Outcome, String> {
    let cfg = CampaignConfig::small(seed, BLADES);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    // Set-up: the compact text route's report for the same seed and
    // blade count, the oracle every timed build is checked against.
    // Set-ups and timed builds alternate, so `setup_s` samples the whole
    // run.
    let mut setup_s = Vec::new();
    let mut oracle: Option<String> = None;

    // Timed builds: config to renamed, fsynced db. A traced run makes
    // one, the bytes its staged builds are checked against.
    let builds = if tracer.enabled() { 1 } else { MIN_BUILDS };
    let t_run = Instant::now();
    let mut build_s = Vec::new();
    let mut first_bytes: Option<Vec<u8>> = None;
    while build_s.len() < builds || (secs(t_run) < seconds && !tracer.enabled()) {
        set_up(&cfg, work, &mut setup_s, &mut oracle, &mut out)?;
        let k = build_s.len();
        let db = work.path().join(format!("direct-{k}.ucfdb"));
        let ckpt = work
            .fresh(&format!("direct-ckpt-{k}"))
            .map_err(|e| e.to_string())?;
        out.attempted += 1;
        let t0 = Instant::now();
        if let Err(e) = campaign_to_db(&cfg, &ckpt, &db, &WriteOptions::default()) {
            out.failed += 1;
            out.correct = false;
            eprintln!("campaign_to_db failed: {e}");
            break;
        }
        build_s.push(secs(t0));
        let bytes = std::fs::read(&db).map_err(|e| e.to_string())?;
        out.check(
            Some(report_of(&db)?) == oracle,
            "direct db report differs from the compact route",
        );
        match &first_bytes {
            Some(first) => out.check(*first == bytes, "direct builds are not byte-identical"),
            None => first_bytes = Some(bytes),
        }
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_dir_all(&ckpt);
    }
    if build_s.is_empty() {
        return Ok(out);
    }

    if !tracer.enabled() {
        while setup_s.len() < SETUP_REPS {
            set_up(&cfg, work, &mut setup_s, &mut oracle, &mut out)?;
        }
        out.metric("setup_s", median(&setup_s), "s");
        // The unit of work is one build: config to renamed, fsynced db.
        out.metric("work_s", median(&build_s), "s");
        out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
        return Ok(out);
    }

    // Traced run: the same build staged layer by layer from this crate,
    // once untraced, the baseline of the tracing overhead, then traced.
    let mut staged_s = Vec::new();
    let mut staged = None;
    let untraced = Tracer::new(false);
    for (k, t) in [&untraced, tracer].into_iter().enumerate() {
        let db = work.path().join(format!("staged-{k}.ucfdb"));
        let ckpt = work
            .fresh(&format!("staged-ckpt-{k}"))
            .map_err(|e| e.to_string())?;
        out.attempted += 1;
        let t0 = Instant::now();
        staged = Some(staged_build(&cfg, &ckpt, &db, t)?);
        staged_s.push(secs(t0));
        out.check(
            std::fs::read(&db).ok() == first_bytes,
            "staged build is not byte-identical to campaign_to_db",
        );
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_dir_all(&ckpt);
    }
    let staged = staged.expect("two staged builds ran");
    let (untraced_s, traced_s) = (staged_s[0], staged_s[1]);
    let per_node = tracer.durations("faultlog.recover.node");
    let span_total = |name: &str| tracer.durations(name).iter().sum::<f64>();
    out.metric("core.simulate_s", span_total("core.simulate"), "s");
    out.metric("faultlog.recover_s", per_node.iter().sum(), "s");
    out.metric(
        "faultlog.recover_max_node_s",
        per_node.iter().copied().fold(0.0, f64::max),
        "s",
    );
    out.metric("faultlog.records_recovered", staged.records as f64, "count");
    out.metric("analysis.extract_s", span_total("analysis.extract"), "s");
    out.metric(
        "analysis.faults_per_mrecord",
        staged.faults as f64 * 1e6 / staged.records.max(1) as f64,
        "count",
    );
    out.metric("faultdb.seal_s", span_total("faultdb.seal"), "s");
    out.metric("faultdb.db_bytes", staged.db_bytes as f64, "bytes");
    out.metric("trace.traced_over_untraced", traced_s / untraced_s, "ratio");
    crate::trace::write_report(
        tracer,
        &crate::trace_path("campaign-direct", seed),
        untraced_s,
        traced_s,
    )
    .map_err(|e| e.to_string())?;
    Ok(out)
}

/// One timed set-up: the compact route's report, checked against the
/// first set-up's.
fn set_up(
    cfg: &CampaignConfig,
    work: &WorkDir,
    setup_s: &mut Vec<f64>,
    oracle: &mut Option<String>,
    out: &mut Outcome,
) -> Result<(), String> {
    let t0 = Instant::now();
    let report = compact_route_report(cfg, work, setup_s.len())?;
    setup_s.push(secs(t0));
    match oracle {
        Some(first) => out.check(
            *first == report,
            "compact route report differs between set-ups",
        ),
        None => *oracle = Some(report),
    }
    Ok(())
}

/// Campaign → compact text corpus → `build_db` → report: the route the
/// direct path must match byte for byte.
fn compact_route_report(
    cfg: &CampaignConfig,
    work: &WorkDir,
    rep: usize,
) -> Result<String, String> {
    let logs = work
        .fresh(&format!("compact-{rep}"))
        .map_err(|e| e.to_string())?;
    let result = run_campaign(cfg);
    write_cluster_log_compact(&logs, &result.cluster_log()).map_err(|e| e.to_string())?;
    let db = work.path().join(format!("compact-{rep}.ucfdb"));
    build_db(&logs, &db, &WriteOptions::default()).map_err(|e| e.to_string())?;
    let report = report_of(&db)?;
    let _ = std::fs::remove_dir_all(&logs);
    let _ = std::fs::remove_file(&db);
    Ok(report)
}

fn report_of(db: &Path) -> Result<String, String> {
    let db = FaultDb::open(db).map_err(|e| e.to_string())?;
    Ok(db.snapshot().map_err(|e| e.to_string())?.report_text())
}

struct Staged {
    records: u64,
    faults: u64,
    db_bytes: u64,
}

/// `campaign_to_db` split at its layer boundaries: simulate every node,
/// recover each node's log (two workers, one span per node), then the
/// seal — fold, extract, write — exactly as `seal_recovered` runs it.
/// Unlike the pipelined path, recovery starts only after the last node
/// is simulated and every node's log is held at once, so the per-layer
/// figures come from a build without the simulate/recover overlap. The
/// tracing overhead compares this build with itself, untraced.
fn staged_build(
    cfg: &CampaignConfig,
    ckpt: &Path,
    db: &Path,
    tracer: &Tracer,
) -> Result<Staged, String> {
    tracer.span("campaign.build", None, |root| {
        let result = tracer.span("core.simulate", Some(root), |_| {
            run_campaign_checkpointed(cfg, ckpt)
        });
        let logs: Vec<_> = result.completed().map(|sim| &sim.log).collect();
        let recovered = tracer.span("faultlog.recover", Some(root), |parent| {
            par_map(&logs, |_, log| {
                tracer.span("faultlog.recover.node", Some(parent), |_| recover_log(log))
            })
        });
        let records: u64 = recovered.iter().map(|r| r.log.raw_record_count()).sum();
        tracer.span("faultdb.seal", Some(root), |seal| {
            let (cluster, stats) = tracer.span("faultdb.fold", Some(seal), |_| {
                let mut fold = DirectFold::new();
                for rec in recovered {
                    fold.add(rec);
                }
                fold.into_cluster()
            });
            let snapshot = tracer.span("analysis.extract", Some(seal), |_| {
                Snapshot::from_cluster(&cluster, stats)
            });
            drop(cluster);
            let summary = tracer
                .span("faultdb.write", Some(seal), |_| {
                    write_db(&snapshot, db, &WriteOptions::default())
                })
                .map_err(|e| e.to_string())?;
            Ok(Staged {
                records,
                faults: snapshot.faults.len() as u64,
                db_bytes: summary.bytes,
            })
        })
    })
}
