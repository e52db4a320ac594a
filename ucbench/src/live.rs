//! `live-ingest`: the write path. One pusher streams the 8-blade compact
//! corpus node by node into an `IngestServer` (WAL append + fsync before
//! every ack) and seals after each fixed count of accepted records. After
//! every seal one query client sends a fixed batch of reads against the
//! freshly swapped generation while the pusher goes on writing. Once the
//! primary's final seal is in, a `Replication` follower on a second live
//! dir catches up to it, applying the WAL and every seal marker. The unit
//! of work is one such round, from the first push to the caught-up
//! replica.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unprotected_computing::cluster::NodeId;
use unprotected_computing::core::{run_campaign, CampaignConfig};
use unprotected_computing::faultdb::{
    build_db, gen_file_name, stream_lines, IngestConfig, IngestServer, LiveDb, ReplicaConfig,
    Replication, Role, Server, StreamOptions, WriteOptions,
};
use unprotected_computing::faultlog::codec::write_entry_into;

use crate::mix::Mix;
use crate::serve::{client_loop, serve_config, ClientPhase, CLIENTS};
use crate::trace::Tracer;
use crate::util::{dir_bytes, median, peak_rss_mib, percentile, secs, Outcome, Rng, WorkDir};

const BLADES: u32 = 8;
/// Accepted records between seals. The 8-blade corpus holds about 280k
/// records, so every round seals 12 times at the same sizes.
const SEAL_EVERY: u64 = 24_000;
/// Reads sent after each seal: a choice, not observed traffic. Over the
/// 12 seals of a round it gives about 4,800 reads, so the traced round's
/// p99 has about 48 samples beyond it.
const READS_PER_SEAL: usize = 400;
/// Rounds per run, at least; each round is set up afresh.
const MIN_ROUNDS: usize = 2;
/// Nominal length of a round: a run makes one round per `ROUND_S` of
/// `--seconds`. The count follows from the arguments, not from the
/// host's speed, so every run at the same `--seconds` does the same
/// work (peak RSS grows with the round count).
const ROUND_S: f64 = 7.0;
/// Set-ups per round; `setup_s` is the median over all of them.
const SETUP_REPS: usize = 2;
/// Records pushed between FLUSH/ACK round trips (the `StreamOptions`
/// default); every ACK follows the WAL fsync.
const STREAM_BATCH: usize = 64;
/// How long the replica may take to reach the final generation.
const CATCHUP_DEADLINE: Duration = Duration::from_secs(60);

/// One node's compact log as the lines the node would push.
type NodeLines = (NodeId, Vec<String>);

fn corpus(seed: u64) -> Vec<NodeLines> {
    let result = run_campaign(&CampaignConfig::small(seed, BLADES));
    let mut nodes: Vec<NodeLines> = result
        .cluster_log()
        .node_logs()
        .iter()
        .filter_map(|log| {
            let node = log.node?;
            let lines = log
                .entries()
                .iter()
                .map(|e| {
                    let mut line = String::new();
                    write_entry_into(&mut line, e);
                    line
                })
                .collect();
            Some((node, lines))
        })
        .collect();
    // Largest log first: the flood node's records then enter at the same
    // seal for every seed. Pushed by node id, they began around the
    // middle seal, and a seal's time jumps once they are in, so the
    // seed decided how many seals were cheap.
    nodes.sort_by_key(|(n, lines)| (std::cmp::Reverse(lines.len()), n.0));
    nodes
}

struct Fixture {
    corpus: Vec<NodeLines>,
    /// `build_db` over the corpus: the bytes the final generation must have.
    oracle: Vec<u8>,
    primary: Arc<LiveDb>,
    pdir: PathBuf,
    replica: Arc<LiveDb>,
    rdir: PathBuf,
    ingest: IngestServer,
    query: Server,
}

/// Fixture generation and server start: the corpus and its batch-built
/// oracle, a fresh primary live dir with its ingest and query servers,
/// and the replica's live dir.
fn setup(seed: u64, work: &WorkDir, tag: &str) -> Result<Fixture, String> {
    let corpus = corpus(seed);
    let oracle = batch_oracle(&corpus, work, tag)?;
    let pdir = work
        .fresh(&format!("primary-{tag}"))
        .map_err(|e| e.to_string())?;
    let rdir = work
        .fresh(&format!("replica-{tag}"))
        .map_err(|e| e.to_string())?;
    let (primary, _) = LiveDb::open(&pdir).map_err(|e| e.to_string())?;
    let primary = Arc::new(primary);
    let ingest = IngestServer::start_with_role(
        Arc::clone(&primary),
        &IngestConfig {
            workers: CLIENTS,
            ..IngestConfig::default()
        },
        Some(Arc::new(Role::primary())),
    )
    .map_err(|e| e.to_string())?;
    let query = Server::start(primary.handle(), &serve_config()).map_err(|e| e.to_string())?;
    let (replica, _) = LiveDb::open(&rdir).map_err(|e| e.to_string())?;
    Ok(Fixture {
        corpus,
        oracle,
        primary,
        pdir,
        replica: Arc::new(replica),
        rdir,
        ingest,
        query,
    })
}

/// `SETUP_REPS` set-ups, each timed into `setup_s`; all but the last
/// are torn down again.
fn timed_setup(
    seed: u64,
    work: &WorkDir,
    tag: &str,
    setup_s: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<Fixture, String> {
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let fixture = setup(seed, work, &format!("{tag}-{rep}"))?;
        setup_s.push(secs(t0));
        if rep + 1 == SETUP_REPS {
            return Ok(fixture);
        }
        out.failed += teardown(fixture);
    }
    unreachable!("SETUP_REPS is positive")
}

/// Stop both servers; returns the sessions they shed.
fn teardown(f: Fixture) -> u64 {
    f.ingest.shutdown();
    let ingest = f.ingest.join();
    f.query.shutdown();
    let query = f.query.join();
    ingest.rejected + query.rejected
}

struct SealEvent {
    generation: u64,
    /// Records the generation covers.
    records: u64,
    seal_s: f64,
}

#[derive(Default)]
struct Round {
    /// First push to the replica holding the final generation.
    round_s: f64,
    push_s: f64,
    acked: u64,
    retries: u64,
    stream_s: f64,
    seal_errors: u64,
    seals: Vec<SealEvent>,
    catchup_s: f64,
    lag_max: u64,
    repl_applied: u64,
    repl_seals: u64,
    query: ClientPhase,
    cache_hits: u64,
    cache_misses: u64,
}

impl Round {
    fn final_generation(&self) -> u64 {
        self.seals.last().map_or(0, |s| s.generation)
    }
}

/// Push the whole corpus with seals at fixed record counts and reads
/// after each seal, then time a follower catching up to the final seal.
fn round(f: &Fixture, mix: &Mix, seed: u64, tracer: &Tracer) -> Result<Round, String> {
    let addr = f.ingest.local_addr();
    let qaddr = f.query.local_addr();
    let opts = StreamOptions {
        batch: STREAM_BATCH,
        ..StreamOptions::default()
    };
    let mut out = Round::default();
    let t_round = Instant::now();
    tracer.span("live.round", None, |root| {
        std::thread::scope(|s| -> Result<(), String> {
            // Created inside the scope so that an early return drops the
            // sender and the reader ends before the scope joins it.
            let (sealed_tx, sealed_rx) = mpsc::channel::<()>();
            let t0 = Instant::now();
            let primary = &f.primary;
            let reader = s.spawn(move || {
                let mut rng = Rng::new(seed ^ 0x11FE);
                let (mut all, mut hits, mut misses) = (ClientPhase::default(), 0, 0);
                while sealed_rx.recv().is_ok() {
                    // The batch reads the generation the seal just swapped
                    // in, which starts with a cold cache.
                    let engine = primary.handle().current();
                    let before = engine.cache_stats();
                    let batch = tracer.span("live.reads", Some(root), |_| {
                        client_loop(qaddr, mix, &mut rng, None, |n| n < READS_PER_SEAL)
                    });
                    let after = engine.cache_stats();
                    hits += after.hits - before.hits;
                    misses += after.misses - before.misses;
                    all.merge(batch);
                }
                (all, hits, misses)
            });
            let mut acked = 0u64;
            let mut next_seal = SEAL_EVERY;
            let seal = |out: &mut Round, records: u64| {
                let t = Instant::now();
                let r = tracer.span("faultdb.catalog.seal", Some(root), |_| f.primary.seal());
                let seal_s = secs(t);
                match r {
                    Ok(status) => {
                        out.seals.push(SealEvent {
                            generation: status.generation,
                            records,
                            seal_s,
                        });
                        // The reader hangs up only if it panicked; the
                        // join below reports that.
                        let _ = sealed_tx.send(());
                    }
                    Err(e) => {
                        out.seal_errors += 1;
                        eprintln!("seal failed: {e}");
                    }
                }
            };
            for (node, lines) in &f.corpus {
                let mut start = 0usize;
                while start < lines.len() {
                    let end = lines.len().min(start + (next_seal - acked) as usize);
                    let t = Instant::now();
                    let report = tracer
                        .span("faultdb.ingest.stream", Some(root), |_| {
                            stream_lines(addr, *node, &lines[..end], &opts, None)
                        })
                        .map_err(|e| format!("stream {node}: {e}"))?;
                    out.stream_s += secs(t);
                    out.retries += u64::from(report.retries);
                    acked += report.acked - start as u64;
                    start = end;
                    if acked == next_seal {
                        seal(&mut out, acked);
                        next_seal += SEAL_EVERY;
                    }
                }
            }
            if acked + SEAL_EVERY != next_seal {
                seal(&mut out, acked);
            }
            out.push_s = secs(t0);
            out.acked = acked;
            drop(sealed_tx);
            (out.query, out.cache_hits, out.cache_misses) =
                reader.join().expect("reader thread panicked");
            Ok(())
        })?;

        // Catch-up: a follower started at the primary's final seal.
        let want = f.primary.status();
        let mut rcfg = ReplicaConfig::new(&addr.to_string());
        rcfg.poll_interval = Duration::from_millis(5);
        rcfg.pull_max = 4096;
        let t0 = Instant::now();
        let repl = tracer.span(
            "faultdb.repl.catchup",
            Some(root),
            |_| -> Result<Replication, String> {
                let repl = Replication::start(Arc::clone(&f.replica), rcfg);
                loop {
                    let got = f.replica.status();
                    out.lag_max = out.lag_max.max(repl.stats().lag);
                    if got.records == want.records && got.generation == want.generation {
                        return Ok(repl);
                    }
                    if t0.elapsed() > CATCHUP_DEADLINE {
                        return Err("replica did not reach the final generation".to_string());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            },
        )?;
        out.catchup_s = secs(t0);
        out.round_s = secs(t_round);
        let stats = repl.stats();
        out.repl_applied = stats.applied;
        out.repl_seals = stats.seals;
        repl.shutdown();
        Ok::<(), String>(())
    })?;
    Ok(out)
}

/// Batch build over exactly the streamed records: one text log per node.
fn batch_oracle(corpus: &[NodeLines], work: &WorkDir, tag: &str) -> Result<Vec<u8>, String> {
    let logs = work
        .fresh(&format!("oracle-logs-{tag}"))
        .map_err(|e| e.to_string())?;
    for (node, lines) in corpus {
        let mut text = lines.join("\n");
        text.push('\n');
        std::fs::write(logs.join(format!("node-{node}.log")), text).map_err(|e| e.to_string())?;
    }
    let db = work.path().join(format!("oracle-{tag}.ucfdb"));
    build_db(&logs, &db, &WriteOptions::default()).map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&db).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&logs);
    let _ = std::fs::remove_file(&db);
    Ok(bytes)
}

fn check_round(out: &mut Outcome, f: &Fixture, r: &Round) {
    let total: u64 = f.corpus.iter().map(|(_, l)| l.len() as u64).sum();
    out.attempted += total + r.seals.len() as u64 + r.seal_errors + r.query.requests;
    out.failed += (total - r.acked.min(total)) + r.retries + r.seal_errors + r.query.errors;
    out.check(r.acked == total, "not every record was acked");
    out.check(r.query.errors == 0, "reads failed");
    out.check(
        f.primary.status().records == total,
        "primary holds a different record count",
    );
    let final_gen = gen_file_name(r.final_generation());
    out.check(
        std::fs::read(f.pdir.join(&final_gen)).ok() == Some(f.oracle.clone()),
        "final generation differs from the batch build over the same records",
    );
    for ev in &r.seals {
        let name = gen_file_name(ev.generation);
        let (p, q) = (
            std::fs::read(f.pdir.join(&name)),
            std::fs::read(f.rdir.join(&name)),
        );
        out.check(
            matches!((p, q), (Ok(p), Ok(q)) if p == q),
            "replica generation differs from the primary's",
        );
    }
}

fn mix_of(seed: u64, f: &Fixture) -> Mix {
    let nodes: Vec<String> = f.corpus.iter().map(|(n, _)| n.to_string()).collect();
    Mix::new(seed, &nodes)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let untraced = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    // Untraced rounds; a traced run makes one as the overhead baseline.
    let n_rounds = MIN_ROUNDS.max((seconds / ROUND_S).ceil() as usize);
    while rounds.len() < n_rounds {
        let f = timed_setup(
            seed,
            work,
            &rounds.len().to_string(),
            &mut setup_s,
            &mut out,
        )?;
        let r = round(&f, &mix_of(seed, &f), seed, &untraced)?;
        check_round(&mut out, &f, &r);
        out.failed += teardown(f);
        rounds.push(r);
        if tracer.enabled() {
            break;
        }
    }

    if !tracer.enabled() {
        let round_s: Vec<f64> = rounds.iter().map(|r| r.round_s).collect();
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
        out.metric("work_s", median(&round_s), "s");
        return Ok(out);
    }

    // Traced run: one more round on fresh dirs with spans on.
    let f = setup(seed, work, "traced")?;
    let t = round(&f, &mix_of(seed, &f), seed, tracer)?;
    check_round(&mut out, &f, &t);
    // Median over the seals of seal time per record held: flat while a
    // seal reprocesses everything, falling once it is incremental.
    let seal_us: Vec<f64> = t
        .seals
        .iter()
        .map(|e| e.seal_s * 1e6 / e.records.max(1) as f64)
        .collect();
    if seal_us.is_empty() {
        return Err("the traced round sealed nothing".to_string());
    }
    let wal = dir_bytes(&f.pdir, |n| n.starts_with("wal-"));
    let gens = dir_bytes(&f.pdir, |n| n.starts_with("gen-"));
    let final_gen = file_len(&f.pdir.join(gen_file_name(t.final_generation())));
    let seal_s: Vec<f64> = t.seals.iter().map(|e| e.seal_s).collect();
    let lat = &t.query.latencies_us;
    if !lat.is_empty() {
        out.metric("faultdb.server.query_p50_us", median(lat), "us");
    }
    if let Some(p99) = percentile(lat, 0.99) {
        out.metric("faultdb.server.query_p99_us", p99, "us");
    }
    out.metric("faultdb.ingest.stream_s", t.stream_s, "s");
    out.metric("faultdb.ingest.retries", t.retries as f64, "count");
    out.metric(
        "faultdb.ingest.push_records_per_s",
        t.acked as f64 / t.push_s,
        "records/s",
    );
    out.metric("faultdb.catalog.seal_total_s", seal_s.iter().sum(), "s");
    out.metric("faultdb.catalog.seal_p50_ms", median(&seal_s) * 1e3, "ms");
    out.metric("faultdb.catalog.seal_us_per_record", median(&seal_us), "us");
    out.metric(
        "faultdb.wal.bytes_per_record",
        wal as f64 / t.acked.max(1) as f64,
        "bytes",
    );
    out.metric(
        "faultdb.catalog.gen_bytes_ratio",
        gens as f64 / final_gen.max(1) as f64,
        "ratio",
    );
    out.metric("faultdb.repl.catchup_s", t.catchup_s, "s");
    out.metric("faultdb.repl.applied", t.repl_applied as f64, "count");
    out.metric("faultdb.repl.seals", t.repl_seals as f64, "count");
    out.metric("faultdb.repl.lag_max", t.lag_max as f64, "count");
    out.metric(
        "faultdb.cache.hit_ratio.live",
        t.cache_hits as f64 / (t.cache_hits + t.cache_misses).max(1) as f64,
        "ratio",
    );
    t.query.class_metrics(&mut out);
    let base = &rounds[0];
    out.metric(
        "trace.traced_over_untraced",
        t.round_s / base.round_s,
        "ratio",
    );
    out.failed += teardown(f);
    crate::trace::write_report(
        tracer,
        &crate::trace_path("live-ingest", seed),
        base.round_s,
        t.round_s,
    )
    .map_err(|e| e.to_string())?;
    Ok(out)
}
