//! `query-serve`: the warm, read-only path. The full-machine compact
//! corpus is sealed into a (time window × rack) sharded root; an
//! in-process query `Server` answers two closed-loop client connections;
//! then the day stream and the five-policy comparison are replayed. The
//! unit of work is one cycle: a fixed batch of queries, then a fixed
//! number of replays.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use unprotected_computing::core::{run_campaign, CampaignConfig};
use unprotected_computing::faultdb::{
    build_sharded_db, parse_query, Client, Engine, QueryOptions, Response, ServeConfig, Server,
    WriteOptions,
};
use unprotected_computing::faultlog::files::write_cluster_log_compact;
use unprotected_computing::policy::{run_comparison, PolicyKind, ReplayConfig};

use crate::mix::{Class, Mix};
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mib, percentile, secs, Outcome, Rng, WorkDir};

const BLADES: u32 = 72;
/// Time windows of the sharded root (each split further by rack).
const WINDOWS: usize = 4;
const SETUP_REPS: usize = 3;
/// Closed-loop client connections, one thread each.
pub const CLIENTS: usize = 2;
/// Requests each client sends per cycle: a fixed batch, so every
/// cycle does the same work.
const QUERIES_PER_CLIENT: usize = 1000;
/// Five-policy replays per cycle, after the query batch.
const POLICY_REPS: usize = 2;
/// Cycles per run, at least; `work_s` is their median.
const MIN_CYCLES: usize = 10;
/// Policy repetitions of the traced pass: their medians need ten samples
/// beyond them.
const TRACED_POLICY_REPS: usize = 20;
/// In-process queries of the traced pass.
const TRACED_QUERIES: usize = 2000;

struct Fixture {
    engine: Engine,
    server: Server,
    nodes: Vec<String>,
}

/// Fixture generation and server start: campaign → compact corpus →
/// sharded root → engine → server.
fn setup(seed: u64, work: &WorkDir, rep: usize) -> Result<Fixture, String> {
    let cfg = CampaignConfig::small(seed, BLADES);
    let logs = work
        .fresh(&format!("corpus-{rep}"))
        .map_err(|e| e.to_string())?;
    let result = run_campaign(&cfg);
    let cluster = result.cluster_log();
    write_cluster_log_compact(&logs, &cluster).map_err(|e| e.to_string())?;
    let nodes: Vec<String> = cluster
        .node_logs()
        .iter()
        .filter_map(|l| l.node.map(|n| n.to_string()))
        .collect();
    let root = work.path().join(format!("root-{rep}"));
    build_sharded_db(&logs, &root, WINDOWS, &WriteOptions::default()).map_err(|e| e.to_string())?;
    let engine = Engine::open_auto(&root).map_err(|e| e.to_string())?;
    let server = Server::start(engine.clone(), &serve_config()).map_err(|e| e.to_string())?;
    Ok(Fixture {
        engine,
        server,
        nodes,
    })
}

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: CLIENTS,
        ..ServeConfig::default()
    }
}

fn stop(server: Server) -> u64 {
    server.shutdown();
    server.join().rejected
}

/// What a closed-loop client phase saw.
#[derive(Default)]
pub struct ClientPhase {
    pub latencies_us: Vec<f64>,
    /// The class of each query answered in `latencies_us`.
    pub classes: Vec<Class>,
    pub requests: u64,
    pub errors: u64,
    pub mismatches: u64,
}

impl ClientPhase {
    pub fn merge(&mut self, other: ClientPhase) {
        self.latencies_us.extend(other.latencies_us);
        self.classes.extend(other.classes);
        self.requests += other.requests;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
    }

    /// Each class's answered count and share of the summed latency, as
    /// `mix.{class}.count` and `mix.{class}.time_share`.
    pub fn class_metrics(&self, out: &mut Outcome) {
        let total: f64 = self.latencies_us.iter().sum();
        for class in Class::ALL {
            let (n, t) = self
                .classes
                .iter()
                .zip(&self.latencies_us)
                .filter(|(c, _)| **c == class)
                .fold((0u64, 0.0), |(n, t), (_, l)| (n + 1, t + l));
            let name = class.name();
            out.metric(&format!("mix.{name}.count"), n as f64, "count");
            out.metric(
                &format!("mix.{name}.time_share"),
                t / total.max(f64::MIN_POSITIVE),
                "ratio",
            );
        }
    }
}

/// One closed-loop client: send the next request only after the last
/// answer arrived, until `keep_going` says stop. `keep_going` receives
/// the requests attempted so far, failed ones and failed connections
/// included, so a count-bounded loop ends even when nothing is answered.
/// `expected` (when given) holds each pool query's in-process answer.
pub fn client_loop(
    addr: SocketAddr,
    mix: &Mix,
    rng: &mut Rng,
    expected: Option<&[Vec<String>]>,
    keep_going: impl Fn(usize) -> bool,
) -> ClientPhase {
    let mut phase = ClientPhase::default();
    let mut client = None;
    while keep_going(phase.requests as usize) {
        if client.is_none() {
            match Client::connect(addr) {
                Ok(c) => client = Some(c),
                Err(e) => {
                    phase.requests += 1;
                    phase.errors += 1;
                    eprintln!("connect failed: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        let idx = mix.draw(rng);
        let c = client.as_mut().expect("connected above");
        phase.requests += 1;
        let t0 = Instant::now();
        let resp = c.request(&mix.queries[idx].1);
        let lat = t0.elapsed().as_secs_f64() * 1e6;
        match resp {
            Ok(Response::Ok(lines)) => {
                phase.latencies_us.push(lat);
                phase.classes.push(mix.queries[idx].0);
                if expected.is_some_and(|exp| exp[idx] != lines) {
                    phase.mismatches += 1;
                    eprintln!("TCP answer differs from in-process: {}", mix.queries[idx].1);
                }
            }
            Ok(Response::Err { kind, message }) => {
                phase.errors += 1;
                eprintln!("ERR {kind}: {message} ({})", mix.queries[idx].1);
                client = None;
            }
            Err(e) => {
                phase.errors += 1;
                eprintln!("request failed: {e}");
                client = None;
            }
        }
    }
    phase
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let t0 = Instant::now();
    let Fixture {
        engine,
        server,
        nodes,
    } = setup(seed, work, 0)?;
    let mut setup_s = vec![secs(t0)];
    let addr = server.local_addr();
    let mix = Mix::new(seed, &nodes);
    let opts = QueryOptions::default();

    // Oracle and warm-up: every pool query in-process (this fills the
    // decoded-block cache), then once over TCP per client.
    let expected: Vec<Vec<String>> = mix
        .queries
        .iter()
        .map(|(_, q)| engine.query(q, &opts).map(|r| r.lines))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let warm = run_clients(addr, &mix, seed ^ 0xAA, &expected, mix.queries.len());
    out.attempted += warm.requests;
    out.failed += warm.errors + warm.mismatches;
    out.correct &= warm.mismatches == 0;
    out.check(warm.errors == 0, "warm-up requests failed");

    // Cycles of fixed work, each a query batch from both clients and then
    // the policy replays, until `--seconds` have passed. `work_s` is the
    // median cycle: a burst of interference moves a few cycles, not the
    // result, and both phases sample the whole run.
    let cfg = ReplayConfig {
        seed,
        ..ReplayConfig::default()
    };
    let mut cycle_s = Vec::new();
    let mut query_s = 0.0;
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    let mut rates = Vec::new();
    let mut first = None;
    let mut answered = ClientPhase::default();
    let t_run = Instant::now();
    while cycle_s.len() < MIN_CYCLES || secs(t_run) < seconds {
        let before = engine.cache_stats();
        let t0 = Instant::now();
        let stream = seed.wrapping_add((cycle_s.len() as u64) << 32);
        let phase = run_clients(addr, &mix, stream, &expected, QUERIES_PER_CLIENT);
        query_s += secs(t0);
        let after = engine.cache_stats();
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        evictions += after.evictions - before.evictions;
        out.attempted += phase.requests;
        out.failed += phase.errors + phase.mismatches;
        out.correct &= phase.mismatches == 0;
        out.check(phase.errors == 0, "query-phase requests failed");
        answered.merge(phase);

        for _ in 0..POLICY_REPS {
            out.attempted += 1;
            let t = Instant::now();
            let days = engine
                .collect_days()
                .map_err(|e| format!("collect_days: {e}"))?;
            let cmp = run_comparison(&days, &PolicyKind::ALL, &cfg);
            rates.push((days.len() * cmp.runs.len()) as f64 / secs(t));
            match &first {
                None => first = Some(cmp),
                Some(f) => out.check(*f == cmp, "policy comparison differs across repetitions"),
            }
        }
        cycle_s.push(secs(t0));
    }
    let rejected = stop(server);
    out.failed += rejected;

    if !tracer.enabled() {
        // The peak is read before the remaining set-ups, so it covers one
        // fixture and the serving, as a user's process would.
        let peak_rss = peak_rss_mib();
        for rep in 1..SETUP_REPS {
            let t0 = Instant::now();
            let extra = setup(seed, work, rep)?;
            setup_s.push(secs(t0));
            out.failed += stop(extra.server);
        }
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("peak_rss_mb", peak_rss, "MiB");
        out.metric("work_s", median(&cycle_s), "s");
        return Ok(out);
    }

    if answered.latencies_us.is_empty() {
        // Nothing was answered: the checks above have failed the run.
        return Ok(out);
    }
    let tcp_p50 = median(&answered.latencies_us);

    // Traced run: the same mix in-process, untraced then traced.
    let mut rng = Rng::new(seed ^ 0x7A);
    let draws: Vec<usize> = (0..TRACED_QUERIES).map(|_| mix.draw(&mut rng)).collect();
    let t0 = Instant::now();
    let mut inproc_us = Vec::with_capacity(draws.len());
    for &i in &draws {
        let t = Instant::now();
        engine
            .query(&mix.queries[i].1, &opts)
            .map_err(|e| e.to_string())?;
        inproc_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let untraced_s = secs(t0);
    let (mut blocks, mut blocks_total, mut shards, mut shards_total) = (0u64, 0u64, 0u64, 0u64);
    let (mut rows, mut matched) = (0u64, 0u64);
    let t0 = Instant::now();
    tracer.span("query.mix", None, |root| -> Result<(), String> {
        for &i in &draws {
            let (class, text) = &mix.queries[i];
            let q = tracer
                .span("faultdb.query.parse", Some(root), |_| parse_query(text))
                .map_err(|e| e.to_string())?;
            let r = tracer
                .span(exec_span(*class), Some(root), |_| engine.run(&q, &opts))
                .map_err(|e| e.to_string())?;
            out.check(r.lines == expected[i], "in-process answer changed");
            blocks += u64::from(r.blocks_scanned);
            blocks_total += u64::from(r.blocks_total);
            shards += u64::from(r.shards_scanned);
            shards_total += u64::from(r.shards_total);
            rows += r.rows_scanned;
            matched += r.matched;
        }
        Ok(())
    })?;
    let traced_s = secs(t0);
    for _ in 0..TRACED_POLICY_REPS {
        tracer.span("policy.replay", None, |root| -> Result<(), String> {
            let days = tracer
                .span("faultdb.days.collect", Some(root), |_| {
                    engine.collect_days()
                })
                .map_err(|e| e.to_string())?;
            let cmp = tracer.span("policy.compare", Some(root), |_| {
                run_comparison(&days, &PolicyKind::ALL, &cfg)
            });
            out.check(
                first.as_ref() == Some(&cmp),
                "traced policy comparison differs",
            );
            Ok(())
        })?;
    }

    let us = |name: &str| median(&tracer.durations(name)) * 1e6;
    out.metric("faultdb.query.parse_us", us("faultdb.query.parse"), "us");
    for class in Class::ALL {
        out.metric(exec_span(class), us(exec_span(class)), "us");
    }
    answered.class_metrics(&mut out);
    out.metric(
        "faultdb.query.blocks_scanned_ratio",
        blocks as f64 / blocks_total.max(1) as f64,
        "ratio",
    );
    out.metric(
        "faultdb.query.shards_scanned_ratio",
        shards as f64 / shards_total.max(1) as f64,
        "ratio",
    );
    out.metric(
        "faultdb.query.rows_per_match",
        rows as f64 / matched.max(1) as f64,
        "ratio",
    );
    out.metric(
        "faultdb.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.metric("faultdb.cache.evictions", evictions as f64, "count");
    out.metric("faultdb.server.query_p50_us", tcp_p50, "us");
    if let Some(p99) = percentile(&answered.latencies_us, 0.99) {
        out.metric("faultdb.server.query_p99_us", p99, "us");
    }
    out.metric(
        "faultdb.server.queries_per_s",
        answered.latencies_us.len() as f64 / query_s,
        "1/s",
    );
    out.metric("faultdb.server.wire_us", tcp_p50 - median(&inproc_us), "us");
    out.metric("faultdb.server.rejected", rejected as f64, "count");
    let s = |name: &str| median(&tracer.durations(name));
    out.metric("faultdb.days.collect_s", s("faultdb.days.collect"), "s");
    out.metric("policy.compare_s", s("policy.compare"), "s");
    out.metric("policy.days_per_s", median(&rates), "days/s");
    out.metric("trace.traced_over_untraced", traced_s / untraced_s, "ratio");
    crate::trace::write_report(
        tracer,
        &crate::trace_path("query-serve", seed),
        untraced_s,
        traced_s,
    )
    .map_err(|e| e.to_string())?;
    Ok(out)
}

fn exec_span(class: Class) -> &'static str {
    match class {
        Class::Window => "faultdb.query.exec_us.window",
        Class::Point => "faultdb.query.exec_us.point",
        Class::Scan => "faultdb.query.exec_us.scan",
        Class::Unpruned => "faultdb.query.exec_us.unpruned",
    }
}

/// `CLIENTS` closed-loop clients, each on its own connection and thread,
/// with per-client seeded request streams, each sending `requests`.
fn run_clients(
    addr: SocketAddr,
    mix: &Mix,
    seed: u64,
    expected: &[Vec<String>],
    requests: usize,
) -> ClientPhase {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed.wrapping_add(c as u64 * 0x1000_0001));
                    client_loop(addr, mix, &mut rng, Some(expected), |n| n < requests)
                })
            })
            .collect();
        let mut all = ClientPhase::default();
        for h in handles {
            all.merge(h.join().expect("client thread panicked"));
        }
        all
    })
}
