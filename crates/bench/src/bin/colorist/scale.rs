//! `colorist scale` — scale curves for the multi-client query service
//! (DESIGN.md §15.7).
//!
//! For each target database size (default 1k/10k/100k/1M stored elements)
//! and each of the seven strategies, the subcommand calibrates a TPC-W
//! customer count to hit the element target, materializes the instance,
//! starts a [`colorist_server::Server`], and drives a round-structured
//! read-heavy mix: every round commits a small write batch through
//! admission batching, re-warms the prepared-plan cache (one serial read
//! per pattern — exactly the deterministic miss set), then fires the
//! timed read phase from `--clients` concurrent client threads.
//!
//! It publishes per-cell throughput (timed reads only), p50/p99 latency,
//! the median wall time of a round's write burst (`write_burst_us`:
//! submit, flush, every ticket back — the commit path end to end), the
//! plan-cache counters, and an order-stable FNV checksum over every read
//! answer into a schema-v8 `BENCH_scale.json` that `colorist gate
//! --scale` diffs across commits: identity fields (element counts,
//! request counts, checksums, final epochs) and plan-cache counters
//! exactly; wall-clock fields are published, never gated.
//!
//! ```text
//! colorist scale [--scales 1000,10000,100000,1000000] [--workers N]
//!                [--clients 4] [--rounds 4] [--speedup-scale 100000]
//!                [--out results/BENCH_scale.json] [--trace FILE]
//! ```
//!
//! Every round commits 8 writes and times 64 reads. `--speedup-scale 0`
//! skips the 1-vs-8-worker throughput comparison.
//! Worker *counters* are deterministic for any worker count; worker
//! *speedup* is a property of the host's core count (a single-core CI
//! box reports ≈1× regardless of the code), which is why the `speedup`
//! section is published but never gated.

use crate::cli::{unknown, Argv};
use colorist_bench::summary::git_rev;
use colorist_bench::{RunConfig, SCHEMA_VERSION};
use colorist_core::{design, Strategy};
use colorist_datagen::{generate, materialize, ScaleProfile};
use colorist_er::{catalog, ErGraph};
use colorist_query::Pattern;
use colorist_server::{Server, ServerConfig};
use colorist_store::{Database, UpdateBatch, Value};
use colorist_workload::tpcw;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The scale curves' own flags: which sizes, and the load shape.
#[derive(Debug, Clone)]
pub struct Args {
    scales: Vec<u64>,
    workers: usize,
    clients: usize,
    rounds: u32,
    speedup_scale: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scales: vec![1_000, 10_000, 100_000, 1_000_000],
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            clients: 4,
            rounds: 4,
            speedup_scale: 100_000,
        }
    }
}

impl Args {
    pub fn flag(&mut self, flag: &str, args: &mut Argv) -> Result<(), String> {
        match flag {
            "--scales" => {
                let v = args.value(flag)?;
                self.scales = v
                    .split(',')
                    .map(|n| n.parse().map_err(|_| format!("{flag} expects N,N,..., got {v:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--workers" => self.workers = args.num::<usize>(flag)?.max(1),
            "--clients" => self.clients = args.num::<usize>(flag)?.max(1),
            "--rounds" => self.rounds = args.num::<u32>(flag)?.max(1),
            "--speedup-scale" => self.speedup_scale = args.num(flag)?,
            _ => return Err(unknown(flag)),
        }
        Ok(())
    }
}

/// Writes each round commits as one admission-batched burst.
const WRITES_PER_ROUND: u32 = 8;
/// Reads each round times, split round-robin over the clients.
const READS_PER_ROUND: u32 = 64;
/// Worker count of the speedup comparison's many-worker run.
const SPEEDUP_WORKERS: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Elements-per-customer linear fit `elements(c) ≈ a + b·c` from two
/// small probe materializations, used to pick the customer count whose
/// database lands nearest the element target.
struct Fit {
    a: f64,
    b: f64,
}

impl Fit {
    fn probe(g: &ErGraph, strategy: Strategy, seed: u64) -> Fit {
        let count = |customers: u32| {
            let schema = design(g, strategy).expect("catalog designs");
            let db = materialize(g, &schema, &generate(g, &ScaleProfile::tpcw(g, customers), seed));
            db.element_count() as f64
        };
        let (c1, c2) = (8.0, 24.0);
        let (e1, e2) = (count(8), count(24));
        let b = ((e2 - e1) / (c2 - c1)).max(1.0);
        Fit { a: e1 - b * c1, b }
    }

    fn customers_for(&self, target: u64) -> u32 {
        (((target as f64 - self.a) / self.b).round().max(1.0)) as u32
    }
}

/// One (scale, strategy) measurement.
struct Cell {
    strategy: &'static str,
    customers: u32,
    elements: u64,
    reads: u64,
    writes: u64,
    answers_checksum: u64,
    final_epoch: u64,
    plan_cache_hits: u64,
    plan_cache_misses: u64,
    plan_cache_evictions: u64,
    queue_wait_ns: u64,
    throughput_qps: f64,
    p50_us: f64,
    p99_us: f64,
    write_burst_us: f64,
    wall_ms: f64,
}

fn percentile(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)].as_secs_f64() * 1e6
}

/// Run the round-structured mix for one materialized database.
fn run_cell(
    g: &ErGraph,
    db: Database,
    patterns: &[Pattern],
    strategy: Strategy,
    customers: u32,
    cfg: &Args,
    workers: usize,
) -> Cell {
    let elements = db.element_count() as u64;
    let customer = g.node_by_name("customer").expect("tpcw has customers");
    // resolve write targets while we still hold the database; ordinals
    // cycle over the calibrated customer population
    let targets: Vec<colorist_store::ElementId> = (0..customers)
        .map(|o| db.canonical_by_ordinal(customer, o).expect("calibrated customer ordinal exists"))
        .collect();
    let server = Server::start(db, g, &ServerConfig::default().with_workers(workers));
    let main = server.client();
    let mut checksum = FNV_OFFSET;
    let mut latencies: Vec<Duration> = Vec::new();
    let mut bursts: Vec<Duration> = Vec::new();
    let mut timed = Duration::ZERO;
    let (mut reads, mut writes) = (0u64, 0u64);
    let wall_start = Instant::now();
    for round in 0..cfg.rounds {
        // write burst: admission-batched, group-committed by the flush
        let burst_start = Instant::now();
        let pending: Vec<_> = (0..WRITES_PER_ROUND)
            .map(|k| {
                let ordinal = (round * WRITES_PER_ROUND + k) % customers;
                let e = targets[ordinal as usize];
                let mut b = UpdateBatch::new();
                b.write_attr(e, 1, Value::Int((round as i64) << 16 | k as i64));
                main.write(b)
            })
            .collect();
        main.flush().wait().expect("flush commits");
        for p in pending {
            p.wait().expect("write commits");
            writes += 1;
        }
        bursts.push(burst_start.elapsed());
        // re-warm: one serial read per pattern. The run's plan-cache
        // misses all fall here, on first touch in round 0: no write moves
        // a plan.
        for q in patterns {
            let r = main.read(q).wait().expect("warm read serves");
            checksum = digest(checksum, r.results, r.distinct, &r.elements);
            reads += 1;
        }
        // timed phase: `clients` threads, global round-robin split, all
        // hits (no writes in flight, epoch stable until the next round)
        let t0 = Instant::now();
        let mut shards: Vec<Vec<(u32, Duration, u64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.clients)
                .map(|t| {
                    let c = server.client();
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut i = t as u32;
                        while i < READS_PER_ROUND {
                            let q = &patterns[i as usize % patterns.len()];
                            let begin = Instant::now();
                            let r = c.read(q).wait().expect("timed read serves");
                            let lat = begin.elapsed();
                            out.push((
                                i,
                                lat,
                                digest(FNV_OFFSET, r.results, r.distinct, &r.elements),
                            ));
                            i += cfg.clients as u32;
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        timed += t0.elapsed();
        // fold per-reply digests in global submission-index order so the
        // checksum is identical for any client/worker count
        let mut flat: Vec<(u32, Duration, u64)> = shards.drain(..).flatten().collect();
        flat.sort_unstable_by_key(|&(i, _, _)| i);
        for (_, lat, d) in flat {
            checksum = mix(checksum, d);
            latencies.push(lat);
            reads += 1;
        }
    }
    let wall = wall_start.elapsed();
    let m = server.metrics();
    let final_epoch = server.published_epoch();
    server.shutdown();
    latencies.sort_unstable();
    bursts.sort_unstable();
    let timed_reads = cfg.rounds as u64 * READS_PER_ROUND as u64;
    Cell {
        strategy: strategy.label(),
        customers,
        elements,
        reads,
        writes,
        answers_checksum: checksum,
        final_epoch,
        plan_cache_hits: m.plan_cache_hits,
        plan_cache_misses: m.plan_cache_misses,
        plan_cache_evictions: m.plan_cache_evictions,
        queue_wait_ns: m.queue_wait_ns,
        throughput_qps: timed_reads as f64 / timed.as_secs_f64().max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        write_burst_us: percentile(&bursts, 0.50),
        wall_ms: wall.as_secs_f64() * 1e3,
    }
}

fn digest(h: u64, results: u64, distinct: u64, elements: &[colorist_store::ElementId]) -> u64 {
    let mut h = mix(mix(h, results), distinct);
    h = mix(h, elements.len() as u64);
    for e in elements {
        h = mix(h, e.0 as u64);
    }
    h
}

/// Build (customers, database) for one strategy at one element target.
fn build(
    g: &ErGraph,
    strategy: Strategy,
    fit: &Fit,
    target: u64,
    run: &RunConfig,
) -> (u32, Database) {
    let customers = fit.customers_for(target);
    let schema = design(g, strategy).expect("catalog designs");
    let profile = ScaleProfile::tpcw(g, customers);
    let mut db = materialize(g, &schema, &generate(g, &profile, run.seed));
    run.storage.attach(&mut db).expect("storage backend attaches");
    (customers, db)
}

pub fn run(cfg: &Args, run: &RunConfig) {
    let (seed, storage) = (run.seed, run.storage);
    let out = run.out.as_deref().unwrap_or("results/BENCH_scale.json");
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let patterns: Vec<Pattern> = tpcw::workload(&g).reads;
    eprintln!(
        "colorist scale: scales {:?}, {} workers, {} clients, {} rounds x ({} reads + {} writes), seed {seed}, backend {}",
        cfg.scales,
        cfg.workers,
        cfg.clients,
        cfg.rounds,
        READS_PER_ROUND,
        WRITES_PER_ROUND,
        storage.label()
    );

    let fits: Vec<(Strategy, Fit)> =
        Strategy::ALL.iter().map(|&s| (s, Fit::probe(&g, s, seed))).collect();

    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(j, "  \"git_rev\": \"{}\",", git_rev());
    let _ = writeln!(j, "  \"bench\": \"scale\",");
    let _ = writeln!(j, "  \"seed\": {seed},");
    let _ = writeln!(j, "  \"backend\": \"{}\",", storage.label());
    let _ = writeln!(j, "  \"pool_bytes\": {},", storage.pool_bytes());
    let _ = writeln!(j, "  \"workers\": {},", cfg.workers);
    let _ = writeln!(j, "  \"clients\": {},", cfg.clients);
    let _ = writeln!(j, "  \"rounds\": {},", cfg.rounds);
    let _ = writeln!(j, "  \"reads_per_round\": {READS_PER_ROUND},");
    let _ = writeln!(j, "  \"writes_per_round\": {WRITES_PER_ROUND},");
    let _ = writeln!(j, "  \"scales\": [");
    for (si, &target) in cfg.scales.iter().enumerate() {
        let _ = writeln!(j, "    {{\"target_elements\": {target}, \"strategies\": [");
        for (ci, (strategy, fit)) in fits.iter().enumerate() {
            let (customers, db) = build(&g, *strategy, fit, target, run);
            let cell = run_cell(&g, db, &patterns, *strategy, customers, cfg, cfg.workers);
            eprintln!(
                "colorist scale: {target:>8} x {:<7} {:>9} elements  {:>10.1} q/s  p50 {:>8.1} us  p99 {:>8.1} us  burst {:>8.1} us  hit rate {:.3}",
                cell.strategy,
                cell.elements,
                cell.throughput_qps,
                cell.p50_us,
                cell.p99_us,
                cell.write_burst_us,
                cell.plan_cache_hits as f64
                    / (cell.plan_cache_hits + cell.plan_cache_misses).max(1) as f64,
            );
            let _ = writeln!(
                j,
                "      {{\"strategy\": \"{}\", \"customers\": {}, \"elements\": {},\n\
                 \x20       \"reads\": {}, \"writes\": {}, \"answers_checksum\": {},\n\
                 \x20       \"final_epoch\": {}, \"plan_cache_hits\": {},\n\
                 \x20       \"plan_cache_misses\": {}, \"plan_cache_evictions\": {},\n\
                 \x20       \"queue_wait_ns\": {}, \"throughput_qps\": {:.3},\n\
                 \x20       \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"write_burst_us\": {:.3},\n\
                 \x20       \"wall_ms\": {:.3}}}{}",
                cell.strategy,
                cell.customers,
                cell.elements,
                cell.reads,
                cell.writes,
                cell.answers_checksum,
                cell.final_epoch,
                cell.plan_cache_hits,
                cell.plan_cache_misses,
                cell.plan_cache_evictions,
                cell.queue_wait_ns,
                cell.throughput_qps,
                cell.p50_us,
                cell.p99_us,
                cell.write_burst_us,
                cell.wall_ms,
                if ci + 1 < fits.len() { "," } else { "" }
            );
        }
        let _ = writeln!(j, "    ]}}{}", if si + 1 < cfg.scales.len() { "," } else { "" });
    }
    let _ = writeln!(j, "  ],");

    // 1-vs-N-worker aggregate throughput on the read-heavy mix. On this
    // cooperative mix the speedup ceiling is min(workers, cores): a
    // single-core host honestly reports ≈1x whatever the worker count.
    if cfg.speedup_scale > 0 {
        let strategy = Strategy::Dr;
        let fit = &fits.iter().find(|(s, _)| *s == strategy).expect("DR fitted").1;
        let qps = |workers: usize| {
            let (customers, db) = build(&g, strategy, fit, cfg.speedup_scale, run);
            run_cell(&g, db, &patterns, strategy, customers, cfg, workers).throughput_qps
        };
        let (one, many) = (qps(1), qps(SPEEDUP_WORKERS));
        eprintln!(
            "colorist scale: speedup at {} elements ({}): 1 worker {one:.1} q/s, {} workers {many:.1} q/s => {:.2}x (ceiling = min(workers, cores) = {})",
            cfg.speedup_scale,
            strategy.label(),
            SPEEDUP_WORKERS,
            many / one.max(1e-9),
            SPEEDUP_WORKERS
                .min(std::thread::available_parallelism().map_or(1, |n| n.get()))
        );
        let _ = writeln!(
            j,
            "  \"speedup\": {{\"target_elements\": {}, \"strategy\": \"{}\",\n\
             \x20   \"workers_1_qps\": {one:.3}, \"workers_n_qps\": {many:.3},\n\
             \x20   \"workers_n\": {}, \"speedup\": {:.3},\n\
             \x20   \"host_cores\": {}}}",
            cfg.speedup_scale,
            strategy.label(),
            SPEEDUP_WORKERS,
            many / one.max(1e-9),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
    } else {
        let _ = writeln!(j, "  \"speedup\": null");
    }
    let _ = writeln!(j, "}}");

    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(out, &j).expect("write scale document");
    println!("colorist scale: wrote {out}");
}
