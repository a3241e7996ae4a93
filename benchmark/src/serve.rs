//! The three served workloads: a DR database behind `Server` with two
//! workers, driven closed-loop through the in-process `Client`.
//!
//! * `serve_reads` — two clients over the 13 reads at a stable epoch,
//!   then a short write probe once the read window has closed;
//! * `serve_mixed` — one reader while one writer loops 4-write bursts;
//! * `paged_mixed` — a page-file database larger than its pool, one
//!   client interleaving a burst with 256 reads.
//!
//! Every burst ends with `flush` and waits for its four tickets, so no
//! client is ever left blocked on an un-flushed write.

use crate::fixture::{
    oracle, permutation, rss_mb, stretches, tmp_dir, Answer, Tpcw, DATA_SEED, SETUPS,
};
use crate::report::Better::{Higher, Lower};
use crate::report::Outcome;
use crate::span::{Recorder, Span};
use crate::stats::{
    median, median_u64, per_slice_percentile, percentile, quiet_decile, slice_rates,
};
use crate::watchdog::arm_phase;
use colorist_core::{design, Strategy};
use colorist_datagen::{generate, materialize, Rng, ScaleProfile};
use colorist_query::{execute_snapshot, optimize_cached, PlanCache};
use colorist_server::{Client, Server, ServerConfig};
use colorist_store::{
    analyze_batch, CommitScheduler, Database, ElementId, FilePages, PoolConfig, UpdateBatch, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server workers, whatever the host: the load shape is part of the
/// benchmark's definition.
const WORKERS: usize = 2;
const BURST: usize = 4;
const READS_PER_CYCLE: usize = 256;
/// Count metrics of the interleaved workload cover its first cycles
/// only, so they are exact functions of the seed.
const COUNT_CYCLES: usize = 8;
const POOL_BYTES: u64 = 1 << 20;
/// Q4 selects `discount > 9000.0`; written discounts keep their side.
const Q4_THRESHOLD: f64 = 9000.0;
const STALL_NS: u64 = 5_000_000;
/// Half-second slices: twenty to a 10 s window.
const SLICE_NS: u64 = 500_000_000;
/// Read samples a client's log has room for, per second of window
/// (a client gets through about 9k reads a second here).
const READS_ROOM_PER_S: f64 = 50_000.0;
const MIN_PROBE_BURSTS: usize = 8;
const WALK_READ_REPS: usize = 20;
const WALK_BURSTS: usize = 50;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Two readers; a write probe after the window.
    ReadsThenProbe,
    /// One reader and one writer at once.
    Concurrent,
    /// One client: a burst, then `READS_PER_CYCLE` reads.
    Interleaved,
}

pub struct Spec {
    pub name: &'static str,
    customers: u32,
    paged: bool,
    mode: Mode,
}

pub const SPECS: [Spec; 3] = [
    Spec { name: "serve_reads", customers: 6000, paged: false, mode: Mode::ReadsThenProbe },
    Spec { name: "serve_mixed", customers: 6000, paged: false, mode: Mode::Concurrent },
    Spec { name: "paged_mixed", customers: 1000, paged: true, mode: Mode::Interleaved },
];

/// One complete set-up: the served database plus what checks need.
struct Fixture {
    server: Server,
    /// The database as served at epoch 0 (shares storage with the server
    /// until the first write copies it).
    initial: Database,
    oracle: Vec<Answer>,
    page_file: Option<PathBuf>,
    attach_ns: u64,
    failed: u64,
}

fn build(t: &Tpcw, spec: &Spec, round: usize) -> Fixture {
    let instance = generate(&t.g, &ScaleProfile::tpcw(&t.g, spec.customers), DATA_SEED);
    let schema = design(&t.g, Strategy::Dr).expect("DR designs TPC-W");
    let mut db = materialize(&t.g, &schema, &instance);
    let (mut page_file, mut attach_ns) = (None, 0);
    if spec.paged {
        let path = tmp_dir().join(format!("{}-{round}.pages", spec.name));
        let t0 = Instant::now();
        let backend = FilePages::create_at(&path).expect("create the page file");
        db.attach_paged(Arc::new(backend), PoolConfig { pool_bytes: POOL_BYTES })
            .expect("attach the page file");
        attach_ns = t0.elapsed().as_nanos() as u64;
        page_file = Some(path);
    }
    let oracle = oracle(&db, t);
    let initial = db.clone();
    let server = Server::start(db, &t.g, &ServerConfig::default().with_workers(WORKERS));
    // warm-up: every read pattern once, which also fills the plan cache
    let client = server.client();
    let mut failed = 0;
    for (q, want) in t.reads.iter().zip(&oracle) {
        let ok = client
            .read(q)
            .wait()
            .is_ok_and(|r| Answer::of(r.results, r.distinct, &r.elements) == *want);
        failed += u64::from(!ok);
    }
    Fixture { server, initial, oracle, page_file, attach_ns, failed }
}

/// The write schedule: write `k` goes to customer `offset + k * stride`
/// and alternates `uname` (no pattern reads it) with `discount` (Q4
/// reads it). Values keep every read answer equal to the oracle and
/// intern no new symbol, so the final state is the initial one with
/// the last value of each cell.
struct WritePlan {
    targets: Vec<ElementId>,
    /// Whether the customer's original discount is above Q4's threshold.
    high: Vec<bool>,
    unames: Vec<String>,
    stride: u64,
    offset: u64,
    uname: usize,
    discount: usize,
}

impl WritePlan {
    fn new(t: &Tpcw, initial: &Database, seed: u64) -> WritePlan {
        let customer = t.g.node_by_name("customer").expect("customer node");
        let uname = initial.attr_index(&t.g, customer, "uname").expect("uname attribute");
        let discount = initial.attr_index(&t.g, customer, "discount").expect("discount attribute");
        let targets: Vec<ElementId> = (0..initial.ordinal_count(customer))
            .filter_map(|o| initial.canonical_by_ordinal(customer, o))
            .collect();
        let high = targets
            .iter()
            .map(|&e| matches!(initial.element(e).attrs[discount], Value::Float(d) if d > Q4_THRESHOLD))
            .collect();
        let unames: BTreeSet<String> = targets
            .iter()
            .filter_map(|&e| initial.element(e).attrs[uname].as_text().map(str::to_string))
            .collect();
        let n = targets.len() as u64;
        let gcd = |mut a: u64, mut b: u64| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let mut rng = Rng::new(seed);
        let stride = loop {
            let s = 1 + rng.below(n - 1);
            if gcd(s, n) == 1 {
                break s;
            }
        };
        WritePlan {
            targets,
            high,
            unames: unames.into_iter().collect(),
            stride,
            offset: rng.below(n),
            uname,
            discount,
        }
    }

    fn op(&self, k: u64) -> (ElementId, usize, Value) {
        let n = self.targets.len() as u64;
        let i = ((self.offset + (k % n) * self.stride) % n) as usize;
        let (attr, value) = if k.is_multiple_of(2) {
            let pick = (k / 2 + self.offset) % self.unames.len() as u64;
            (self.uname, Value::Text(self.unames[pick as usize].clone()))
        } else if self.high[i] {
            (self.discount, Value::Float(9000.01 + (k % 99_900) as f64 / 100.0))
        } else {
            (self.discount, Value::Float((k % 900_001) as f64 / 100.0))
        };
        (self.targets[i], attr, value)
    }

    fn batch(&self, k: u64) -> UpdateBatch {
        let (e, attr, value) = self.op(k);
        let mut b = UpdateBatch::new();
        b.write_attr(e, attr, value);
        b
    }
}

struct ReadSample {
    /// Completion, from the window's start.
    done_ns: u64,
    lat_ns: u64,
    exec_ns: u64,
    queue_ns: u64,
    pattern: usize,
    page_reads: u64,
    pool_hits: u64,
    pool_evictions: u64,
}

struct WriteSample {
    lat_ns: u64,
    queue_ns: u64,
    group_size: usize,
    pages: u64,
}

struct BurstSample {
    dur_ns: u64,
    /// Median latency of the burst's acknowledged writes.
    write_ns: f64,
    flush_ns: u64,
    epochs: usize,
}

struct Cycle {
    read_ns: u64,
    total_ns: u64,
}

/// What one client saw during one window.
#[derive(Default)]
struct Log {
    reads: Vec<ReadSample>,
    writes: Vec<WriteSample>,
    bursts: Vec<BurstSample>,
    cycles: Vec<Cycle>,
    /// Acknowledged cell values, in commit order.
    acked: Vec<(ElementId, usize, Value)>,
    /// Page-file length once `COUNT_CYCLES` cycles were complete.
    file_len_at_count: u64,
    attempted: u64,
    failed: u64,
}

/// One closed-loop client: issues a request, waits for the reply,
/// checks it, records it.
struct Driver<'a> {
    client: Client,
    t: &'a Tpcw,
    oracle: &'a [Answer],
    plan: &'a WritePlan,
    page_file: Option<&'a Path>,
    window_start: Instant,
    rec: Recorder,
    log: Log,
    /// Requests issued, the span request id.
    issued: u64,
}

impl Driver<'_> {
    fn read(&mut self, qi: usize) {
        let q = &self.t.reads[qi];
        self.issued += 1;
        let (reply, lat_ns) =
            self.rec.call("server.read", &q.name, self.issued, |_| self.client.read(q).wait());
        let done_ns = self.window_start.elapsed().as_nanos() as u64;
        self.log.attempted += 1;
        match reply {
            Ok(r) if Answer::of(r.results, r.distinct, &r.elements) == self.oracle[qi] => {
                self.log.reads.push(ReadSample {
                    done_ns,
                    lat_ns,
                    exec_ns: r.metrics.elapsed.as_nanos() as u64,
                    queue_ns: r.metrics.queue_wait_ns,
                    pattern: qi,
                    page_reads: r.metrics.page_reads,
                    pool_hits: r.metrics.pool_hits,
                    pool_evictions: r.metrics.pool_evictions,
                });
            }
            _ => self.log.failed += 1,
        }
    }

    /// `BURST` single-cell writes to distinct customers, `flush`, then
    /// wait for every ticket.
    fn burst(&mut self, k: &mut u64) {
        self.issued += 1;
        let (client, plan, log) = (&self.client, self.plan, &mut self.log);
        self.rec.call("server.write_burst", "burst", self.issued, |_| {
            let start = Instant::now();
            let inflight: Vec<_> = (0..BURST)
                .map(|_| {
                    let cell = plan.op(*k);
                    *k += 1;
                    let mut b = UpdateBatch::new();
                    b.write_attr(cell.0, cell.1, cell.2.clone());
                    (Instant::now(), client.write(b), cell)
                })
                .collect();
            let flush_start = Instant::now();
            let flushed = client.flush().wait();
            let flush_ns = flush_start.elapsed().as_nanos() as u64;
            log.attempted += 1;
            log.failed += u64::from(flushed.is_err());
            let mut epochs = BTreeSet::new();
            let mut acked_ns = Vec::with_capacity(BURST);
            for (submitted, ticket, cell) in inflight {
                let reply = ticket.wait();
                let lat_ns = submitted.elapsed().as_nanos() as u64;
                log.attempted += 1;
                match reply {
                    Ok(w) => {
                        epochs.insert(w.group_epoch);
                        acked_ns.push(lat_ns);
                        log.writes.push(WriteSample {
                            lat_ns,
                            queue_ns: w.metrics.queue_wait_ns,
                            group_size: w.group_size,
                            pages: w.receipt.pages_written,
                        });
                        log.acked.push(cell);
                    }
                    Err(_) => log.failed += 1,
                }
            }
            log.bursts.push(BurstSample {
                dur_ns: start.elapsed().as_nanos() as u64,
                write_ns: median_u64(&acked_ns),
                flush_ns,
                epochs: epochs.len(),
            });
        });
    }

    fn read_until(&mut self, order: &[usize], deadline: Instant) {
        let mut i = 0;
        while Instant::now() < deadline {
            self.read(order[i % order.len()]);
            i += 1;
        }
    }

    fn write_until(&mut self, k: &mut u64, deadline: Instant, min_bursts: usize) {
        while Instant::now() < deadline || self.log.bursts.len() < min_bursts {
            self.burst(k);
        }
    }

    fn cycle_until(&mut self, order: &[usize], k: &mut u64, deadline: Instant) {
        let mut i = 0;
        while Instant::now() < deadline || self.log.cycles.len() < COUNT_CYCLES {
            let start = Instant::now();
            self.burst(k);
            let reads_start = Instant::now();
            for _ in 0..READS_PER_CYCLE {
                self.read(order[i % order.len()]);
                i += 1;
            }
            self.log.cycles.push(Cycle {
                read_ns: reads_start.elapsed().as_nanos() as u64,
                total_ns: start.elapsed().as_nanos() as u64,
            });
            if self.log.cycles.len() == COUNT_CYCLES {
                self.log.file_len_at_count =
                    self.page_file.and_then(|p| std::fs::metadata(p).ok()).map_or(0, |m| m.len());
            }
        }
    }
}

/// One measured stretch against the running server.
struct Window {
    logs: Vec<Log>,
    wall_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// What the windows, the probe and the walk share.
struct Bench<'a> {
    t: &'a Tpcw,
    spec: &'a Spec,
    oracle: &'a [Answer],
    page_file: Option<&'a Path>,
    plan: &'a WritePlan,
    /// Per client, the seeded order in which it cycles over the reads.
    orders: Vec<Vec<usize>>,
    /// Zero of every span's clock.
    epoch: Instant,
}

impl Bench<'_> {
    fn driver(&self, server: &Server, lane: u32, tracing: bool, secs: f64) -> Driver<'_> {
        Driver {
            client: server.client(),
            t: self.t,
            oracle: self.oracle,
            plan: self.plan,
            page_file: self.page_file,
            window_start: Instant::now(),
            rec: Recorder::new(self.epoch, lane, tracing),
            // room for more reads than a client gets through, so the
            // vector never reallocates and memory tracks the samples kept
            log: Log {
                reads: Vec::with_capacity((secs * READS_ROOM_PER_S) as usize),
                ..Log::default()
            },
            issued: 0,
        }
    }

    fn window(
        &self,
        server: &Server,
        secs: f64,
        tracing: bool,
        k: &mut u64,
        spans: &mut Vec<Span>,
    ) -> Window {
        let before = server.metrics();
        let mut clients: Vec<Driver> =
            (1..=2).map(|lane| self.driver(server, lane, tracing, secs)).collect();
        let start = Instant::now();
        for c in &mut clients {
            c.window_start = start;
        }
        let deadline = start + Duration::from_secs_f64(secs);
        let mut finished: Vec<(Log, Recorder)> = match self.spec.mode {
            Mode::ReadsThenProbe => std::thread::scope(|s| {
                let readers: Vec<_> = clients
                    .into_iter()
                    .zip(&self.orders)
                    .map(|(mut d, order)| {
                        s.spawn(move || {
                            d.read_until(order, deadline);
                            (d.log, d.rec)
                        })
                    })
                    .collect();
                readers.into_iter().map(|h| h.join().expect("reader thread")).collect()
            }),
            Mode::Concurrent => std::thread::scope(|s| {
                let mut writer = clients.pop().expect("two clients");
                let mut reader = clients.pop().expect("two clients");
                let order = &self.orders[0];
                let r = s.spawn(move || {
                    reader.read_until(order, deadline);
                    (reader.log, reader.rec)
                });
                let w = s.spawn(move || {
                    writer.write_until(k, deadline, 1);
                    (writer.log, writer.rec)
                });
                vec![r.join().expect("reader thread"), w.join().expect("writer thread")]
            }),
            Mode::Interleaved => {
                let mut d = clients.swap_remove(0);
                d.cycle_until(&self.orders[0], k, deadline);
                vec![(d.log, d.rec)]
            }
        };
        let wall_ns = start.elapsed().as_nanos() as u64;
        let after = server.metrics();
        let mut logs = Vec::new();
        for (log, rec) in finished.drain(..) {
            logs.push(log);
            spans.extend(rec.into_spans());
        }
        Window {
            logs,
            wall_ns,
            cache_hits: after.plan_cache_hits - before.plan_cache_hits,
            cache_misses: after.plan_cache_misses - before.plan_cache_misses,
        }
    }

    /// `serve_reads` only: bursts with no reader running, after the window.
    fn probe(&self, server: &Server, secs: f64, k: &mut u64) -> Log {
        let mut d = self.driver(server, 3, false, 0.0);
        d.write_until(k, Instant::now() + Duration::from_secs_f64(secs), MIN_PROBE_BURSTS);
        d.log
    }
}

/// Each slice's `p`-percentile of the values completing in it.
fn per_slice(items: &[(u64, f64)], wall_ns: u64, p: f64) -> Vec<f64> {
    per_slice_percentile(items, wall_ns, SLICE_NS, p)
}

/// Reads per second of read phase, per slice: interleaved, each cycle's
/// 256 reads over the time they took; otherwise completions per second, slice by slice.
fn read_rates(mode: Mode, w: &Window) -> Vec<f64> {
    if mode == Mode::Interleaved {
        return w.logs[0]
            .cycles
            .iter()
            .map(|c| READS_PER_CYCLE as f64 / (c.read_ns.max(1) as f64 / 1e9))
            .collect();
    }
    let done: Vec<u64> = w.logs.iter().flat_map(|l| l.reads.iter().map(|r| r.done_ns)).collect();
    slice_rates(&done, w.wall_ns, SLICE_NS)
}

/// Wall time in ms of one pass of the workload's schedule, per slice.
fn pass_ms(mode: Mode, w: &Window, patterns: usize) -> Vec<f64> {
    let ns: Vec<f64> = match mode {
        // one client's round over the 13 reads: the median round of each slice
        Mode::ReadsThenProbe => {
            let rounds: Vec<(u64, f64)> = w
                .logs
                .iter()
                .flat_map(|l| {
                    (patterns..l.reads.len()).step_by(patterns).map(|j| {
                        let (from, to) = (l.reads[j - patterns].done_ns, l.reads[j].done_ns);
                        (to, (to - from) as f64)
                    })
                })
                .collect();
            per_slice(&rounds, w.wall_ns, 0.5)
        }
        // the writer's burst: 4 writes, flush, 4 acknowledgements
        Mode::Concurrent => {
            w.logs.iter().flat_map(|l| l.bursts.iter().map(|b| b.dur_ns as f64)).collect()
        }
        // a burst plus its 256 reads
        Mode::Interleaved => w.logs[0].cycles.iter().map(|c| c.total_ns as f64).collect(),
    };
    ns.iter().map(|ns| ns / 1e6).collect()
}

type Metrics = Vec<(&'static str, f64)>;

/// Metrics of the reads of a window; returns the read rate. End-to-end
/// ones are the quiet decile of the window's slices.
fn read_metrics(
    spec: &Spec,
    w: &Window,
    patterns: usize,
    e2e: &mut Metrics,
    layer: &mut Metrics,
) -> f64 {
    let reads: Vec<&ReadSample> = w.logs.iter().flat_map(|l| &l.reads).collect();
    let lat_of = |keep: &dyn Fn(&ReadSample) -> bool| -> Vec<(u64, f64)> {
        reads.iter().filter(|r| keep(r)).map(|r| (r.done_ns, r.lat_ns as f64)).collect()
    };
    let lat = lat_of(&|_| true);
    let qps = quiet_decile(&read_rates(spec.mode, w), Higher);
    // the suite of a slice: its median latency of each pattern, summed
    let mut suite_us: Vec<f64> = Vec::new();
    for p in 0..patterns {
        let medians = per_slice(&lat_of(&|r| r.pattern == p), w.wall_ns, 0.5);
        suite_us.resize(suite_us.len().max(medians.len()), 0.0);
        for (sum, m) in suite_us.iter_mut().zip(medians) {
            *sum += m / 1e3;
        }
    }
    e2e.extend([
        ("sweep_ms", quiet_decile(&pass_ms(spec.mode, w, patterns), Lower)),
        ("suite_read_us", quiet_decile(&suite_us, Lower)),
        ("read_qps", qps),
        ("read_p50_us", quiet_decile(&per_slice(&lat, w.wall_ns, 0.50), Lower) / 1e3),
        ("read_p95_us", quiet_decile(&per_slice(&lat, w.wall_ns, 0.95), Lower) / 1e3),
    ]);
    let mut all: Vec<f64> = lat.iter().map(|&(_, ns)| ns).collect();
    all.sort_by(f64::total_cmp);
    let overhead: Vec<u64> = reads.iter().map(|r| r.lat_ns.saturating_sub(r.exec_ns)).collect();
    let stalled: u64 = reads.iter().filter(|r| r.lat_ns > STALL_NS).map(|r| r.lat_ns).sum();
    let readers = w.logs.iter().filter(|l| !l.reads.is_empty()).count().max(1);
    let lookups = (w.cache_hits + w.cache_misses).max(1);
    layer.extend([
        ("server.read_overhead_us", median_u64(&overhead) / 1e3),
        (
            "server.queue_wait_us",
            median_u64(&reads.iter().map(|r| r.queue_ns).collect::<Vec<_>>()) / 1e3,
        ),
        ("server.read_p99_us", percentile(&all, 0.99) / 1e3),
        ("server.read_max_ms", percentile(&all, 1.0) / 1e6),
        (
            "server.read_stall_ms_per_s",
            stalled as f64 / 1e6 / (w.wall_ns as f64 / 1e9) / readers as f64,
        ),
        ("query.cache_hit_ratio", w.cache_hits as f64 / lookups as f64),
    ]);
    // page counters: exact over the counted cycles of the interleaved client
    let counted: Vec<&ReadSample> = if spec.mode == Mode::Interleaved {
        reads.iter().take(COUNT_CYCLES * READS_PER_CYCLE).copied().collect()
    } else {
        reads
    };
    let n = counted.len().max(1) as f64;
    let page_reads: u64 = counted.iter().map(|r| r.page_reads).sum();
    let pool_hits: u64 = counted.iter().map(|r| r.pool_hits).sum();
    let evictions: u64 = counted.iter().map(|r| r.pool_evictions).sum();
    layer.extend([
        ("store.page_reads_per_read", page_reads as f64 / n),
        ("store.pool_hit_ratio", pool_hits as f64 / (pool_hits + page_reads).max(1) as f64),
        ("store.pool_evictions_per_read", evictions as f64 / n),
    ]);
    qps
}

/// Metrics of the writes of one client's log.
fn write_metrics(
    spec: &Spec,
    log: &Log,
    cache_misses: u64,
    initial_file_len: u64,
    e2e: &mut Metrics,
    layer: &mut Metrics,
) {
    // a burst is a slice of its own: tens of milliseconds of work
    let rates: Vec<f64> =
        log.bursts.iter().map(|b| BURST as f64 / (b.dur_ns.max(1) as f64 / 1e9)).collect();
    let burst_lat: Vec<f64> = log.bursts.iter().map(|b| b.write_ns).collect();
    e2e.extend([
        ("write_ops_s", quiet_decile(&rates, Higher)),
        ("write_p50_us", quiet_decile(&burst_lat, Lower) / 1e3),
    ]);
    let mut all: Vec<f64> = log.writes.iter().map(|w| w.lat_ns as f64).collect();
    all.sort_by(f64::total_cmp);
    let n = log.writes.len().max(1) as f64;
    let bursts = log.bursts.len().max(1) as f64;
    layer.extend([
        ("server.write_p95_us", percentile(&all, 0.95) / 1e3),
        (
            "server.write_queue_wait_us",
            median_u64(&log.writes.iter().map(|w| w.queue_ns).collect::<Vec<_>>()) / 1e3,
        ),
        (
            "server.flush_wait_us",
            median_u64(&log.bursts.iter().map(|b| b.flush_ns).collect::<Vec<_>>()) / 1e3,
        ),
        ("server.group_size", log.writes.iter().map(|w| w.group_size as f64).sum::<f64>() / n),
        (
            "server.epochs_per_burst",
            log.bursts.iter().map(|b| b.epochs as f64).sum::<f64>() / bursts,
        ),
        ("query.cache_misses_per_write", cache_misses as f64 / n),
    ]);
    if spec.mode == Mode::Interleaved {
        let counted = (COUNT_CYCLES * BURST).min(log.writes.len()).max(1);
        let pages: u64 = log.writes.iter().take(counted).map(|w| w.pages).sum();
        let grown = log.file_len_at_count.saturating_sub(initial_file_len);
        layer.extend([
            ("store.pages_written_per_write", pages as f64 / counted as f64),
            ("store.file_kb_per_write", grown as f64 / 1024.0 / counted as f64),
        ]);
    }
}

/// The server's database must equal the initial one with the last
/// acknowledged value of each cell applied.
fn final_state_matches(
    t: &Tpcw,
    initial: &Database,
    served: &Database,
    acked: &[(ElementId, usize, Value)],
) -> Result<(), String> {
    let mut last: BTreeMap<(u32, usize), &Value> = BTreeMap::new();
    for (e, attr, v) in acked {
        last.insert((e.0, *attr), v);
    }
    let mut expected = initial.clone();
    // the clone shares the server's page file; it must not write to it
    expected.detach_storage();
    if !last.is_empty() {
        let mut b = UpdateBatch::new();
        for (&(e, attr), &v) in &last {
            b.write_attr(ElementId(e), attr, v.clone());
        }
        b.apply(&mut expected, &t.g).map_err(|e| format!("expected state does not apply: {e}"))?;
    }
    served.same_state(&expected, false)
}

/// Durability: save the final database to a fresh page file, reopen
/// it, and hold the loaded state against the saved one. Returns the
/// two times in ns.
fn durability(served: &Database) -> Result<(u64, u64), String> {
    let path = tmp_dir().join("durable.pages");
    let pool = PoolConfig { pool_bytes: POOL_BYTES };
    let mut saved = served.clone();
    let t0 = Instant::now();
    saved.save_paged(&path, pool).map_err(|e| format!("save_paged: {e}"))?;
    let save_ns = t0.elapsed().as_nanos() as u64;
    drop(saved);
    let t0 = Instant::now();
    let loaded = Database::load_paged(&path, served.schema.clone(), pool)
        .map_err(|e| format!("load_paged: {e}"))?;
    let load_ns = t0.elapsed().as_nanos() as u64;
    loaded.same_state(served, true)?;
    Ok((save_ns, load_ns))
}

type Samples = BTreeMap<&'static str, Vec<u64>>;

fn timed<R>(
    rec: &mut Recorder,
    samples: &mut Samples,
    layer: &'static str,
    name: &str,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    let (r, ns) = rec.call(layer, name, request, |_| f());
    samples.entry(layer).or_default().push(ns);
    r
}

/// The layer walk: replay a fixed sample of the schedule single-threaded
/// through the public layer functions, one span per call, on a private
/// copy of the final database whose previous version stays pinned by a
/// live snapshot — so copy-on-write is paid as it is in the server.
fn walk(b: &Bench, served: &Database, k: &mut u64, rec: &mut Recorder, out: &mut Outcome) {
    let Bench { t, spec, plan, oracle, .. } = *b;
    let g = &t.g;
    let mut db = served.clone();
    if spec.paged {
        // a page file of its own: the walk's flushes must not touch the
        // files the durability check reads
        let backend = FilePages::create_at(tmp_dir().join("walk.pages"))
            .expect("create the walk's page file");
        db.attach_paged(Arc::new(backend), PoolConfig { pool_bytes: POOL_BYTES })
            .expect("attach the walk's page file");
    }
    let mut samples = Samples::new();
    let mut request = 0;

    let cache = PlanCache::new(colorist_query::cache::DEFAULT_CAPACITY);
    let mut pin = db.snapshot();
    let mut exec_by_pattern: Vec<Vec<u64>> = vec![Vec::new(); t.reads.len()];
    for rep in 0..WALK_READ_REPS {
        for (qi, q) in t.reads.iter().enumerate() {
            request += 1;
            out.attempted += 1;
            let ok = rec
                .call("bench.walk", &format!("read:{}", q.name), request, |rec| {
                    // the first lookup of each pattern misses and optimizes
                    let lookup_layer =
                        if rep == 0 { "query.optimize" } else { "query.plan_lookup" };
                    let lookup = timed(rec, &mut samples, lookup_layer, &q.name, request, || {
                        optimize_cached(&cache, pin.database(), g, q)
                    });
                    let Ok(lookup) = lookup else { return false };
                    let (r, ns) = rec.call("query.exec", &q.name, request, |_| {
                        execute_snapshot(&pin, g, &lookup.plan)
                    });
                    exec_by_pattern[qi].push(ns);
                    r.is_ok_and(|r| Answer::of(r.results, r.distinct, &r.elements) == oracle[qi])
                })
                .0;
            out.failed += u64::from(!ok);
        }
    }

    for _ in 0..WALK_BURSTS {
        request += 1;
        out.attempted += 1;
        let ok = rec
            .call("bench.walk", "burst", request, |rec| {
                let batches: Vec<UpdateBatch> =
                    (0..BURST as u64).map(|i| plan.batch(*k + i)).collect();
                *k += BURST as u64;
                let mut sched = CommitScheduler::new();
                for batch in &batches {
                    timed(rec, &mut samples, "store.analyze", "batch", request, || {
                        analyze_batch(batch, &db, g)
                    });
                    sched.stage(batch.clone());
                }
                timed(rec, &mut samples, "store.certify", "burst", request, || sched.plan(&db, g));
                let mut valid = true;
                for batch in &batches {
                    valid &= timed(rec, &mut samples, "store.validate", "batch", request, || {
                        batch.validate(&db, g)
                    })
                    .is_ok();
                }
                let mut trial =
                    timed(rec, &mut samples, "store.clone", "trial", request, || db.clone());
                let committed = timed(rec, &mut samples, "store.commit", "burst", request, || {
                    sched.commit(&mut trial, g)
                });
                timed(rec, &mut samples, "store.snapshot", "install+publish", request, || {
                    db = trial;
                    pin = db.snapshot();
                });
                let single = plan.batch(*k);
                *k += 1;
                let applied = timed(rec, &mut samples, "store.apply", "one cell", request, || {
                    single.apply(&mut db, g)
                });
                timed(rec, &mut samples, "store.snapshot", "publish", request, || {
                    pin = db.snapshot()
                });
                if spec.paged {
                    // a direct write marks segments dirty without flushing
                    let (e, attr, v) = plan.op(*k);
                    *k += 1;
                    rec.call("store.write_attr", "direct", request, |_| db.write_attr(e, attr, v));
                    valid &= timed(rec, &mut samples, "store.flush", "one cell", request, || {
                        db.flush_storage()
                    })
                    .is_ok();
                    pin = db.snapshot();
                }
                valid && committed.is_ok() && applied.is_ok()
            })
            .0;
        out.failed += u64::from(!ok);
    }
    drop(pin);

    let med_us = |layer: &str| samples.get(layer).map_or(0.0, |v| median_u64(v) / 1e3);
    let all_exec: Vec<u64> = exec_by_pattern.iter().flatten().copied().collect();
    out.layer.extend([
        ("query.plan_lookup_us", med_us("query.plan_lookup")),
        ("query.optimize_us", med_us("query.optimize")),
        ("query.exec_us", median_u64(&all_exec) / 1e3),
        (
            "query.exec_max_pattern_us",
            exec_by_pattern.iter().map(|v| median_u64(v)).fold(0.0, f64::max) / 1e3,
        ),
        ("store.analyze_us", med_us("store.analyze")),
        ("store.certify_us", med_us("store.certify")),
        ("store.validate_us", med_us("store.validate")),
        ("store.clone_us", med_us("store.clone")),
        ("store.apply_us", med_us("store.apply")),
        ("store.commit_us", med_us("store.commit")),
        ("store.snapshot_us", med_us("store.snapshot")),
        ("store.flush_us", med_us("store.flush")),
    ]);
}

/// Run one served workload; returns the outcome and, traced, the spans.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> (Outcome, Vec<Span>) {
    let t = Tpcw::new();
    let mut out = Outcome::default();

    // the set-up the window runs on; the others, which only time it, run
    // once the window is done so that they leave nothing in its memory
    let guard = arm_phase(spec.name, "setup", Duration::from_secs(60));
    let t0 = Instant::now();
    let Fixture { server, initial, oracle, page_file, attach_ns, failed } = build(&t, spec, 0);
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    let mut attach = vec![attach_ns as f64 / 1e6];
    out.attempted += t.reads.len() as u64;
    out.failed += failed;
    out.e2e.push(("setup_rss_mb", rss_mb("VmRSS")));
    let plan = WritePlan::new(&t, &initial, seed);
    let mut rng = Rng::new(seed ^ 0x5eed);
    let bench = Bench {
        t: &t,
        spec,
        oracle: &oracle,
        page_file: page_file.as_deref(),
        plan: &plan,
        orders: (0..2).map(|_| permutation(&mut rng, t.reads.len())).collect(),
        epoch: Instant::now(),
    };
    let initial_file_len =
        bench.page_file.and_then(|p| std::fs::metadata(p).ok()).map_or(0, |m| m.len());
    drop(guard);

    // traced: an untraced and a traced stretch of equal length, whose
    // difference is the tracing overhead; metrics come from the first
    let mut spans = Vec::new();
    let mut k = 0u64;
    let mut windows = Vec::new();
    for (secs, tracing) in stretches(seconds, traced) {
        let _guard = arm_phase(spec.name, "window", Duration::from_secs_f64(3.0 * secs + 5.0));
        windows.push(bench.window(&server, secs, tracing, &mut k, &mut spans));
    }
    let probe = (spec.mode == Mode::ReadsThenProbe).then(|| {
        let _guard = arm_phase(spec.name, "probe", Duration::from_secs(60));
        bench.probe(&server, 0.15 * seconds, &mut k)
    });

    let guard = arm_phase(spec.name, "checks", Duration::from_secs(90));
    let window = &windows[0];
    let main_rate = read_metrics(spec, window, t.reads.len(), &mut out.e2e, &mut out.layer);
    let (writer, misses_while_writing) = match &probe {
        Some(log) => (log, 0),
        None => (window.logs.last().expect("a client ran"), window.cache_misses),
    };
    write_metrics(
        spec,
        writer,
        misses_while_writing,
        initial_file_len,
        &mut out.e2e,
        &mut out.layer,
    );
    if let [_, with_spans] = &windows[..] {
        let traced_rate = quiet_decile(&read_rates(spec.mode, with_spans), Higher);
        out.layer.push(("bench.trace_overhead_pct", (main_rate - traced_rate) / main_rate * 100.0));
    }
    out.notes.push(format!(
        "{} reads, {} writes in {} bursts sampled; nproc {}, {WORKERS} workers",
        window.logs.iter().map(|l| l.reads.len()).sum::<usize>(),
        writer.writes.len(),
        writer.bursts.len(),
        crate::fixture::nproc(),
    ));

    let served = server.shutdown();
    let mut acked: Vec<(ElementId, usize, Value)> = Vec::new();
    for log in windows.iter().flat_map(|w| &w.logs).chain(&probe) {
        out.attempted += log.attempted;
        out.failed += log.failed;
        acked.extend(log.acked.iter().cloned());
    }
    out.attempted += 1;
    if let Err(why) = final_state_matches(&t, &initial, &served, &acked) {
        eprintln!("colorist-benchmark: {}: final state: {why}", spec.name);
        out.failed += 1;
    }
    if spec.paged {
        out.attempted += 1;
        match durability(&served) {
            Ok((save_ns, load_ns)) => {
                out.layer.extend([
                    ("store.save_ms", save_ns as f64 / 1e6),
                    ("store.load_ms", load_ns as f64 / 1e6),
                ]);
            }
            Err(why) => {
                eprintln!("colorist-benchmark: {}: durability: {why}", spec.name);
                out.failed += 1;
            }
        }
    }
    if traced {
        let mut rec = Recorder::new(bench.epoch, 0, true);
        walk(&bench, &served, &mut k, &mut rec, &mut out);
        spans.extend(rec.into_spans());
    }
    out.layer.push(("bench.peak_rss_mb", rss_mb("VmHWM")));
    drop((served, initial, windows, probe));
    drop(guard);

    let guard = arm_phase(spec.name, "setup", Duration::from_secs(60));
    for round in 1..SETUPS {
        let t0 = Instant::now();
        let again = build(&t, spec, round);
        setups.push(t0.elapsed().as_secs_f64());
        attach.push(again.attach_ns as f64 / 1e6);
        out.attempted += t.reads.len() as u64;
        out.failed += again.failed;
        again.server.shutdown();
        if let Some(p) = &again.page_file {
            let _ = std::fs::remove_file(p);
        }
    }
    drop(guard);
    out.e2e.push(("setup_s", quiet_decile(&setups, Lower)));
    out.layer.push(("store.attach_ms", median(&attach)));
    out.layer.push(("bench.failed_ratio", out.failed as f64 / out.attempted.max(1) as f64));
    (out, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What keeps every served answer equal to the set-up oracle and the
    /// final state a function of the last value per cell.
    #[test]
    fn written_values_keep_their_side_of_q4_and_intern_nothing_new() {
        let t = Tpcw::new();
        let schema = design(&t.g, Strategy::Dr).expect("DR designs TPC-W");
        let db =
            materialize(&t.g, &schema, &generate(&t.g, &ScaleProfile::tpcw(&t.g, 200), DATA_SEED));
        for seed in [7, 42] {
            let plan = WritePlan::new(&t, &db, seed);
            let index = |e: ElementId| plan.targets.iter().position(|&x| x == e).expect("a target");
            for k0 in (0..4000).step_by(BURST) {
                let burst: Vec<_> = (k0..k0 + BURST as u64).map(|k| plan.op(k)).collect();
                let customers: BTreeSet<u32> = burst.iter().map(|(e, _, _)| e.0).collect();
                assert_eq!(customers.len(), BURST, "a burst writes distinct customers");
                for (e, attr, value) in burst {
                    match value {
                        Value::Float(d) => {
                            assert_eq!(attr, plan.discount);
                            assert_eq!(d > Q4_THRESHOLD, plan.high[index(e)], "write {k0}: {d}");
                        }
                        Value::Text(s) => {
                            assert_eq!(attr, plan.uname);
                            assert!(db.interner().get(&s).is_some(), "{s} would be a new symbol");
                        }
                        Value::Int(_) => panic!("no integer cell is written"),
                    }
                }
            }
        }
    }
}
