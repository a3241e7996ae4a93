//! `design_sweep`: the paper's pipeline with no server. One sweep builds
//! the ER collection's graphs and designs, generates one TPC-W instance,
//! and for each of the seven strategies designs, materializes, runs the
//! 13 reads and runs U1–U3 each on a fresh clone. Sweeps repeat until
//! the window ends; every call into a layer is timed from outside.

use crate::fixture::{permutation, rss_mb, stretches, Tpcw, DATA_SEED, SETUPS};
use crate::report::Better::{self, Higher, Lower};
use crate::report::Outcome;
use crate::span::{Recorder, Span};
use crate::stats::{median, median_u64, percentile, quiet_decile};
use crate::watchdog::arm_phase;
use colorist_core::{design, Strategy};
use colorist_datagen::{generate, materialize, Rng, ScaleProfile};
use colorist_er::{catalog, ErDiagram, ErGraph};
use colorist_query::{execute, execute_update, optimize};
use std::time::{Duration, Instant};

pub const NAME: &str = "design_sweep";
const CUSTOMERS: u32 = 1000;

/// The sweep's fixed inputs; the seed orders strategies and reads.
struct Ctx {
    t: Tpcw,
    catalog: Vec<ErDiagram>,
    profile: ScaleProfile,
    strategies: Vec<Strategy>,
    read_order: Vec<usize>,
}

impl Ctx {
    fn new(seed: u64) -> Ctx {
        let t = Tpcw::new();
        let mut rng = Rng::new(seed);
        let strategies = permutation(&mut rng, Strategy::ALL.len())
            .into_iter()
            .map(|i| Strategy::ALL[i])
            .collect();
        let read_order = permutation(&mut rng, t.reads.len());
        let profile = ScaleProfile::tpcw(&t.g, CUSTOMERS);
        Ctx { t, catalog: catalog::collection(), profile, strategies, read_order }
    }
}

/// One sweep's layer times (ns), exact counts and checks.
#[derive(Default)]
struct Sweep {
    wall_ns: u64,
    graph_ns: u64,
    design_ns: u64,
    generate_ns: u64,
    materialize_ns: u64,
    optimize_ns: u64,
    exec_ns: u64,
    update_ns: u64,
    drop_ns: u64,
    elements: u64,
    scanned: u64,
    results: u64,
    value_joins: u64,
    dup_writes: u64,
    /// optimize + execute of each read.
    read_ns: Vec<u64>,
    /// execute_update of each update.
    write_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
}

fn sweep(ctx: &Ctx, rec: &mut Recorder, request: u64) -> Sweep {
    let mut s = Sweep::default();
    let g = &ctx.t.g;
    let ((), wall_ns) = rec.call("bench.sweep", "sweep", request, |rec| {
        // the ER collection: what a designer surveys before choosing
        let (graphs, ns) = rec.call("er.graph", "catalog", request, |_| {
            ctx.catalog.iter().map(ErGraph::from_diagram).collect::<Vec<_>>()
        });
        s.graph_ns += ns;
        let (bad, ns) = rec.call("core.design", "catalog x 7", request, |_| {
            let mut bad = 0;
            for cg in &graphs {
                for &strategy in &Strategy::ALL {
                    let ok = cg.as_ref().is_ok_and(|cg| design(cg, strategy).is_ok());
                    bad += u64::from(!ok);
                }
            }
            bad
        });
        s.design_ns += ns;
        s.attempted += (graphs.len() * Strategy::ALL.len()) as u64;
        s.failed += bad;
        rec.call("store.drop", "catalog graphs", request, |_| drop(graphs));

        let (instance, ns) =
            rec.call("datagen.generate", "tpcw", request, |_| generate(g, &ctx.profile, DATA_SEED));
        s.generate_ns += ns;

        // logical answers must agree across the seven strategies
        let mut distinct: Vec<Option<u64>> = vec![None; ctx.t.reads.len()];
        let mut logical: Vec<Option<u64>> = vec![None; ctx.t.updates.len()];
        for &strategy in &ctx.strategies {
            let label = strategy.label();
            let (schema, ns) = rec.call("core.design", label, request, |_| design(g, strategy));
            s.design_ns += ns;
            let Ok(schema) = schema else {
                s.attempted += 1;
                s.failed += 1;
                continue;
            };
            let (db, ns) = rec.call("datagen.materialize", label, request, |_| {
                materialize(g, &schema, &instance)
            });
            s.materialize_ns += ns;
            s.elements += db.element_count() as u64;

            for &qi in &ctx.read_order {
                let q = &ctx.t.reads[qi];
                let (plan, opt_ns) =
                    rec.call("query.optimize", &q.name, request, |_| optimize(&db, g, q));
                s.optimize_ns += opt_ns;
                s.attempted += 1;
                let Ok(plan) = plan else {
                    s.failed += 1;
                    continue;
                };
                let (r, exec_ns) =
                    rec.call("query.exec", &q.name, request, |_| execute(&db, g, &plan));
                s.exec_ns += exec_ns;
                s.read_ns.push(opt_ns + exec_ns);
                match r {
                    Ok(r) if *distinct[qi].get_or_insert(r.distinct) == r.distinct => {
                        s.scanned += r.metrics.elements_scanned;
                        s.results += r.results;
                        s.value_joins += r.metrics.value_joins_plus_crossings();
                    }
                    _ => s.failed += 1,
                }
            }

            for (ui, u) in ctx.t.updates.iter().enumerate() {
                let mut clone = db.clone();
                let (o, ns) = rec
                    .call("query.update", &u.name, request, |_| execute_update(&mut clone, g, u));
                s.update_ns += ns;
                s.write_ns.push(ns);
                s.attempted += 2;
                match o {
                    Ok(o) if *logical[ui].get_or_insert(o.logical) == o.logical => {
                        s.dup_writes += o.metrics.duplicate_updates;
                    }
                    _ => s.failed += 1,
                }
                let (sound, _) = rec
                    .call("store.check", "check_integrity", request, |_| clone.check_integrity());
                s.failed += u64::from(sound.is_err());
                let ((), ns) = rec.call("store.drop", &u.name, request, |_| drop(clone));
                s.drop_ns += ns;
            }
            let ((), ns) = rec.call("store.drop", label, request, |_| drop(db));
            s.drop_ns += ns;
        }
    });
    s.wall_ns = wall_ns;
    s
}

/// Run the workload: a set-up, the window(s), then the set-ups that only
/// time it. Returns the outcome and, traced, the spans.
pub fn run(seed: u64, seconds: f64, traced: bool) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(Instant::now(), 0, false);

    // a set-up is the inputs plus one warm-up sweep; the first is the
    // one the window runs on, the rest only time it and run afterwards
    let set_up = |out: &mut Outcome, rec: &mut Recorder| {
        let t = Instant::now();
        let ctx = Ctx::new(seed);
        let warm = sweep(&ctx, rec, 0);
        out.attempted += warm.attempted;
        out.failed += warm.failed;
        (ctx, t.elapsed().as_secs_f64())
    };
    let guard = arm_phase(NAME, "setup", Duration::from_secs(60));
    let (ctx, first) = set_up(&mut out, &mut rec);
    let mut setups = vec![first];
    let setup_rss_mb = rss_mb("VmRSS");
    drop(guard);

    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut stretch_ms: Vec<f64> = Vec::new();
    for (secs, on) in stretches(seconds, traced) {
        let _guard = arm_phase(NAME, "window", Duration::from_secs_f64(3.0 * secs + 5.0));
        rec.set_on(on);
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let first = sweeps.len();
        while Instant::now() < deadline || sweeps.len() == first {
            sweeps.push(sweep(&ctx, &mut rec, sweeps.len() as u64 + 1));
        }
        stretch_ms
            .push(median_u64(&sweeps[first..].iter().map(|s| s.wall_ns).collect::<Vec<_>>()) / 1e6);
    }

    for s in &sweeps {
        out.attempted += s.attempted;
        out.failed += s.failed;
    }
    // end-to-end metrics are taken per sweep and the quiet decile of the
    // sweeps reported; layer shares are medians
    let per_sweep = |f: &dyn Fn(&Sweep) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
    let quiet = |better: Better, f: &dyn Fn(&Sweep) -> f64| {
        quiet_decile(&sweeps.iter().map(f).collect::<Vec<_>>(), better)
    };
    let pct_us = |ns: &[u64], p: f64| {
        let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    };
    let peak_rss_mb = rss_mb("VmHWM");
    rec.set_on(false);
    let guard = arm_phase(NAME, "setup", Duration::from_secs(60));
    for _ in 1..SETUPS {
        setups.push(set_up(&mut out, &mut rec).1);
    }
    drop(guard);

    out.e2e = vec![
        ("setup_s", quiet_decile(&setups, Lower)),
        ("sweep_ms", quiet(Lower, &|s| s.wall_ns as f64 / 1e6)),
        ("suite_read_us", quiet(Lower, &|s| s.exec_ns as f64 / 1e3)),
        (
            "read_qps",
            quiet(Higher, &|s| {
                s.read_ns.len() as f64 / ((s.optimize_ns + s.exec_ns).max(1) as f64 / 1e9)
            }),
        ),
        ("read_p50_us", quiet(Lower, &|s| pct_us(&s.read_ns, 0.50))),
        ("read_p95_us", quiet(Lower, &|s| pct_us(&s.read_ns, 0.95))),
        (
            "write_ops_s",
            quiet(Higher, &|s| s.write_ns.len() as f64 / (s.update_ns.max(1) as f64 / 1e9)),
        ),
        ("write_p50_us", quiet(Lower, &|s| pct_us(&s.write_ns, 0.50))),
        ("setup_rss_mb", setup_rss_mb),
    ];
    out.layer = vec![
        ("er.graph_us", per_sweep(&|s| s.graph_ns as f64 / 1e3)),
        ("core.design_us", per_sweep(&|s| s.design_ns as f64 / 1e3)),
        ("datagen.generate_ms", per_sweep(&|s| s.generate_ns as f64 / 1e6)),
        ("datagen.materialize_ms", per_sweep(&|s| s.materialize_ns as f64 / 1e6)),
        ("query.optimize_us", per_sweep(&|s| s.optimize_ns as f64 / 1e3)),
        ("query.exec_us", per_sweep(&|s| s.exec_ns as f64 / 1e3)),
        ("query.update_ms", per_sweep(&|s| s.update_ns as f64 / 1e6)),
        ("store.drop_ms", per_sweep(&|s| s.drop_ns as f64 / 1e6)),
        ("store.elements", per_sweep(&|s| s.elements as f64)),
        (
            "query.exec_scanned_per_result",
            per_sweep(&|s| s.scanned as f64 / s.results.max(1) as f64),
        ),
        ("query.exec_value_joins", per_sweep(&|s| s.value_joins as f64)),
        ("query.update_dup_writes", per_sweep(&|s| s.dup_writes as f64)),
        ("bench.peak_rss_mb", peak_rss_mb),
        ("bench.failed_ratio", out.failed as f64 / out.attempted.max(1) as f64),
    ];
    if let [untraced, with_spans] = stretch_ms[..] {
        // sweeps per second fall as sweep time rises
        out.layer.push(("bench.trace_overhead_pct", (with_spans - untraced) / with_spans * 100.0));
    }
    out.notes.push(format!(
        "{} sweeps of {} reads and {} updates sampled; strategies {:?}",
        sweeps.len(),
        sweeps[0].read_ns.len(),
        sweeps[0].write_ns.len(),
        ctx.strategies.iter().map(|s| s.label()).collect::<Vec<_>>()
    ));
    (out, rec.into_spans())
}
