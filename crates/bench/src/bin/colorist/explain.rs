//! `colorist explain` — `EXPLAIN ANALYZE` from the command line
//! (DESIGN.md §9.3).
//!
//! Compiles and executes every selected read query of the diagram's
//! workload under every selected strategy, printing each plan annotated
//! with the **measured** per-operator metrics (rows in/out, elements
//! scanned, join probes, bytes touched, wall time) next to the compiler's
//! static operation counts. Scale and seed come from `--scale`/`--seed`
//! as for every report subcommand. `--static` prints the colored-XPath
//! sketch instead of executing.
//!
//! `--updates` switches to the workload's updates (U1–U3): each spec is
//! located and lowered to its one [`UpdateBatch`] (`lower_update`, the
//! first half of `execute_update`) and applied atomically, printing the
//! batch receipt — op count, duplicate writes, occurrences removed,
//! commit epoch, and `pages_written` (the paged backend's
//! commit-transaction cost) — plus the locate phase's buffer-pool hit
//! rate. `--backend paged-mem` (or `paged`) populates the page numbers;
//! the heap backend reports them as zero.
//!
//! [`UpdateBatch`]: colorist_store::UpdateBatch

use crate::cli::{unknown, Argv};
use colorist_bench::RunConfig;
use colorist_core::{design, Strategy};
use colorist_datagen::{generate, materialize, ScaleProfile};
use colorist_er::{catalog, ErGraph};
use colorist_query::{
    annotate_costs, compile, execute_profiled, explain, explain_analyze, lower_update, UpdateAction,
};
use colorist_workload::{derby, tpcw, xmark};

/// What to explain: a catalog diagram, optionally one query and one
/// strategy, and whether to sketch, execute, or apply updates.
#[derive(Debug, Default)]
pub struct Args {
    /// Catalog diagram (`tpcw` when unset).
    diagram: Option<String>,
    query: Option<String>,
    strategy: Option<Strategy>,
    static_only: bool,
    updates: bool,
}

impl Args {
    pub fn flag(&mut self, flag: &str, args: &mut Argv) -> Result<(), String> {
        match flag {
            "--diagram" => {
                let v = args.value(flag)?;
                if catalog::by_name(&v).is_none() {
                    return Err(format!("unknown diagram `{v}` (try: {:?})", catalog::COLLECTION));
                }
                self.diagram = Some(v);
            }
            "--query" => self.query = Some(args.value(flag)?),
            "--strategy" => {
                let v = args.value(flag)?;
                self.strategy = Some(Strategy::parse(&v).ok_or(format!("unknown strategy `{v}`"))?);
            }
            "--static" => self.static_only = true,
            "--updates" => self.updates = true,
            _ => return Err(unknown(flag)),
        }
        Ok(())
    }
}

pub fn run(args: &Args, run: &RunConfig) {
    let (diagram, query) = (args.diagram.as_deref().unwrap_or("tpcw"), args.query.as_deref());
    let d = catalog::by_name(diagram).expect("the parser checked the diagram");
    let g = ErGraph::from_diagram(&d).expect("catalog diagram builds");
    let w = match diagram {
        "tpcw" => tpcw::workload(&g),
        "derby" => derby::workload(&g),
        _ => xmark::workload(&g),
    };
    let (scale, seed) = (run.scale, run.seed);
    let profile = if diagram == "tpcw" {
        ScaleProfile::tpcw(&g, scale)
    } else {
        ScaleProfile::uniform(&g, scale)
    };
    let instance = generate(&g, &profile, seed);

    let strategies: Vec<Strategy> = match args.strategy {
        Some(s) => vec![s],
        None => Strategy::ALL.to_vec(),
    };

    if args.updates {
        explain_updates(&g, &w, &instance, &strategies, query, diagram, run);
        return;
    }

    let reads: Vec<_> =
        w.reads.iter().filter(|p| query.is_none_or(|q| q.eq_ignore_ascii_case(&p.name))).collect();
    if reads.is_empty() {
        eprintln!(
            "colorist explain: no read query matches {:?} in {diagram} (updates cannot be \
             explained)",
            query
        );
        std::process::exit(2);
    }

    println!("diagram {diagram}, scale {scale}, seed {seed}");
    for s in strategies {
        let schema = design(&g, s).expect("strategy designs the diagram");
        let db = (!args.static_only).then(|| {
            let mut db = materialize(&g, &schema, &instance);
            // a paged backend populates the per-op pg-r/pg-hit/pg-ev
            // columns and the page totals
            run.storage.attach(&mut db).expect("storage backend attaches");
            db
        });
        for q in &reads {
            // a plan depends on the pattern and the schema alone, so the
            // --static sketch prints the very plan an executed run gets;
            // only an executed run annotates it with cost estimates, read
            // from the database's exact extent and value-index counts, so
            // the estimate-vs-measured drift columns are populated
            let plan = match compile(&g, &schema, q) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("colorist explain: {}/{s}: {e}", q.name);
                    std::process::exit(1);
                }
            };
            if let Some(db) = &db {
                let costs = annotate_costs(db, &g, &plan);
                let (result, prof) = match execute_profiled(db, &g, &plan) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("colorist explain: {}/{s}: {e}", q.name);
                        std::process::exit(1);
                    }
                };
                print!("{}", explain_analyze(&g, &plan, &costs, &result, &prof));
            } else {
                print!("{}", explain(&g, &plan));
            }
            println!();
        }
    }
}

/// Format a locate/apply phase's buffer-pool hit rate.
fn pool_rate(m: &colorist_store::Metrics) -> String {
    let requests = m.pool_hits + m.page_reads;
    if requests == 0 {
        "n/a (no page requests)".to_string()
    } else {
        format!(
            "{:.3} ({} hits / {} faults)",
            m.pool_hits as f64 / requests as f64,
            m.pool_hits,
            m.page_reads
        )
    }
}

/// `--updates`: apply each selected update spec on a fresh materialization
/// as its one batch and print the batch receipt.
fn explain_updates(
    g: &ErGraph,
    w: &colorist_workload::Workload,
    instance: &colorist_datagen::CanonicalInstance,
    strategies: &[Strategy],
    query: Option<&str>,
    diagram: &str,
    run: &RunConfig,
) {
    let specs: Vec<_> = w
        .updates
        .iter()
        .filter(|u| query.is_none_or(|q| q.eq_ignore_ascii_case(&u.name)))
        .collect();
    if specs.is_empty() {
        eprintln!("colorist explain: no update matches {query:?} in {diagram}");
        std::process::exit(2);
    }
    println!("diagram {diagram}, scale {}, seed {} (update batches)", run.scale, run.seed);
    for &s in strategies {
        let schema = design(g, s).expect("strategy designs the diagram");
        for u in &specs {
            // fresh database per spec so every receipt reports the cost of
            // exactly one batch against the pristine instance
            let mut db = materialize(g, &schema, instance);
            run.storage.attach(&mut db).expect("storage backend attaches");
            let fail = |e: &dyn std::fmt::Display| -> ! {
                eprintln!("colorist explain: {}/{s}: {e}", u.name);
                std::process::exit(1);
            };
            let lowered = match lower_update(&db, g, u) {
                Ok(l) => l,
                Err(e) => fail(&e),
            };
            let receipt = match lowered.batch.apply(&mut db, g) {
                Ok(r) => r,
                Err(e) => fail(&e),
            };
            let action = match &u.action {
                UpdateAction::Modify { .. } => "modify",
                UpdateAction::Delete => "delete",
                UpdateAction::Insert(_) => "insert",
            };
            let m = &lowered.metrics;
            println!(
                "{} [{s}]  {action}: {} logical element(s) (locate scanned {}, probes {}, pool \
                 hit rate {})",
                u.name,
                lowered.logical,
                m.elements_scanned,
                m.join_probes,
                pool_rate(m),
            );
            println!(
                "  batch receipt: {} op(s), {} duplicate write(s), {} occurrence(s) removed, \
                 epoch {}, pages written {}",
                receipt.ops,
                receipt.duplicate_writes,
                receipt.occurrences_removed,
                receipt.epoch,
                receipt.pages_written,
            );
        }
    }
}
