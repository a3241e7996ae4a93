//! The paper's tables and figures (§6): `table1`, `fig8`…`fig14` and
//! `collection`.
//!
//! `table1` and `fig11` also write the run's summary document (`--out`,
//! default `results/bench_summary.json`); `table1` with more than one
//! `--threads` adds a single-worker pass for the parallel-speedup figure.

use colorist_bench::{
    collection_suites, print_geo_matrix, print_query_matrix, tpcw_suite, write_bench_summary,
    RunConfig, SummaryMeta,
};
use colorist_core::{design, design_report, Strategy};
use colorist_er::{catalog, EligibleAssociations, ErGraph};
use colorist_store::Storage;
use colorist_workload::{QueryRun, SuiteResult};
use std::time::Duration;

/// Table 1: TPC-W data statistics and query processing time for the seven
/// schemas (DEEP, AF, SHALLOW, EN, MCMR, DR, UNDR).
pub fn table1(run: &RunConfig) {
    let (w, results, serial_wall) = tpcw_suite(run, true);
    println!(
        "Table 1 — TPC-W data statistics and query processing time (scale: {} customers, seed {})",
        run.scale, run.seed
    );
    if run.storage != Storage::Heap {
        let (backend, pool) = (run.storage.label(), run.storage.pool_bytes());
        println!("storage backend: {backend} (buffer pool {pool} bytes)");
    }
    println!();
    let row = |label: &str, f: &dyn Fn(&SuiteResult) -> String| {
        print!("{label:<22}");
        for r in &results {
            print!("{:>16}", f(r));
        }
        println!();
    };
    print!("{:<22}", "");
    for r in &results {
        print!("{:>16}", r.strategy.label());
    }
    println!();
    row("Num. Elements", &|r| r.stats.elements.to_string());
    row("Num. Attributes", &|r| r.stats.attributes.to_string());
    row("Num. Content Nodes", &|r| r.stats.content_nodes.to_string());
    row("Data MBytes", &|r| format!("{:.2}", r.stats.data_mbytes()));
    row("Num. Colors", &|r| r.colors.to_string());
    println!();

    println!("{:<6}{:>12}  time per schema (µs); duplicates in parentheses", "query", "results");
    print!("{:<6}{:>12}", "", "");
    for r in &results {
        print!("{:>16}", r.strategy.label());
    }
    println!();
    for name in w.reported() {
        let logical = results[0].run(name).expect("ran").logical;
        print!("{:<6}{:>12}", name, logical);
        for r in &results {
            let q = r.run(name).expect("ran");
            let dup = q.physical.saturating_sub(q.logical);
            let cell = if dup > 0 {
                format!("{}({})", q.metrics.elapsed.as_micros(), q.physical)
            } else {
                format!("{}", q.metrics.elapsed.as_micros())
            };
            print!("{:>16}", cell);
        }
        println!();
    }

    let suite_wall = results[0].suite_wall;
    println!();
    print!("suite wall: {:.1} ms on {} worker(s)", suite_wall.as_secs_f64() * 1e3, run.threads);
    if let Some(serial) = serial_wall {
        print!(
            "; serial baseline: {:.1} ms ({:.2}x speedup)",
            serial.as_secs_f64() * 1e3,
            serial.as_secs_f64() / suite_wall.as_secs_f64()
        );
    }
    println!();
    write_summary("table1", run, &results, serial_wall);
}

fn write_summary(
    bench: &str,
    run: &RunConfig,
    results: &[SuiteResult],
    serial_wall: Option<Duration>,
) {
    match write_bench_summary(&SummaryMeta { bench, run, serial_wall }, results) {
        Ok(path) => println!("summary: {}", path.display()),
        Err(e) => eprintln!("summary write failed: {e}"),
    }
}

/// Figures 8–11: a TPC-W query × strategy matrix of one metric.
pub fn tpcw_fig(n: u8, run: &RunConfig) {
    let (title, cell): (&str, fn(&QueryRun) -> String) = match n {
        8 => ("Figure 8 — structural joins per TPC-W query", |q| {
            q.metrics.structural_joins.to_string()
        }),
        9 => ("Figure 9 — value joins + color crossings per TPC-W query", |q| {
            format!("{}+{}", q.metrics.value_joins, q.metrics.color_crossings)
        }),
        10 => ("Figure 10 — dup eliminations + dup updates + group-bys per TPC-W query", |q| {
            q.metrics.dup_group_metric().to_string()
        }),
        _ => ("Figure 11 — TPC-W query processing time (µs)", |q| {
            q.metrics.elapsed.as_micros().to_string()
        }),
    };
    let (w, results, _) = tpcw_suite(run, false);
    print_query_matrix(title, &w, &results, cell);
    if n == 11 {
        println!();
        write_summary("fig11", run, &results, None);
    }
}

/// Figures 12–14: a diagram × strategy matrix of one metric's geometric
/// mean over each diagram's workload, for the ER collection (ER1–ER10,
/// Derby, TPC-W) × 6 schemas.
pub fn collection_fig(n: u8, run: &RunConfig) {
    let (title, metric): (&str, fn(&QueryRun) -> u64) = match n {
        12 => ("Figure 12 — geometric mean of structural joins (ER collection)", |q| {
            q.metrics.structural_joins
        }),
        13 => {
            ("Figure 13 — geometric mean of value joins + color crossings (ER collection)", |q| {
                q.metrics.value_joins_plus_crossings()
            })
        }
        _ => (
            "Figure 14 — geometric mean of dup eliminations + dup updates + group-bys \
             (ER collection)",
            |q| q.metrics.dup_group_metric(),
        ),
    };
    print_geo_matrix(title, &collection_suites(run), metric);
}

/// §6.2's prose numbers: the schema sweep over the ER collection.
///
/// The paper: "We took our collection of 11 distinct ER diagrams, ranging
/// in size from 10-30 nodes. For each of these, we generated the six
/// different schemas … for a total of 66 different schemas. The maximum
/// number of colors used was 7. … For each of 28 queries from the XMark
/// benchmark, 8 of which are update queries, we wrote an equivalent query
/// against each of the 66 different schemas" (~1800 compiled queries, with
/// Derby's 20 on top).
pub fn collection() {
    let mut schemas = 0usize;
    let mut max_colors = 0usize;
    let mut queries = 0usize;
    for name in catalog::COLLECTION {
        let g = ErGraph::from_diagram(&catalog::by_name(name).expect("name")).expect("builds");
        let elig = EligibleAssociations::enumerate_default(&g);
        println!(
            "{name:>6}: {:>2} nodes, {:>2} edges, {:>3} eligible associations",
            g.node_count(),
            g.edge_count(),
            elig.len()
        );
        for s in Strategy::COLLECTION {
            let schema = design(&g, s).expect("designs");
            schemas += 1;
            max_colors = max_colors.max(schema.color_count());
            // queries per diagram: 28 XMark-emulated (20 reads + 8 updates),
            // 20 for Derby, 16 for TPC-W
            queries += match name {
                "derby" => 20,
                "tpcw" => 16,
                _ => 28,
            };
        }
    }
    println!();
    println!("schemas generated: {schemas} (paper: 66 over 11 diagrams)");
    println!("maximum colors used: {max_colors} (paper: 7)");
    println!("queries compiled across schemas: {queries} (paper: ~1800 + Derby's)");
    println!();
    println!("per-diagram design report (TPC-W):");
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw");
    println!("{}", design_report(&g));
}
