//! End-to-end query evaluation per schema: the cheap chain (Q1), the
//! multi-association star (Q8), and the longest chain (Q9) — the queries
//! whose Table 1 rows separate the strategies most. Plus the cost of
//! annotating a range-predicate plan with exact index counts, next to
//! executing it.

use colorist_bench::micro;
use colorist_core::{design, Strategy};
use colorist_datagen::{generate, materialize, ScaleProfile};
use colorist_er::{catalog, ErGraph};
use colorist_query::{annotate_costs, compile, execute};
use colorist_workload::tpcw;

fn main() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
    let p = ScaleProfile::tpcw(&g, 300);
    let inst = generate(&g, &p, 42);
    let w = tpcw::workload(&g);
    println!("query_eval — Q1/Q8/Q9 per schema (300 customers)");
    for s in Strategy::ALL {
        let schema = design(&g, s).unwrap();
        let db = materialize(&g, &schema, &inst);
        for qname in ["Q1", "Q8", "Q9"] {
            let q = w.reads.iter().find(|q| q.name == qname).unwrap();
            let plan = compile(&g, &db.schema, q).unwrap();
            micro::case(&format!("{qname}/{}", s.label()), || execute(&db, &g, &plan).unwrap());
        }
    }

    // Cost annotation reads exact counts from the index: an equality is
    // one posting-run lookup, a range walks the column's key groups. Q3's
    // range predicate is the costliest case EXPLAIN and the suite pay.
    let schema = design(&g, Strategy::Deep).unwrap();
    let db = materialize(&g, &schema, &inst);
    println!("cost annotation — exact index counts (Q3: item.cost < 500, deep)");
    let q3 = w.reads.iter().find(|q| q.name == "Q3").unwrap();
    let plan = compile(&g, &db.schema, q3).unwrap();
    micro::case("annotate/Q3", || annotate_costs(&db, &g, &plan));
    micro::case("execute/Q3", || execute(&db, &g, &plan).unwrap());
}
