//! Update cost per schema: the insert (U1), the two-customer modify (U2),
//! the single-element modify (U3) whose duplicate maintenance makes DEEP
//! and UNDR pay in Table 1, and the delete of one customer with its
//! subtrees. U1 and the delete are structural writes: they splice the
//! colors they touch (DESIGN.md §5a), so their cost grows with the color,
//! which the second size shows. Each iteration runs on a fresh database
//! clone; only the update itself is timed.
//!
//! The `flush/{customers}` rows time one four-write commit on a DR
//! database attached to in-memory pages: two `uname` and two `discount`
//! writes, as `paged_mixed` sends them, validated, applied and flushed.
//! A flush encodes only the pages the written rows land on, so the row
//! should not grow with the database.

use colorist_bench::micro;
use colorist_core::{design, Strategy};
use colorist_datagen::{generate, materialize, ScaleProfile};
use colorist_er::{catalog, ErGraph};
use colorist_query::{execute_update, PatternBuilder, UpdateAction, UpdateSpec};
use colorist_store::{PoolConfig, Storage, UpdateBatch, Value};
use colorist_workload::tpcw;

fn main() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
    let w = tpcw::workload(&g);
    let delete = UpdateSpec {
        name: "delete".into(),
        pattern: PatternBuilder::new(&g, "delete")
            .node("customer")
            .pred_eq("id", Value::Int(5))
            .output(0)
            .build()
            .unwrap(),
        action: UpdateAction::Delete,
    };
    let updates: Vec<&UpdateSpec> = w.updates.iter().chain([&delete]).collect();
    // 1000 customers is `design_sweep`'s size (BENCHMARK.json)
    for customers in [150, 1000] {
        let inst = generate(&g, &ScaleProfile::tpcw(&g, customers), 42);
        println!(
            "updates — U1/U2/U3/delete per schema ({customers} customers, fresh clone per \
             iteration)"
        );
        for s in Strategy::ALL {
            let schema = design(&g, s).unwrap();
            let db = materialize(&g, &schema, &inst);
            for u in &updates {
                micro::case_with_setup(
                    &format!("{}/{}/{customers}", u.name, s.label()),
                    || db.clone(),
                    |mut dbu| execute_update(&mut dbu, &g, u).unwrap(),
                );
            }
        }
    }
    println!("updates — one four-write commit on paged-mem pages (DR, fresh clone per iteration)");
    let customer = g.node_by_name("customer").unwrap();
    for customers in [1000, 10_000] {
        let inst = generate(&g, &ScaleProfile::tpcw(&g, customers), 42);
        let mut db = materialize(&g, &design(&g, Strategy::Dr).unwrap(), &inst);
        Storage::PagedMem(PoolConfig::default()).attach(&mut db).unwrap();
        let uname = db.attr_index(&g, customer, "uname").unwrap();
        let discount = db.attr_index(&g, customer, "discount").unwrap();
        let extent = db.extent(customer);
        let mut batch = UpdateBatch::new();
        for k in 0..4 {
            let e = extent[(2 * k + 1) * extent.len() / 8];
            match k % 2 {
                // another customer's name: no new symbol
                0 => batch.write_attr(e, uname, db.element(extent[k]).attrs[uname].clone()),
                _ => batch.write_attr(e, discount, Value::Float(k as f64 + 0.25)),
            };
        }
        micro::case_with_setup(
            &format!("flush/{customers}"),
            || db.clone(),
            |mut dbu| batch.apply(&mut dbu, &g).unwrap(),
        );
    }
}
