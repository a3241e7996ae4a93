//! Update cost per schema: the insert (U1), the two-customer modify (U2),
//! the single-element modify (U3) whose duplicate maintenance makes DEEP
//! and UNDR pay in Table 1, and the delete of one customer with its
//! subtrees. U1 and the delete are structural writes: they splice the
//! colors they touch (DESIGN.md §5a), so their cost grows with the color,
//! which the second size shows. Each iteration runs on a fresh database
//! clone; only the update itself is timed.

use colorist_bench::micro;
use colorist_core::{design, Strategy};
use colorist_datagen::{generate, materialize, ScaleProfile};
use colorist_er::{catalog, ErGraph};
use colorist_query::{execute_update, PatternBuilder, UpdateAction, UpdateSpec};
use colorist_store::Value;
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
}
