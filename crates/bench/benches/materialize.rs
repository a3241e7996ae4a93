//! Build cost: one canonical TPC-W instance materialized into each schema
//! and dropped again, at 150 and 1000 customers (the `design_sweep`
//! workload's size). Un-normalized schemas pay for their copies here
//! (Table 1's storage column, as time).

use colorist_bench::micro;
use colorist_core::{design, Strategy};
use colorist_datagen::{generate, materialize, ScaleProfile};
use colorist_er::{catalog, ErGraph};

fn main() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
    for customers in [150, 1000] {
        let inst = generate(&g, &ScaleProfile::tpcw(&g, customers), 42);
        println!("materialize + drop — canonical TPC-W instance ({customers} customers)");
        for s in Strategy::ALL {
            let schema = design(&g, s).unwrap();
            micro::case(&format!("tpcw{customers}/{}", s.label()), || {
                drop(materialize(&g, &schema, &inst))
            });
        }
    }
}
