//! The cost asymmetry the whole paper rests on: structural steps (interval
//! semi-joins) versus value joins (id/idref resolution), at growing
//! extents — "structural joins … have been shown to be much more efficient
//! than value-based joins". Every case runs through the store's read
//! interface, as the executor does: a path-exact descent against an idref
//! semi-join (indexed, and the hash-join reference), a path-exact ascent on
//! the parent walk against the merge reference, the gallop-skipping kernel
//! against the merge reference at growing side asymmetry, and
//! index-accelerated predicated scans against the linear reference path.

use colorist_bench::micro;
use colorist_core::{design, Strategy};
use colorist_datagen::{generate, materialize, ScaleProfile};
use colorist_er::{catalog, EdgeId, ErGraph, NodeId};
use colorist_mct::ColorId;
use colorist_query::{compile, execute, CmpOp, PatternBuilder};
use colorist_store::{Database, KernelDispatch, Predicate, Value};

fn setup(customers: u32, strategy: Strategy) -> (ErGraph, Database) {
    let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
    let p = ScaleProfile::tpcw(&g, customers);
    let inst = generate(&g, &p, 42);
    let schema = design(&g, strategy).unwrap();
    let db = materialize(&g, &schema, &inst);
    (g, db)
}

/// The ER edges from `anc`'s placement down to `desc`'s in `color`,
/// ancestor side first — the `via` of a descent between them.
fn via(db: &Database, color: ColorId, anc: NodeId, desc: NodeId) -> Vec<EdgeId> {
    let mut cur = db.schema.placements_of_in_color(desc, color)[0];
    let mut edges = Vec::new();
    while db.schema.placement(cur).node != anc {
        let (parent, edge) = db.schema.placement(cur).parent.expect("anc is an ancestor");
        edges.push(edge);
        cur = parent;
    }
    edges.reverse();
    edges
}

fn main() {
    println!("structural_vs_value — descent vs idref semi-join at growing extents");
    for &customers in &[100u32, 400, 1600] {
        // structural: the orders below every country in AF's single color
        let (g, db) = setup(customers, Strategy::Af);
        let color = ColorId(0);
        let (country, order) =
            (g.node_by_name("country").unwrap(), g.node_by_name("order").unwrap());
        let path = via(&db, color, country, order);
        micro::case(&format!("descend/{customers}"), || {
            let mut rd = db.reader();
            let countries = rd.scan(color, country, None).unwrap();
            rd.descend(&countries, order, &path).unwrap().len()
        });

        // structural, upward: from every order to the customer who made
        // it, on the parent walk and on the reference merge, which also
        // walks the whole customer list
        let customer = g.node_by_name("customer").unwrap();
        let made = via(&db, color, customer, order);
        let mut merge_db = db.clone();
        merge_db.set_kernel_dispatch(KernelDispatch::Reference);
        for (case, db) in [("ascend", &db), ("ascend_merge", &merge_db)] {
            let orders = db.reader().scan(color, order, None).unwrap();
            micro::case(&format!("{case}/{customers}"), || {
                db.reader().ascend(&orders, customer, &made).unwrap().len()
            });
        }

        // value: SHALLOW's order_line.item_idref = item.id, from every
        // order line, on the ordinal probe and on the reference hash join
        let (g, mut db) = setup(customers, Strategy::Shallow);
        let ol = g.node_by_name("order_line").unwrap();
        let item = g.node_by_name("item").unwrap();
        let edge =
            g.edge_ids().find(|&e| g.edge(e).rel == ol && g.edge(e).participant == item).unwrap();
        let lines = db.extent(ol).to_vec();
        micro::case(&format!("idref_semi/{customers}"), || {
            db.reader().idref_semi(&g, edge, true, &lines).unwrap()
        });
        db.set_kernel_dispatch(KernelDispatch::Reference);
        micro::case(&format!("idref_semi_hash/{customers}"), || {
            db.reader().idref_semi(&g, edge, true, &lines).unwrap()
        });
    }

    // merge vs gallop at growing side asymmetry: the customers with an id
    // below |orders| / ratio descend to the full order list. At 4x the
    // dispatcher stays on merge (parity row); further out the few
    // customers cover few orders, and gallop binary-searches past the
    // non-joining runs the merge walk must scan one by one.
    println!("merge vs gallop — |customers| = |orders| / ratio (1600 customers)");
    let (g, db) = setup(1600, Strategy::Af);
    let mut merge_db = db.clone();
    merge_db.set_kernel_dispatch(KernelDispatch::Reference);
    let color = ColorId(0);
    let (customer, order) = (g.node_by_name("customer").unwrap(), g.node_by_name("order").unwrap());
    let id = db.attr_index(&g, customer, "id").unwrap();
    let path = via(&db, color, customer, order);
    let orders = db.occ_count(color, order);
    for &ratio in &[4usize, 64, 512] {
        let few = Predicate { attr: id, op: CmpOp::Lt, value: Value::Int((orders / ratio) as i64) };
        for (kernel, db) in [("merge", &merge_db), ("auto", &db)] {
            let mut rd = db.reader();
            let anc = rd.scan(color, customer, Some(&few)).unwrap();
            micro::case(&format!("descend_{kernel}/x{ratio}"), || {
                db.reader().descend(&anc, order, &path).unwrap().len()
            });
        }
    }

    // indexed vs linear predicated scan: the same compiled plan run with
    // the value index live and with the reference kernels pinned, at the
    // two ends of the selectivity spectrum — a point probe (one id) and
    // the tpcw Q3 half-the-extent range
    println!("indexed vs linear predicated scan (point and range selectivity)");
    for &customers in &[100u32, 400, 1600] {
        let (g, mut db) = setup(customers, Strategy::Shallow);
        let point = PatternBuilder::new(&g, "scan_point")
            .node("item")
            .pred_eq("id", Value::Int(5))
            .output(0)
            .build()
            .unwrap();
        let range = PatternBuilder::new(&g, "scan_range")
            .node("item")
            .pred("cost", CmpOp::Lt, Value::Float(500.0))
            .output(0)
            .build()
            .unwrap();
        let point_plan = compile(&g, &db.schema, &point).unwrap();
        let range_plan = compile(&g, &db.schema, &range).unwrap();
        micro::case(&format!("scan_indexed_point/{customers}"), || {
            execute(&db, &g, &point_plan).unwrap()
        });
        micro::case(&format!("scan_indexed_range/{customers}"), || {
            execute(&db, &g, &range_plan).unwrap()
        });
        db.set_kernel_dispatch(KernelDispatch::Reference);
        micro::case(&format!("scan_linear_point/{customers}"), || {
            execute(&db, &g, &point_plan).unwrap()
        });
        micro::case(&format!("scan_linear_range/{customers}"), || {
            execute(&db, &g, &range_plan).unwrap()
        });
    }
}
