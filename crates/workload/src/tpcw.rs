//! The TPC-W workload: 16 queries (Q1–Q13, U1–U3).
//!
//! Q1 and Q2 are quoted verbatim in the paper; the rest are reconstructed
//! from the evaluation's observable shapes (§6.1 and Table 1): Q3–Q5 and
//! Q13 are the four queries "indifferent to choice of schema"
//! (association-free selections); Q6 returns duplicates on DEEP and needs
//! duplicate elimination; Q7 traverses the M:N `order_line` from the item
//! side; Q8 is the multi-association star; Q9 the longest chain
//! (country → … → author); Q10 the 1:1 hop; Q11 the aggregation; Q12 the
//! billing+shipping star where UNDR's un-normalized structure wins; U1 an
//! order insertion; U2 a two-customer modify; U3 a single-element address
//! modify that is catastrophic on duplicated schemas.

use crate::suite::Workload;
use colorist_er::{ErGraph, NodeId};
use colorist_query::pattern::find_edge;
use colorist_query::{
    CmpOp, InsertLink, InsertSpec, NewInstance, Partner, Pattern, PatternBuilder, UpdateAction,
    UpdateSpec,
};
use colorist_store::Value;

fn t(s: &str) -> Value {
    Value::Text(s.to_string())
}

/// Build the TPC-W workload against the TPC-W ER graph.
#[allow(clippy::vec_init_then_push)] // one commented push per paper query
pub fn workload(g: &ErGraph) -> Workload {
    let b = |name: &str| PatternBuilder::new(g, name);
    let mut reads: Vec<Pattern> = Vec::new();

    // Q1: orders placed by customers having addresses in Japan
    reads.push(
        b("Q1")
            .node("country")
            .pred_eq("name", t("country_name_1"))
            .node("order")
            .chain(0, 1, &["in", "address", "has", "customer", "make"])
            .unwrap()
            .output(1)
            .build()
            .unwrap(),
    );
    // Q2: orders with billing addresses in Japan
    reads.push(
        b("Q2")
            .node("country")
            .pred_eq("name", t("country_name_1"))
            .node("order")
            .chain(0, 1, &["in", "address", "billing"])
            .unwrap()
            .output(1)
            .build()
            .unwrap(),
    );
    // Q3 (schema-indifferent): cheap items
    reads.push(
        b("Q3")
            .node("item")
            .pred("cost", CmpOp::Lt, Value::Float(500.0))
            .output(0)
            .build()
            .unwrap(),
    );
    // Q4 (schema-indifferent): high-discount customers
    reads.push(
        b("Q4")
            .node("customer")
            .pred("discount", CmpOp::Gt, Value::Float(9000.0))
            .output(0)
            .build()
            .unwrap(),
    );
    // Q5 (schema-indifferent): orders by status
    reads.push(
        b("Q5").node("order").pred_eq("status", t("order_status_1")).output(0).build().unwrap(),
    );
    // Q6: distinct items ordered by one customer (duplicates on DEEP)
    reads.push(
        b("Q6")
            .node("customer")
            .pred_eq("id", Value::Int(5))
            .node("item")
            .chain(0, 1, &["make", "order", "order_line"])
            .unwrap()
            .output(1)
            .distinct()
            .build()
            .unwrap(),
    );
    // Q7: orders containing one item
    reads.push(
        b("Q7")
            .node("item")
            .pred_eq("id", Value::Int(2))
            .node("order")
            .chain(0, 1, &["order_line"])
            .unwrap()
            .output(1)
            .distinct()
            .build()
            .unwrap(),
    );
    // Q8: customers who ordered an item on a subject, shipped to a country.
    // A plan reduces a node's arms in the order they are declared; the
    // country arm comes first, the order the committed baselines' page
    // counters were recorded in.
    reads.push(
        b("Q8")
            .node("customer")
            .node("order")
            .node("item")
            .pred_eq("subject", t("item_subject_1"))
            .node("country")
            .pred_eq("name", t("country_name_1"))
            .chain(1, 0, &["make"])
            .unwrap()
            .chain(1, 3, &["shipping", "address", "in"])
            .unwrap()
            .chain(1, 2, &["order_line"])
            .unwrap()
            .output(0)
            .distinct()
            .build()
            .unwrap(),
    );
    // Q9: authors of items ordered by customers with addresses in a country
    reads.push(
        b("Q9")
            .node("country")
            .pred_eq("name", t("country_name_1"))
            .node("author")
            .chain(
                0,
                1,
                &[
                    "in",
                    "address",
                    "has",
                    "customer",
                    "make",
                    "order",
                    "order_line",
                    "item",
                    "write",
                ],
            )
            .unwrap()
            .output(1)
            .distinct()
            .build()
            .unwrap(),
    );
    // Q10: the credit card transaction of one order (1:1)
    reads.push(
        b("Q10")
            .node("order")
            .pred_eq("id", Value::Int(7))
            .node("credit_card_transaction")
            .chain(0, 1, &["associate"])
            .unwrap()
            .output(1)
            .distinct()
            .build()
            .unwrap(),
    );
    // Q11: orders shipped to a country, grouped by status (aggregate)
    reads.push(
        b("Q11")
            .node("country")
            .pred_eq("name", t("country_name_1"))
            .node("order")
            .chain(0, 1, &["in", "address", "shipping"])
            .unwrap()
            .output(1)
            .distinct()
            .group_by("status")
            .build()
            .unwrap(),
    );
    // Q12: orders whose billing AND shipping addresses are in one country
    reads.push(
        b("Q12")
            .node("order")
            .node("country")
            .pred_eq("name", t("country_name_1"))
            .node("country")
            .pred_eq("name", t("country_name_1"))
            .chain(0, 1, &["billing", "address", "in"])
            .unwrap()
            .chain(0, 2, &["shipping", "address", "in"])
            .unwrap()
            .output(0)
            .distinct()
            .build()
            .unwrap(),
    );
    // Q13 (schema-indifferent): authors by last name
    reads.push(
        b("Q13").node("author").pred_eq("lname", t("author_lname_1")).output(0).build().unwrap(),
    );

    let updates = vec![u1(g), u2(g), u3(g)];

    Workload {
        name: "tpcw".into(),
        reads,
        updates,
        indifferent: vec!["Q3".into(), "Q4".into(), "Q5".into(), "Q13".into()],
    }
}

fn node(g: &ErGraph, n: &str) -> NodeId {
    g.node_by_name(n).unwrap_or_else(|| panic!("tpcw node {n}"))
}

/// U1: insert a new order for a customer, with its credit card transaction
/// and two order lines referencing existing items.
fn u1(g: &ErGraph) -> UpdateSpec {
    let order = node(g, "order");
    let cct = node(g, "credit_card_transaction");
    let customer = node(g, "customer");
    let item = node(g, "item");
    let make = node(g, "make");
    let associate = node(g, "associate");
    let order_line = node(g, "order_line");
    let e = |rel, part| find_edge(g, rel, part, None).expect("tpcw edge");

    UpdateSpec {
        name: "U1".into(),
        pattern: PatternBuilder::new(g, "U1loc")
            .node("customer")
            .pred_eq("id", Value::Int(9))
            .output(0)
            .build()
            .unwrap(),
        action: UpdateAction::Insert(InsertSpec {
            instances: vec![
                NewInstance {
                    node: order,
                    attrs: vec![
                        Value::Int(5_000_000),
                        Value::Text("2026-07-01".into()),
                        Value::Float(30.0),
                        Value::Float(3.0),
                        Value::Float(33.0),
                        Value::Text("order_status_1".into()),
                    ],
                    links: vec![
                        InsertLink {
                            rel: make,
                            self_edge: e(make, order),
                            partner_edge: e(make, customer),
                            partner: Partner::Matched(0),
                        },
                        InsertLink {
                            rel: order_line,
                            self_edge: e(order_line, order),
                            partner_edge: e(order_line, item),
                            partner: Partner::ByOrdinal(item, 3),
                        },
                        InsertLink {
                            rel: order_line,
                            self_edge: e(order_line, order),
                            partner_edge: e(order_line, item),
                            partner: Partner::ByOrdinal(item, 4),
                        },
                    ],
                },
                NewInstance {
                    node: cct,
                    attrs: vec![
                        Value::Int(5_000_000),
                        Value::Text("visa".into()),
                        Value::Text("4111".into()),
                        Value::Text("2028-01-01".into()),
                        Value::Text("auth".into()),
                        Value::Float(33.0),
                    ],
                    links: vec![InsertLink {
                        rel: associate,
                        self_edge: e(associate, cct),
                        partner_edge: e(associate, order),
                        partner: Partner::New(0),
                    }],
                },
            ],
        }),
    }
}

/// U2: change the email of the first two customers.
fn u2(g: &ErGraph) -> UpdateSpec {
    let email = 4; // customer { id uname fname lname email phone discount }
    UpdateSpec {
        name: "U2".into(),
        pattern: PatternBuilder::new(g, "U2loc")
            .node("customer")
            .pred("id", CmpOp::Lt, Value::Int(2))
            .output(0)
            .build()
            .unwrap(),
        action: UpdateAction::Modify { attr: email, value: Value::Text("new@example.com".into()) },
    }
}

/// U3: a single-element update of one address — the query where duplicated
/// schemas (DEEP, UNDR) pay for every copy.
fn u3(g: &ErGraph) -> UpdateSpec {
    let street1 = 1; // address { id street1 street2 city state zip }
    UpdateSpec {
        name: "U3".into(),
        pattern: PatternBuilder::new(g, "U3loc")
            .node("address")
            .pred_eq("id", Value::Int(7))
            .output(0)
            .build()
            .unwrap(),
        action: UpdateAction::Modify { attr: street1, value: Value::Text("1 New Street".into()) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorist_er::catalog;

    #[test]
    fn sixteen_queries_four_indifferent() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let w = workload(&g);
        assert_eq!(w.reads.len() + w.updates.len(), 16);
        assert_eq!(w.indifferent.len(), 4);
        assert_eq!(w.reported().len(), 12);
        // reported = Q1, Q2, Q6..Q12, U1..U3 — exactly the Table 1 rows
        assert_eq!(
            w.reported(),
            ["Q1", "Q2", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11", "Q12", "U1", "U2", "U3"]
        );
    }
}
