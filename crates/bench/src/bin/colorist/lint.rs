//! `colorist lint` — run the static schema linter and plan verifier over
//! the whole catalog, or over one oracle seed.
//!
//! Default mode designs all seven strategies for every diagram of the
//! evaluation collection, lints each schema (`S0xx`), cross-validates the
//! property checkers (`S007`), compiles the diagram's workload against
//! every schema, and verifies every compiled plan (`P0xx`). `--seed` does
//! the same over the randomly generated diagram and workload of one
//! oracle seed. Exit code 0 means zero diagnostics.

use crate::cli::{unknown, Argv};
use colorist_core::{design, properties, Strategy};
use colorist_er::{catalog, EligibleAssociations, ErGraph};
use colorist_mct::MctSchema;
use colorist_query::{compile, verify_plan, Pattern};
use colorist_workload::oracle::{compile_seed, OracleConfig};
use colorist_workload::{derby, tpcw, xmark};
use std::process::ExitCode;

/// The linter's own flags: `--seed` picks one oracle seed instead of the
/// catalog; `--scale`/`--queries` shape that seed as in `colorist oracle`.
#[derive(Debug, Default)]
pub struct Args {
    seed: Option<u64>,
    cfg: OracleConfig,
}

impl Args {
    pub fn flag(&mut self, flag: &str, args: &mut Argv) -> Result<(), String> {
        match flag {
            "--seed" => self.seed = Some(args.num(flag)?),
            "--queries" => self.cfg.queries = args.num::<usize>(flag)?.max(1),
            "--scale" => self.cfg.scale = args.num::<u32>(flag)?.max(2),
            _ => return Err(unknown(flag)),
        }
        Ok(())
    }
}

/// Print one schema's lint (`S0xx`) and property cross-validation
/// diagnostics under `tag`; returns how many.
fn lint_schema(tag: &str, g: &ErGraph, schema: &MctSchema, elig: &EligibleAssociations) -> usize {
    let lint = colorist_mct::lint_schema(g, schema).into_iter().map(|d| d.to_string());
    let props = properties::cross_validate(schema, g, elig).into_iter().map(|d| d.to_string());
    lint.chain(props).inspect(|d| println!("{tag} {d}")).count()
}

/// Lint one (graph, strategy) pair and verify the given read queries'
/// plans against it. Returns the number of diagnostics printed.
fn lint_one(label: &str, g: &ErGraph, strategy: Strategy, reads: &[Pattern]) -> usize {
    let tag = format!("{label} [{strategy}]");
    let schema = match design(g, strategy) {
        Ok(s) => s,
        Err(e) => {
            println!("{tag} design failed: {e}");
            return 1;
        }
    };
    let mut n = lint_schema(&tag, g, &schema, &EligibleAssociations::enumerate_default(g));
    for q in reads {
        match compile(g, &schema, q) {
            Ok(plan) => {
                for d in verify_plan(g, &schema, &plan) {
                    println!("{tag} {}: {d}", q.name);
                    n += 1;
                }
            }
            Err(e) => {
                println!("{tag} {}: compile failed: {e}", q.name);
                n += 1;
            }
        }
    }
    n
}

/// Read queries exercised on a catalog diagram: the XMark-emulated
/// templates instantiate on any graph; TPC-W and Derby additionally get
/// their native workloads.
fn catalog_reads(name: &str, g: &ErGraph) -> Vec<Pattern> {
    let mut reads = xmark::workload(g).reads;
    match name {
        "tpcw" => reads.extend(tpcw::workload(g).reads),
        "derby" => reads.extend(derby::workload(g).reads),
        _ => {}
    }
    reads
}

fn run_catalog() -> usize {
    let mut diags = 0;
    let mut schemas = 0;
    let mut plans = 0;
    for name in catalog::COLLECTION {
        let diagram = catalog::by_name(name).expect("collection name");
        let g = ErGraph::from_diagram(&diagram).expect("catalog diagrams build");
        let reads = catalog_reads(name, &g);
        for s in Strategy::ALL {
            diags += lint_one(name, &g, s, &reads);
            schemas += 1;
            plans += reads.len();
        }
    }
    println!("linted {schemas} schemas / verified up to {plans} plans: {diags} diagnostic(s)");
    diags
}

fn run_seed_mode(seed: u64, cfg: &OracleConfig) -> usize {
    let corpus = compile_seed(seed, cfg);
    let label = format!("seed {seed}");
    let mut diags = 0;
    let elig = EligibleAssociations::enumerate_default(&corpus.graph);
    for (s, schema) in &corpus.schemas {
        diags += lint_schema(&format!("{label} [{s}]"), &corpus.graph, schema, &elig);
    }
    for (si, qname, plan) in &corpus.plans {
        let (s, schema) = &corpus.schemas[*si];
        for d in verify_plan(&corpus.graph, schema, plan) {
            println!("{label} [{s}] {qname}: {d}");
            diags += 1;
        }
    }
    println!(
        "seed {seed}: linted {} schemas / verified {} plans: {diags} diagnostic(s)",
        corpus.schemas.len(),
        corpus.plans.len()
    );
    diags
}

pub fn run(args: &Args) -> ExitCode {
    let diags = match args.seed {
        Some(s) => run_seed_mode(s, &args.cfg),
        None => run_catalog(),
    };
    ExitCode::from(u8::from(diags > 0))
}
