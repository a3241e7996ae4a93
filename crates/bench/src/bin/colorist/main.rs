//! `colorist` — every table and figure of the paper's evaluation, and the
//! tools around them, as subcommands of one binary over one run
//! configuration. `colorist --help` lists them.

mod cli;
mod explain;
mod gate;
mod lint;
mod oracle;
mod report;
mod scale;

use cli::Command;
use colorist_bench::RunConfig;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (run, command) = match cli::parse(&argv) {
        Ok(parsed) => parsed,
        Err(_) if matches!(argv.first().map(String::as_str), Some("--help" | "-h")) => {
            println!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("colorist: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    colorist_trace::traced(run.trace.as_deref(), || execute(&command, &run)).unwrap_or_else(|e| {
        eprintln!("colorist: trace write failed: {e}");
        ExitCode::FAILURE
    })
}

fn execute(command: &Command, run: &RunConfig) -> ExitCode {
    match command {
        Command::Table1 => report::table1(run),
        Command::Fig(n @ 8..=11) => report::tpcw_fig(*n, run),
        Command::Fig(n) => report::collection_fig(*n, run),
        Command::Collection => report::collection(),
        Command::Explain(args) => explain::run(args, run),
        Command::Scale(args) => scale::run(args, run),
        Command::Oracle(args) => return oracle::run(args, run),
        Command::Lint(args) => return lint::run(args),
        Command::Gate(args) => return gate::run(args),
    }
    ExitCode::SUCCESS
}
