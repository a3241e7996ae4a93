//! Table 1: TPC-W data statistics and query processing time for the seven
//! schemas (DEEP, AF, SHALLOW, EN, MCMR, DR, UNDR).
//!
//! `--trace out.json` additionally records a hierarchical span trace of the
//! whole run (design, materialization, every query on every worker) and
//! writes it in chrome-trace format — open it in `chrome://tracing` or
//! Perfetto.
//!
//! `--backend paged|paged-mem|mem` selects the storage backend (shorthand
//! for `COLORIST_BACKEND`), and `--pool-bytes N` sets the buffer-pool byte
//! budget (`COLORIST_POOL_BYTES`); see DESIGN.md §14.

fn main() {
    let trace_path = {
        let mut args = std::env::args().skip(1);
        let mut path = None;
        let usage = "usage: table1 [--trace out.json] [--backend mem|paged|paged-mem] \
                     [--pool-bytes N]";
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trace" => match args.next() {
                    Some(p) => path = Some(p),
                    None => {
                        eprintln!("--trace requires an output path");
                        std::process::exit(2);
                    }
                },
                "--backend" => match args.next() {
                    Some(b) => std::env::set_var("COLORIST_BACKEND", b),
                    None => {
                        eprintln!("--backend requires a value; {usage}");
                        std::process::exit(2);
                    }
                },
                "--pool-bytes" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                    Some(n) => std::env::set_var("COLORIST_POOL_BYTES", n.to_string()),
                    None => {
                        eprintln!("--pool-bytes requires an integer; {usage}");
                        std::process::exit(2);
                    }
                },
                other => {
                    eprintln!("unknown argument `{other}`; {usage}");
                    std::process::exit(2);
                }
            }
        }
        path
    };
    let (_g, w, results, serial_wall) =
        colorist_trace::traced(trace_path.as_deref(), colorist_bench::tpcw_suite_with_baseline)
            .unwrap_or_else(|e| {
                eprintln!("trace write failed: {e}");
                std::process::exit(1);
            });

    println!(
        "Table 1 — TPC-W data statistics and query processing time (scale: {} customers, seed {})",
        colorist_bench::scale(),
        colorist_bench::seed()
    );
    let backend = colorist_bench::backend();
    if backend != "mem" {
        println!("storage backend: {backend} (buffer pool {} bytes)", colorist_bench::pool_bytes());
    }
    println!();
    let row = |label: &str, f: &dyn Fn(&colorist_workload::SuiteResult) -> String| {
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
            let run = r.run(name).expect("ran");
            let dup = run.physical.saturating_sub(run.logical);
            let cell = if dup > 0 {
                format!("{}({})", run.metrics.elapsed.as_micros(), run.physical)
            } else {
                format!("{}", run.metrics.elapsed.as_micros())
            };
            print!("{:>16}", cell);
        }
        println!();
    }

    let threads = colorist_workload::suite_threads();
    let suite_wall = results[0].suite_wall;
    println!();
    print!("suite wall: {:.1} ms on {threads} worker(s)", suite_wall.as_secs_f64() * 1e3);
    if let Some(serial) = serial_wall {
        print!(
            "; serial baseline: {:.1} ms ({:.2}x speedup)",
            serial.as_secs_f64() * 1e3,
            serial.as_secs_f64() / suite_wall.as_secs_f64()
        );
    }
    println!();

    let meta = colorist_bench::SummaryMeta {
        bench: "table1",
        scale: colorist_bench::scale(),
        seed: colorist_bench::seed(),
        threads,
        backend: &colorist_bench::backend(),
        pool_bytes: colorist_bench::pool_bytes(),
        serial_wall,
    };
    match colorist_bench::write_bench_summary(&meta, &results) {
        Ok(path) => println!("summary: {}", path.display()),
        Err(e) => eprintln!("summary write failed: {e}"),
    }
}
