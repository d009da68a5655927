//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro all [--quick] [--jobs N] [--shard i/m] [--metrics-threshold N] [--out <dir>] [--json]
//! repro <experiment> [<experiment> ...] [--quick] [--jobs N] [--shard i/m] [--metrics-threshold N] [--out <dir>] [--json]
//! repro scenario <name>|all [--quick] [--jobs N] [--metrics-threshold N] [--out <dir>] [--json]
//! repro bench [--quick] [--iters N] [--only <workload>]... [--threads N[,N...]] [--out <dir>]
//! repro --trace <path> [--engine guess|gossip] [--quick]
//! repro --list
//! ```
//!
//! Experiments: `table3`, `fig3` … `fig21`, `response`, plus the
//! extension studies `selfish`, `adaptive`, `defense`, `fragmentation`,
//! `payments`, `forwarding`, and `gossip`.
//! With `--out <dir>`, each report is additionally written to
//! `<dir>/<name>.txt`; adding `--json` also writes `<dir>/<name>.json`
//! (structured blocks, see [`guess_bench::report::Report::render_json`]).
//!
//! `--jobs N` bounds how many simulations run at once — across
//! experiments and across the sweep points inside each one. Every sweep
//! point carries its own RNG seed, so the reports are byte-identical at
//! any `--jobs` level; only wall-clock time changes.
//!
//! `repro bench --threads N[,N...]` takes a comma-separated list and
//! emits one `<workload>@t<N>` row per `N > 1` for the workloads with a
//! lane decomposition (the queries-off `guess-1m`): the thread-scaling
//! curve. Lane-mode output is a pure function of `(seed, lanes)`, so
//! `N` changes wall-clock only. Experiments and scenarios run serial.
//!
//! `--shard i/m` keeps only every `m`-th selected experiment starting
//! at index `i` — the grid split into `m` independently runnable work
//! units (separate machines, separate invocations). Seed-addressed
//! determinism makes the merge trivial: the union of the shards'
//! `--out` files is byte-identical to the unsharded run's output.
//!
//! `--trace <path>` runs one base-configuration simulation with the
//! structured trace layer on, streaming every record to `<path>` as
//! JSON Lines (schema in EXPERIMENTS.md), then reconciles the trace
//! totals against the run's own report before exiting. `--engine`
//! selects which simulator is traced: `guess` (default) or `gossip`.

use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

use guess_bench::experiments::{self, Experiment};
use guess_bench::report::Report;
use guess_bench::runner::Ctx;
use guess_bench::scale::Scale;
use simkit::sim::Runnable;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    if args.iter().any(|a| a == "--list") {
        println!("experiments (repro <name>):");
        for e in experiments::all() {
            println!("  {:<14} {}", e.name, e.description);
        }
        println!("\nscenarios (repro scenario <name>):");
        for s in guess_bench::scenarios::all() {
            println!("  {:<14} [{}] {}", s.name, s.engine, s.description);
        }
        println!("\nbench workloads (repro bench --only <name>):");
        for w in guess_bench::bench::workload_names(false) {
            println!("  {w}");
        }
        println!(
            "\nbench --threads N[,N...] repeats guess-1m as {} independent queries-off\n\
             lanes in <workload>@t<N> rows; every other workload keeps its serial row only",
            guess_bench::bench::BENCH_LANES
        );
        return;
    }
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    if args.first().map(String::as_str) == Some("bench") {
        run_bench(&args[1..]);
        return;
    }
    if args.iter().any(|a| a == "--threads") {
        eprintln!("--threads applies to repro bench only");
        std::process::exit(2);
    }
    if args.first().map(String::as_str) == Some("scenario") {
        run_scenarios(&args[1..], scale);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--trace needs a file path");
            std::process::exit(2);
        };
        let engine = match args.iter().position(|a| a == "--engine") {
            Some(j) => match args.get(j + 1).map(String::as_str) {
                Some(name @ ("guess" | "gossip")) => name,
                Some(other) => {
                    eprintln!("unknown --engine '{other}' (expected guess or gossip)");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--engine needs a value (guess or gossip)");
                    std::process::exit(2);
                }
            },
            None => "guess",
        };
        match engine {
            "gossip" => run_traced_gossip(Path::new(path), scale),
            _ => run_traced(Path::new(path), scale),
        }
        return;
    }
    let json = args.iter().any(|a| a == "--json");
    let out_dir: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if json && out_dir.is_none() {
        eprintln!("--json needs --out <dir> to know where to write the files");
        std::process::exit(2);
    }
    let jobs: usize = match args.iter().position(|a| a == "--jobs") {
        Some(i) => match args.get(i + 1).map(|v| v.parse()) {
            Some(Ok(n)) => n,
            _ => {
                eprintln!("--jobs needs a positive integer");
                std::process::exit(2);
            }
        },
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    let metrics_threshold = match parse_metrics_threshold(&args) {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let shard: Option<(usize, usize)> = match args.iter().position(|a| a == "--shard") {
        Some(i) => match args.get(i + 1).map(|v| parse_shard(v)) {
            Some(Some(spec)) => Some(spec),
            _ => {
                eprintln!("--shard needs i/m with 0 <= i < m (e.g. --shard 0/4)");
                std::process::exit(2);
            }
        },
        None => None,
    };
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create output directory {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    // Strip flag values so `--out DIR`'s DIR is not taken for a name.
    let mut names: Vec<&String> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--out"
            || a == "--jobs"
            || a == "--trace"
            || a == "--engine"
            || a == "--shard"
            || a == "--metrics-threshold"
        {
            skip_next = true;
        } else if !a.starts_with("--") {
            names.push(a);
        }
    }

    let selected: Vec<experiments::Experiment> = if names.iter().any(|n| n.as_str() == "all") {
        experiments::all()
    } else {
        let mut picked = Vec::new();
        for name in &names {
            match experiments::find(name) {
                Some(e) => picked.push(e),
                None => {
                    eprintln!("unknown experiment '{name}' (try --list)");
                    std::process::exit(2);
                }
            }
        }
        if picked.is_empty() {
            print_usage();
            std::process::exit(2);
        }
        picked
    };
    // Shard by position in the selection: experiment `k` belongs to
    // shard `k % m`. Every experiment seeds its own RNG streams, so each
    // work unit is addressed by its own seeds and renders the same
    // report inside any shard — the union of per-shard `--out` files is
    // byte-identical to the unsharded run's.
    let selected: Vec<experiments::Experiment> = match shard {
        Some((i, m)) => selected
            .into_iter()
            .enumerate()
            .filter(|(k, _)| k % m == i)
            .map(|(_, e)| e)
            .collect(),
        None => selected,
    };
    if let Some((i, m)) = shard {
        println!(
            "shard {i}/{m}: {} experiment(s) [{}]",
            selected.len(),
            selected
                .iter()
                .map(|e| e.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        if selected.is_empty() {
            return;
        }
    }

    let ctx = Ctx::new(scale, jobs).with_metrics_threshold(metrics_threshold);
    let overall = Instant::now();
    if ctx.jobs() == 1 {
        // Serial: run and print each experiment in turn, as the original
        // driver did, so per-experiment timings stay meaningful.
        for e in &selected {
            let started = Instant::now();
            let report = (e.run)(&ctx);
            emit(
                e,
                &report,
                started.elapsed().as_secs_f64(),
                out_dir.as_deref(),
                json,
                scale,
            );
        }
    } else {
        // Parallel: one thread per experiment; each simulation inside
        // acquires a permit from the shared `--jobs` budget. Results are
        // printed in selection order as they become ready.
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            for (i, e) in selected.iter().enumerate() {
                let tx = tx.clone();
                let ctx = &ctx;
                s.spawn(move || {
                    let started = Instant::now();
                    let report = (e.run)(ctx);
                    // The receiver outlives the scope; send cannot fail.
                    tx.send((i, report, started.elapsed().as_secs_f64()))
                        .expect("main receiver");
                });
            }
            drop(tx);
            let mut ready: Vec<Option<(Report, f64)>> = selected.iter().map(|_| None).collect();
            let mut next = 0;
            for (i, report, secs) in rx {
                ready[i] = Some((report, secs));
                while next < ready.len() {
                    let Some((report, secs)) = ready[next].take() else {
                        break;
                    };
                    emit(
                        &selected[next],
                        &report,
                        secs,
                        out_dir.as_deref(),
                        json,
                        scale,
                    );
                    next += 1;
                }
            }
        });
    }
    println!(
        "ran {} experiment(s) at {:?} scale in {:.1}s",
        selected.len(),
        scale,
        overall.elapsed().as_secs_f64()
    );
}

/// `repro bench [--quick] [--iters N] [--only WORKLOAD]... [--out DIR]`
/// — the wall-clock benchmark harness. Runs fixed-seed engine
/// workloads, prints min/median wall time and events/sec, and appends
/// the next `BENCH_<n>.json` to the perf trajectory in DIR. The default
/// DIR is the repo root — the canonical home of the trajectory, where
/// the committed baselines already live — so an unqualified
/// `repro bench` continues the sequence they start (the `BENCH_*.json`
/// gitignore pattern keeps ad-hoc runs untracked; baselines are
/// force-added). `--only` is repeatable and restricts the run to the
/// named workloads, so a single engine can be gated on its own.
fn run_bench(args: &[String]) {
    let mut only: Vec<String> = Vec::new();
    let mut threads: Vec<usize> = vec![1];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => i += 1,
            flag @ ("--iters" | "--out" | "--only" | "--threads") => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                };
                if flag == "--only" {
                    only.push(value.clone());
                }
                if flag == "--threads" {
                    match parse_threads_list(value) {
                        Some(list) => threads = list,
                        None => {
                            eprintln!(
                                "--threads needs a comma-separated list of positive \
                                 integers (e.g. --threads 1,2,4,8)"
                            );
                            std::process::exit(2);
                        }
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("unknown bench argument: {other}");
                eprintln!(
                    "usage: repro bench [--quick] [--iters N] [--only WORKLOAD]... \
                     [--threads N[,N...]] [--out DIR]"
                );
                std::process::exit(2);
            }
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    let iters: usize = match args.iter().position(|a| a == "--iters") {
        Some(i) => match args.get(i + 1).map(|v| v.parse()) {
            Some(Ok(n)) if n > 0 => n,
            _ => {
                eprintln!("--iters needs a positive integer");
                std::process::exit(2);
            }
        },
        None => 5,
    };
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| std::path::PathBuf::from("."), std::path::PathBuf::from);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create output directory {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let matrix = if quick {
        "quick workloads"
    } else {
        "quick+full workloads"
    };
    if only.is_empty() {
        println!("bench: {matrix}, {iters} iteration(s) each");
    } else {
        println!(
            "bench: {matrix} filtered to [{}], {iters} iteration(s) each",
            only.join(", ")
        );
    }
    let started = Instant::now();
    let results = match guess_bench::bench::run_workloads(quick, iters, &only, &threads) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let report = guess_bench::bench::build_report(&results);
    print!("\n{}", report.render_text());
    let n = guess_bench::bench::next_bench_index(&out_dir);
    let path = out_dir.join(format!("BENCH_{n}.json"));
    let doc = report.render_json(
        "bench",
        "fixed-seed engine workloads: min/median wall time and events/sec",
        if quick { "Quick" } else { "Full" },
    );
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "\nwrote {} ({} workloads in {:.1}s)",
        path.display(),
        results.len(),
        started.elapsed().as_secs_f64()
    );
}

/// `repro scenario <name>... [--quick] [--jobs N] [--out DIR] [--json]`
/// — runs named scenarios from the catalog (see `--list`), each one a
/// baseline-vs-intervened pair over the same seed.
fn run_scenarios(args: &[String], scale: Scale) {
    use guess_bench::scenarios;

    let json = args.iter().any(|a| a == "--json");
    let out_dir: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if json && out_dir.is_none() {
        eprintln!("--json needs --out <dir> to know where to write the files");
        std::process::exit(2);
    }
    let jobs: usize = match args.iter().position(|a| a == "--jobs") {
        Some(i) => match args.get(i + 1).map(|v| v.parse()) {
            Some(Ok(n)) => n,
            _ => {
                eprintln!("--jobs needs a positive integer");
                std::process::exit(2);
            }
        },
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create output directory {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let metrics_threshold = match parse_metrics_threshold(args) {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let mut names: Vec<&String> = Vec::new();
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--out" || a == "--jobs" || a == "--metrics-threshold" {
            skip_next = true;
        } else if !a.starts_with("--") {
            names.push(a);
        }
    }
    let selected: Vec<scenarios::ScenarioExperiment> = if names.iter().any(|n| n.as_str() == "all")
    {
        scenarios::all()
    } else {
        let mut picked = Vec::new();
        for name in &names {
            match scenarios::find(name) {
                Some(s) => picked.push(s),
                None => {
                    eprintln!("unknown scenario '{name}' (try --list)");
                    std::process::exit(2);
                }
            }
        }
        if picked.is_empty() {
            eprintln!("usage: repro scenario <name>|all [--quick] [--jobs N] [--out DIR] [--json]");
            std::process::exit(2);
        }
        picked
    };
    let ctx = Ctx::new(scale, jobs).with_metrics_threshold(metrics_threshold);
    let overall = Instant::now();
    for s in &selected {
        let started = Instant::now();
        let report = (s.run)(&ctx);
        emit_named(
            s.name,
            s.description,
            &report,
            started.elapsed().as_secs_f64(),
            out_dir.as_deref(),
            json,
            scale,
        );
    }
    println!(
        "ran {} scenario(s) at {:?} scale in {:.1}s",
        selected.len(),
        scale,
        overall.elapsed().as_secs_f64()
    );
}

/// Prints one finished experiment in the standard frame and writes its
/// `--out` artifacts.
fn emit(
    e: &Experiment,
    report: &Report,
    secs: f64,
    out_dir: Option<&Path>,
    json: bool,
    scale: Scale,
) {
    emit_named(e.name, e.description, report, secs, out_dir, json, scale);
}

/// The shared emit frame behind experiments and scenarios.
fn emit_named(
    name: &str,
    description: &str,
    report: &Report,
    secs: f64,
    out_dir: Option<&Path>,
    json: bool,
    scale: Scale,
) {
    println!("==============================================================");
    println!("== {name} — {description}");
    println!("==============================================================");
    let text = report.render_text();
    println!("{text}");
    println!("[{name} completed in {secs:.1}s]\n");
    if let Some(dir) = out_dir {
        let path = dir.join(format!("{name}.txt"));
        if let Err(err) = std::fs::write(&path, &text) {
            eprintln!("failed to write {}: {err}", path.display());
        }
        if json {
            let path = dir.join(format!("{name}.json"));
            let doc = report.render_json(name, description, &format!("{scale:?}"));
            if let Err(err) = std::fs::write(&path, doc) {
                eprintln!("failed to write {}: {err}", path.display());
            }
        }
    }
}

/// Runs one base-configuration GUESS simulation with tracing on, writes
/// the JSONL stream to `path`, and reconciles the trace totals against
/// the run's report. Exits non-zero on I/O failure or mismatch.
fn run_traced(path: &Path, scale: Scale) {
    use guess::engine::GuessSim;
    use guess_bench::scale::base_config;
    use guess_bench::tracefile::JsonlSink;

    let mut cfg = base_config(scale, 0x7ACE);
    // Zero warm-up: the report then covers every query in the trace, so
    // the reconciliation below must match exactly.
    cfg.run.warmup = simkit::time::SimDuration::from_secs(0.0);
    let sim = match GuessSim::new(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid trace config: {e}");
            std::process::exit(1);
        }
    };
    let file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let started = Instant::now();
    let sink = JsonlSink::new(std::io::BufWriter::new(file));
    let (report, sink) = sim.run_traced(sink);
    let (_, counts, io_error) = sink.finish();
    if let Some(e) = io_error {
        eprintln!("trace write to {} failed: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "traced GUESS run ({scale:?} scale) -> {} in {:.1}s",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    println!("  records: {}", counts.total());

    // Reconcile the trace against the run's own aggregates. The report's
    // probe total comes back through a Welford running mean, so round —
    // `sum()` is `mean * count`, exact only up to f64 rounding.
    let probes_in_report = report.total_probes.sum().round() as u64;
    let unsatisfied_in_trace = counts.query_ends - counts.satisfied;
    let checks = [
        (
            "queries == query_end records",
            report.queries,
            counts.query_ends,
        ),
        (
            "queries == query_start records",
            report.queries,
            counts.query_starts,
        ),
        (
            "unsatisfied queries",
            report.unsatisfied,
            unsatisfied_in_trace,
        ),
        (
            "total probes == probe records",
            probes_in_report,
            counts.query_probes,
        ),
        (
            "total probes == query_end sums",
            probes_in_report,
            counts.query_end_probes,
        ),
        (
            "births == join records",
            report.counters.get("births"),
            counts.joins,
        ),
        (
            "deaths == death records",
            report.counters.get("deaths"),
            counts.deaths,
        ),
        (
            "pings == ping probe records",
            report.counters.get("pings_sent"),
            counts.ping_probes,
        ),
    ];
    let mut ok = true;
    for (what, in_report, in_trace) in checks {
        let mark = if in_report == in_trace { "ok " } else { "FAIL" };
        println!("  [{mark}] {what}: report={in_report} trace={in_trace}");
        ok &= in_report == in_trace;
    }
    if !ok {
        eprintln!("trace does not reconcile with the run report");
        std::process::exit(1);
    }
}

/// Runs one traced gossip simulation, writes the JSONL stream to
/// `path`, and reconciles the trace totals against the run's report.
/// Exits non-zero on I/O failure or mismatch.
fn run_traced_gossip(path: &Path, scale: Scale) {
    use gossip::GossipSim;
    use guess_bench::experiments::gossip_tradeoff;
    use guess_bench::tracefile::JsonlSink;

    // Zero warm-up (set inside `traced_config`): the report then covers
    // every query in the trace, so the reconciliation below must match
    // exactly.
    let cfg = gossip_tradeoff::traced_config(scale, 0x7ACE);
    let sim = match GossipSim::new(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid trace config: {e}");
            std::process::exit(1);
        }
    };
    let file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let started = Instant::now();
    let sink = JsonlSink::new(std::io::BufWriter::new(file));
    let (report, sink) = sim.run_traced(sink);
    let (_, counts, io_error) = sink.finish();
    if let Some(e) = io_error {
        eprintln!("trace write to {} failed: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "traced gossip run ({scale:?} scale) -> {} in {:.1}s",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    println!("  records: {}", counts.total());

    // The report's message total comes back through a Welford running
    // mean, so round — `sum()` is `mean * count`, exact only up to f64
    // rounding.
    let messages_in_report = report.messages.sum().round() as u64;
    let unsatisfied_in_trace = counts.query_ends - counts.satisfied;
    let checks = [
        (
            "queries == query_end records",
            report.queries,
            counts.query_ends,
        ),
        (
            "queries == query_start records",
            report.queries,
            counts.query_starts,
        ),
        (
            "unsatisfied queries",
            report.unsatisfied,
            unsatisfied_in_trace,
        ),
        (
            "total messages == push+pull probe records",
            messages_in_report,
            counts.push_probes + counts.pull_probes,
        ),
        (
            "total messages == query_end sums",
            messages_in_report,
            counts.query_end_probes,
        ),
        (
            "births == join records",
            report.counters.get("births"),
            counts.joins,
        ),
        (
            "deaths == death records",
            report.counters.get("deaths"),
            counts.deaths,
        ),
    ];
    let mut ok = true;
    for (what, in_report, in_trace) in checks {
        let mark = if in_report == in_trace { "ok " } else { "FAIL" };
        println!("  [{mark}] {what}: report={in_report} trace={in_trace}");
        ok &= in_report == in_trace;
    }
    if !ok {
        eprintln!("trace does not reconcile with the run report");
        std::process::exit(1);
    }
}

/// Parses `--metrics-threshold N` if present. The value overrides
/// `metrics_sample_threshold` in the configs of experiments that honor
/// it (see [`Ctx::metrics_threshold`]): populations above `N` sample
/// their periodic metric sweeps instead of walking every slot.
fn parse_metrics_threshold(args: &[String]) -> Result<Option<usize>, String> {
    match args.iter().position(|a| a == "--metrics-threshold") {
        Some(i) => match args.get(i + 1).map(|v| v.parse()) {
            Some(Ok(n)) => Ok(Some(n)),
            _ => Err("--metrics-threshold needs a non-negative integer".to_string()),
        },
        None => Ok(None),
    }
}

/// Parses the bench form of `--threads`: a comma-separated list of
/// positive thread counts, e.g. `1,2,4,8`.
fn parse_threads_list(spec: &str) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let n: usize = part.trim().parse().ok()?;
        if n == 0 {
            return None;
        }
        out.push(n);
    }
    (!out.is_empty()).then_some(out)
}

/// Parses a `--shard` spec of the form `i/m` with `0 <= i < m`.
fn parse_shard(spec: &str) -> Option<(usize, usize)> {
    let (i, m) = spec.split_once('/')?;
    let (i, m) = (i.parse().ok()?, m.parse().ok()?);
    (m >= 1 && i < m).then_some((i, m))
}

fn print_usage() {
    println!(
        "repro — regenerate every table and figure of the ICDCS'04 GUESS paper\n\n\
         usage:\n  repro all [--quick] [--jobs N] [--shard i/m] [--out <dir>] [--json]\n  \
         repro <experiment>... [--quick] [--jobs N] [--shard i/m] [--out <dir>] [--json]\n  \
         repro scenario <name>|all [--quick] [--jobs N] [--out <dir>] [--json]\n  \
         repro bench [--quick] [--iters N] [--only <workload>]... [--threads N[,N...]] [--out <dir>]\n  \
         repro --trace <path> [--engine guess|gossip] [--quick]\n  repro --list\n\n\
         --quick   shrunk grids/durations (shape check, ~1-2 min)\n\
         --jobs N  at most N simulations in flight (default: all cores);\n          \
         reports are byte-identical at any N\n\
         --threads N[,N...]  bench only: adds one <workload>@t<N> row per\n          \
         N > 1 for workloads with independent lanes (guess-1m)\n\
         --shard i/m  run every m-th selected experiment starting at i;\n          \
         per-shard outputs merge byte-identically to the unsharded run\n\
         --metrics-threshold N  populations above N stride-sample their\n          \
         periodic metric sweeps instead of walking every slot\n\
         --out DIR also write each report to DIR/<name>.txt\n\
         --json    with --out, also write structured DIR/<name>.json\n\
         --trace F run one traced simulation, write JSONL to F,\n          \
         and reconcile the trace against the run report\n\
         --engine  which simulator --trace runs: guess (default) or gossip\n\
         default   full paper grids (several minutes)"
    );
}
