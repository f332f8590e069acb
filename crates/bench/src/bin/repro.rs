//! Regenerates every table and figure from the paper's evaluation section,
//! and exports Perfetto traces of simulated queries.
//!
//! Run `repro --help` for the full target list.

use mlscore_backend::{OnnxCpu, ScoringBackend, SklearnCpu};
use mlscore_core::{figures, headline::HeadlineReport, report, shmoo::ShmooTable};
use mlscore_data::DatasetSpec;
use mlscore_forest::{ModelBundle, ModelStats};
use mlscore_fpga::FpgaBackend;
use mlscore_gpu::{HummingbirdGpu, RapidsFil};
use mlscore_pipeline::QueryPipeline;
use mlscore_sched::{
    evaluate_policy, paper_backends, AffineFitPolicy, HeuristicPolicy, OraclePolicy, Policy,
    QueryTrace, TraceOutcome,
};
use mlscore_sim::SimInstant;
use mlscore_telemetry::{perfetto, MetricsRegistry, Tracer};

fn fig1() {
    println!("== Fig. 1: best-performing hardware by model complexity x data size ==");
    for dataset in DatasetSpec::all() {
        let table = ShmooTable::paper_grid(dataset);
        println!();
        for (i, &n) in table.record_counts.iter().enumerate() {
            let row: Vec<String> = table.cells[i]
                .iter()
                .map(|c| format!("{:>4}", c.family()))
                .collect();
            println!("{} {:>9}: {}", dataset.name(), n, row.join(" "));
        }
    }
    println!();
}

fn fig7(records: u64, label: &str) {
    println!("== Fig. {label}: FPGA scoring-time breakdown ({records} record(s)) ==");
    let panel = if records == 1 {
        figures::fig7a()
    } else {
        figures::fig7b()
    };
    println!("{}", report::render_fig7(&panel));
}

fn fig8() {
    println!("== Fig. 8: best backend + speedup over CPU (depth 10) ==");
    for dataset in DatasetSpec::all() {
        println!("{}", report::render_shmoo(&ShmooTable::paper_grid(dataset)));
    }
}

fn fig9() {
    println!("== Fig. 9: scoring latency ==");
    for panel in figures::fig9_all() {
        println!("{}", report::render_latency(&panel));
    }
}

fn fig10() {
    println!("== Fig. 10: scoring throughput ==");
    for panel in figures::fig9_all() {
        println!("{}", report::render_throughput(&panel));
    }
}

fn fig11() {
    println!("== Fig. 11: end-to-end T-SQL query breakdown ==");
    for (dataset, trees, records) in [
        (DatasetSpec::Iris, 1, 1u64),
        (DatasetSpec::Iris, 128, 1_000_000),
        (DatasetSpec::Higgs, 128, 1_000_000),
    ] {
        println!(
            "{} — {} trees, 10 levels, {} records",
            dataset.name(),
            trees,
            records
        );
        println!(
            "{}",
            report::render_fig11(&figures::fig11(dataset, trees, 10, records))
        );
    }
}

fn headlines() {
    println!("== §IV headline ratios ==");
    println!("{}", HeadlineReport::compute());
    println!();
}

/// Serial fixed-policy replay: each trace query is charged the modelled
/// time of the backend the policy picks. (`repro serve` layers queueing,
/// coalescing, and device contention on top of this simple loop.)
fn replay_policy(
    policy: &dyn Policy,
    trace: &QueryTrace,
    backends: &[Box<dyn ScoringBackend>],
) -> TraceOutcome {
    let mut total = mlscore_sim::SimDuration::ZERO;
    let mut latencies = Vec::with_capacity(trace.len());
    let mut picks: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for q in trace.queries() {
        let choice = policy
            .choose(&q.stats, q.n_records, backends)
            .expect("every trace query has a supporting backend");
        let latency = backends[choice.index]
            .estimate(&q.stats, q.n_records)
            .total();
        total += latency;
        latencies.push(latency);
        *picks.entry(choice.name).or_default() += 1;
    }
    TraceOutcome {
        policy: policy.name().to_string(),
        total,
        latencies,
        picks,
    }
}

fn scheduler() {
    println!("== Scheduler policy regret (extension A4) ==");
    let backends = paper_backends();
    let mut grid = Vec::new();
    for dataset in DatasetSpec::all() {
        for &trees in &mlscore_core::calibration::TREE_SWEEP {
            let stats = ModelStats::of(&mlscore_core::calibration::paper_model(dataset, trees, 10));
            for &n in &mlscore_core::calibration::RECORD_SWEEP {
                grid.push((stats, n));
            }
        }
    }
    for report in [
        evaluate_policy(&OraclePolicy, &grid, &backends),
        evaluate_policy(&HeuristicPolicy::default(), &grid, &backends),
        evaluate_policy(&AffineFitPolicy::default(), &grid, &backends),
    ] {
        println!(
            "  {:<16} points {:>3}  mispicks {:>3}  agreement {:>5.1}%  worst {:>6.2}x  mean {:>5.2}x",
            report.policy,
            report.points,
            report.mispicks,
            report.agreement() * 100.0,
            report.worst_factor,
            report.mean_factor
        );
    }
    println!();

    // Per-policy latency distributions from a synthetic mixed trace, folded
    // through the shared telemetry histograms (p50/p95/p99 come from the
    // same log-bucketed type every layer records into).
    println!("== Trace replay: latency percentiles (200-query synthetic mix) ==");
    let trace = QueryTrace::synthetic(200, 42);
    let registry = MetricsRegistry::new();
    for outcome in [
        replay_policy(&OraclePolicy, &trace, &backends),
        replay_policy(&HeuristicPolicy::default(), &trace, &backends),
        replay_policy(&AffineFitPolicy::default(), &trace, &backends),
    ] {
        let name = format!("latency.{}", outcome.policy);
        for &latency in &outcome.latencies {
            registry.record(&name, latency);
        }
        for (backend, n) in &outcome.picks {
            registry.inc_counter(&format!("picks.{}.{backend}", outcome.policy), *n as u64);
        }
    }
    print!("{}", registry.render());
    println!();
}

/// Builds the backend a `repro trace` argument names.
fn backend_by_name(name: &str) -> Option<Box<dyn ScoringBackend>> {
    Some(match name {
        "cpu" | "onnx" => Box::new(OnnxCpu::paper_52th()),
        "onnx1" => Box::new(OnnxCpu::single_thread()),
        "sklearn" => Box::new(SklearnCpu::paper_default()),
        "gpu" | "gpu-hb" | "hummingbird" => Box::new(HummingbirdGpu::p100()),
        "gpu-rapids" | "rapids" | "fil" => Box::new(RapidsFil::p100()),
        "fpga" => Box::new(FpgaBackend::paper_default()),
        _ => return None,
    })
}

/// Parses a record count with optional `k`/`m` suffix (`"250k"`, `"1m"`).
fn parse_count(text: &str) -> Option<u64> {
    let lower = text.to_ascii_lowercase();
    let (digits, mult) = match lower.strip_suffix(['k', 'm']) {
        Some(d) if lower.ends_with('k') => (d, 1_000),
        Some(d) => (d, 1_000_000),
        None => (lower.as_str(), 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// One subcommand's command line: the switches and valued flags it
/// accepts, and the usage line printed on any malformed input.
struct Cli {
    usage: &'static str,
    switches: &'static [&'static str],
    /// `(flag, value count, what the values are)`.
    valued: &'static [(&'static str, usize, &'static str)],
    /// Whether bare words (anything not starting with `--`) are accepted.
    positional: bool,
}

/// A parsed command line: the flags in the order given, then bare words.
struct Args {
    cli: &'static Cli,
    flags: Vec<(&'static str, Vec<String>)>,
    positional: Vec<String>,
}

impl Cli {
    /// Parses `args`; a missing value or an unknown flag exits 2.
    fn parse(&'static self, args: &[String]) -> Args {
        let mut parsed = Args {
            cli: self,
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(&flag) = self.switches.iter().find(|&&f| f == arg) {
                parsed.flags.push((flag, Vec::new()));
            } else if let Some(&(flag, n, _)) = self.valued.iter().find(|v| v.0 == arg) {
                let values: Vec<String> = it.by_ref().take(n).cloned().collect();
                if values.len() < n {
                    self.fail_value(flag);
                }
                parsed.flags.push((flag, values));
            } else if self.positional && !arg.starts_with("--") {
                parsed.positional.push(arg.clone());
            } else {
                self.fail(&format!("unknown flag '{arg}'"));
            }
        }
        parsed
    }

    /// Prints `msg` and the usage line, then exits 2.
    fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}");
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }

    /// Fails with what the valued `flag` needs.
    fn fail_value(&self, flag: &str) -> ! {
        let what = self.valued.iter().find(|v| v.0 == flag).map_or("", |v| v.2);
        self.fail(&format!("{flag} needs {what}"))
    }
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The values of the last `flag` given.
    fn values(&self, flag: &str) -> Option<&[String]> {
        let last = self.flags.iter().rev().find(|(f, _)| *f == flag);
        last.map(|(_, v)| v.as_slice())
    }

    /// The (first) value of the last `flag` given.
    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag)?.first().map(String::as_str)
    }

    /// The value of the last `flag` given, parsed; a value that does not
    /// parse or that `ok` rejects exits 2.
    fn parsed<T: std::str::FromStr>(&self, flag: &str, ok: impl Fn(&T) -> bool) -> Option<T> {
        let value = self.value(flag)?.parse().ok().filter(|v| ok(v));
        Some(value.unwrap_or_else(|| self.cli.fail_value(flag)))
    }
}

/// Reads `path`, or reports why not and exits 1.
fn read_or_exit(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    })
}

/// Writes `text` to `path`, or reports why not and exits 1.
fn write_or_exit(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
}

/// Reports the outcome of validating the `kind` document at `path`
/// (`n` `unit`s on success); an invalid document exits 1.
fn check_or_exit(path: &str, kind: &str, unit: &str, validated: Result<usize, String>) {
    match validated {
        Ok(n) => println!("{path}: valid {kind}, {n} {unit}"),
        Err(e) => {
            eprintln!("{path}: invalid {kind}: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro trace [--out FILE] [--warm|--cold] [--fused] [dataset] [trees] [records] [backend]`
fn trace(argv: &[String]) {
    static CLI: Cli = Cli {
        usage: "usage: repro trace [--out FILE] [--warm|--cold] [--fused] [iris|higgs] [trees] [records] [backend]
       backends: cpu sklearn onnx1 gpu gpu-rapids fpga",
        switches: &["--warm", "--cold", "--fused"],
        valued: &[("--out", 1, "a file path")],
        positional: true,
    };
    let args = CLI.parse(argv);
    // The later of --warm/--cold wins; cold is the default.
    let warm = args
        .flags
        .iter()
        .rev()
        .find(|(f, _)| *f == "--warm" || *f == "--cold")
        .is_some_and(|(f, _)| *f == "--warm");
    let fused = args.has("--fused");
    let pos = |i: usize, default: &'static str| args.positional.get(i).map_or(default, |s| s);
    let dataset = match pos(0, "higgs") {
        "higgs" => DatasetSpec::Higgs,
        "iris" => DatasetSpec::Iris,
        other => CLI.fail(&format!("unknown dataset '{other}'")),
    };
    let trees: usize = match pos(1, "128").parse() {
        Ok(t) if t >= 1 => t,
        _ => CLI.fail(&format!("bad tree count '{}' (need >= 1)", pos(1, ""))),
    };
    let records = match parse_count(pos(2, "1m")) {
        Some(n) => n,
        None => CLI.fail(&format!("bad record count '{}'", pos(2, ""))),
    };
    let backend_name = pos(3, "fpga");
    let backend = match backend_by_name(backend_name) {
        Some(b) => b,
        None => CLI.fail(&format!("unknown backend '{backend_name}'")),
    };

    let forest = mlscore_core::calibration::paper_model(dataset, trees, 10);
    let stats = ModelStats::of(&forest);
    if let Err(e) = backend.supports(&stats) {
        CLI.fail(&format!("backend rejects this model: {e}"));
    }
    let bundle = ModelBundle::serialize(&forest);
    let pipeline = QueryPipeline::new(backend);
    let tracer = Tracer::new();
    // Warm queries replay the artifact-cache hit path: no bundle marshal,
    // model pre-processing collapsed to a cache probe, no compile spans.
    // Fused queries replay the in-process streaming path: no Python launch,
    // no marshal, no separate pre-processing — the Fig. 11 breakdown
    // collapses to model prep + per-chunk handoff + scoring + post.
    let breakdown = match (fused, warm) {
        (true, true) => pipeline.estimate_fused_warm_traced(
            &stats,
            bundle.len() as u64,
            records,
            mlscore_data::DEFAULT_CHUNK_ROWS,
            &tracer,
            SimInstant::ZERO,
        ),
        (true, false) => pipeline.estimate_fused_traced(
            &stats,
            bundle.len() as u64,
            records,
            mlscore_data::DEFAULT_CHUNK_ROWS,
            &tracer,
            SimInstant::ZERO,
        ),
        (false, true) => pipeline.estimate_warm_traced(
            &stats,
            bundle.len() as u64,
            records,
            &tracer,
            SimInstant::ZERO,
        ),
        (false, false) => pipeline.estimate_traced(
            &stats,
            bundle.len() as u64,
            records,
            &tracer,
            SimInstant::ZERO,
        ),
    };
    let span_trace = tracer.take();
    let json = perfetto::to_json(&span_trace);
    match args.value("--out") {
        Some(path) => {
            write_or_exit(path, &json);
            println!(
                "wrote {path}: {} spans, {} bytes (open at ui.perfetto.dev)",
                span_trace.len(),
                json.len()
            );
            println!(
                "{} x{} trees, {} records on {} ({}{}): total {}",
                dataset.name(),
                trees,
                records,
                pipeline.backend().name(),
                if warm { "warm" } else { "cold" },
                if fused { ", fused" } else { "" },
                breakdown.total()
            );
            for (stage, d) in breakdown.iter() {
                println!("  {stage:<20} {d}");
            }
        }
        None => println!("{json}"),
    }
}

/// `repro bench [--quick] [--out FILE] [--check FILE]
///              [--diff OLD NEW [--tolerance T]]`
///
/// Runs the measured CPU scoring sweep ([`mlscore_bench::cpu_bench`]) and
/// writes `BENCH_cpu_scoring.json`. With
/// `--check` it validates an existing report file (the CI smoke gate),
/// and with `--diff` it compares two report files cell by cell and exits
/// non-zero when any throughput number regressed beyond the relative
/// tolerance.
fn bench(argv: &[String]) {
    use mlscore_bench::cpu_bench::{self, BenchOptions, CaseResult};
    use mlscore_bench::diff;

    static CLI: Cli = Cli {
        usage: "usage: repro bench [--quick] [--out FILE] [--check FILE] \
                [--diff OLD NEW [--tolerance T]]",
        switches: &["--quick"],
        valued: &[
            ("--out", 1, "a file path"),
            ("--check", 1, "a file path"),
            ("--diff", 2, "two file paths (old new)"),
            ("--tolerance", 1, "a fraction in [0, 1)"),
        ],
        positional: false,
    };
    let args = CLI.parse(argv);
    let tolerance = args
        .parsed("--tolerance", |t: &f64| (0.0..1.0).contains(t))
        .unwrap_or(diff::DEFAULT_TOLERANCE);

    if let Some([old_path, new_path]) = args.values("--diff") {
        let (old_text, new_text) = (read_or_exit(old_path), read_or_exit(new_path));
        match diff::diff(&old_text, &new_text, tolerance) {
            Ok(regressions) if regressions.is_empty() => {
                println!(
                    "{new_path}: no regressions vs {old_path} \
                     (tolerance {:.0}%)",
                    tolerance * 100.0
                );
            }
            Ok(regressions) => {
                eprintln!(
                    "{new_path}: {} regression(s) vs {old_path}:",
                    regressions.len()
                );
                for line in &regressions {
                    eprintln!("  {line}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("cannot diff: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.has("--tolerance") {
        CLI.fail("--tolerance applies only to --diff");
    }

    if let Some(path) = args.value("--check") {
        let validated = cpu_bench::validate(&read_or_exit(path));
        check_or_exit(path, "benchmark report", "case(s)", validated);
        return;
    }

    let quick = args.has("--quick");
    let out_path = args.value("--out").unwrap_or("BENCH_cpu_scoring.json");
    let opts = BenchOptions { quick };
    println!(
        "== Measured CPU scoring sweep ({} mode) ==",
        if quick { "quick" } else { "full" }
    );
    let cases = cpu_bench::run(&opts);
    let cache = cpu_bench::run_cache_pair(&opts);
    println!(
        "cache {:>5} x{:<3} trees, {:>6} records | cold {:.3}s warm {:.3}s ({:.3}x) | \
         compile {:.2}ms | {} hit(s) {} miss(es)",
        "higgs",
        cache.trees,
        cache.records,
        cache.cold_total_secs,
        cache.warm_total_secs,
        cache.warm_speedup(),
        cache.compile_ms,
        cache.hits,
        cache.misses
    );
    println!("== Fused vs. staged marshaling-tax shmoo ==");
    let fused = cpu_bench::run_fused(&opts);
    write_or_exit(out_path, &cpu_bench::to_json(&cases, &cache, &fused, &opts));
    let worst = cases
        .iter()
        .map(CaseResult::best_speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "wrote {out_path}: {} cases, worst best-thread speedup {worst:.2}x vs the naive seed path",
        cases.len()
    );
}

/// `repro serve [--quick] [--out FILE] [--check FILE] [--trace-out FILE]`
///
/// Runs the serving-engine load sweep ([`mlscore_bench::serve_bench`]) and
/// writes `BENCH_serving.json`; with `--check` it validates an existing
/// report instead, and `--trace-out` additionally exports a Perfetto
/// timeline of the FPGA overload run (per-device lanes with queue-wait,
/// coalesce, compile, setup/transfer/compute/drain spans).
fn serve(argv: &[String]) {
    use mlscore_bench::serve_bench::{self, ServeBenchOptions};
    use mlscore_serve::{
        ArrivalProcess, CoalesceConfig, ModelCatalog, QueueConfig, ServeConfig, ServeEngine,
        WorkloadSpec,
    };

    static CLI: Cli = Cli {
        usage: "usage: repro serve [--quick] [--out FILE] [--check FILE] [--trace-out FILE]",
        switches: &["--quick"],
        valued: &[
            ("--out", 1, "a file path"),
            ("--check", 1, "a file path"),
            ("--trace-out", 1, "a file path"),
        ],
        positional: false,
    };
    let args = CLI.parse(argv);

    if let Some(path) = args.value("--check") {
        let validated = serve_bench::validate(&read_or_exit(path));
        check_or_exit(path, "serving report", "sweep point(s)", validated);
        return;
    }

    let quick = args.has("--quick");
    let out_path = args.value("--out").unwrap_or("BENCH_serving.json");
    println!(
        "== Serving-engine load sweep ({} mode) ==",
        if quick { "quick" } else { "full" }
    );
    let opts = ServeBenchOptions { quick };
    let report = serve_bench::run(&opts);
    write_or_exit(out_path, &serve_bench::to_json(&report, &opts, None));
    println!(
        "wrote {out_path}: {} sweep point(s) + FPGA overload comparison",
        report.sweep.len()
    );

    if let Some(path) = args.value("--trace-out") {
        // A traced rerun of the FPGA overload point: the interesting
        // timeline (queue build-up, merged passes, shed requests).
        let engine = ServeEngine::new(
            paper_backends()
                .into_iter()
                .filter(|b| b.name() == "FPGA")
                .collect(),
            ModelCatalog::paper_mix(),
            ServeConfig {
                queue: QueueConfig {
                    capacity: Some(32),
                    ..QueueConfig::default()
                },
                coalesce: CoalesceConfig::default(),
                cpu_seats: serve_bench::CPU_SEATS,
                gpu_streams: serve_bench::GPU_STREAMS,
                ..ServeConfig::default()
            },
        );
        let tracer = Tracer::new();
        engine
            .run(
                &WorkloadSpec {
                    queries: if quick { 150 } else { 500 },
                    seed: serve_bench::SEED,
                    arrivals: ArrivalProcess::OpenPoisson { rate_qps: 2_000.0 },
                },
                &tracer,
            )
            .expect("the overload trace workload is a fixed valid spec");
        let span_trace = tracer.take();
        write_or_exit(path, &perfetto::to_json(&span_trace));
        println!(
            "wrote {path}: {} spans (open at ui.perfetto.dev)",
            span_trace.len()
        );
    }
}

/// `repro fleet [--quick] [--out FILE] [--check FILE] [--trace-out FILE]`
///
/// Runs the single-server load sweep *and* the multi-node fleet shmoo
/// ([`mlscore_bench::fleet_bench`]): every router policy × traffic
/// scenario on a fixed fleet, plus the diurnal autoscaling pair. Writes
/// the combined schema-v3 `BENCH_serving.json` (the v2 document with a
/// `"fleet"` block appended). With `--check` it validates an existing
/// report and requires the fleet block; `--trace-out` exports a Perfetto
/// timeline of a small fleet run with a node failure injected — one lane
/// set per node (`serve@node0`, `serve@node1`) and cross-node flow
/// arrows for every re-routed request.
fn fleet(argv: &[String]) {
    use mlscore_bench::fleet_bench::{self, FleetBenchOptions};
    use mlscore_bench::serve_bench::{self, ServeBenchOptions};
    use mlscore_fleet::{
        run_fleet, Fault, FleetConfig, RouterKind, ScalePolicy, ScenarioKind, ScenarioSpec,
    };
    use mlscore_sim::SimDuration;

    static CLI: Cli = Cli {
        usage: "usage: repro fleet [--quick] [--out FILE] [--check FILE] [--trace-out FILE]",
        switches: &["--quick"],
        valued: &[
            ("--out", 1, "a file path"),
            ("--check", 1, "a file path"),
            ("--trace-out", 1, "a file path"),
        ],
        positional: false,
    };
    let args = CLI.parse(argv);

    if let Some(path) = args.value("--check") {
        let text = read_or_exit(path);
        let has_fleet = mlscore_telemetry::json::parse(&text)
            .ok()
            .is_some_and(|doc| doc.get("fleet").is_some());
        if !has_fleet {
            eprintln!("{path}: no \"fleet\" block — not a schema-v3 fleet report");
            std::process::exit(1);
        }
        let validated = serve_bench::validate(&text);
        check_or_exit(path, "fleet serving report", "sweep point(s)", validated);
        return;
    }

    let quick = args.has("--quick");
    let out_path = args.value("--out").unwrap_or("BENCH_serving.json");
    println!(
        "== Serving-engine load sweep ({} mode) ==",
        if quick { "quick" } else { "full" }
    );
    let serve_opts = ServeBenchOptions { quick };
    let serve_report = serve_bench::run(&serve_opts);
    println!("== Fleet shmoo: router policy x traffic scenario ==");
    let fleet_report = fleet_bench::run(&FleetBenchOptions { quick });
    write_or_exit(
        out_path,
        &serve_bench::to_json(&serve_report, &serve_opts, Some(&fleet_report)),
    );
    println!(
        "wrote {out_path}: {} sweep point(s) + {} fleet cell(s)",
        serve_report.sweep.len(),
        fleet_report.cells.len()
    );

    if let Some(path) = args.value("--trace-out") {
        // A traced rerun of a small fleet under a node failure: per-node
        // lanes plus the cross-node re-route flow arrows.
        let tracer = Tracer::new();
        let mut scenario = ScenarioSpec::new(
            ScenarioKind::Steady { rate_qps: 6_000.0 },
            SimDuration::from_secs(1.0),
            serve_bench::SEED,
        );
        scenario.faults.push(Fault {
            at_window: 5,
            node: 1,
        });
        let config = FleetConfig {
            initial_nodes: 2,
            router: RouterKind::RoundRobin,
            scale: ScalePolicy::Static,
            seed: serve_bench::SEED,
        };
        let fleet = run_fleet(&config, &scenario, &fleet_bench::node_engine, &tracer)
            .expect("the fleet trace scenario keeps node 0 alive");
        let span_trace = tracer.take();
        write_or_exit(path, &perfetto::to_json(&span_trace));
        println!(
            "wrote {path}: {} spans, {} re-route(s) (open at ui.perfetto.dev)",
            span_trace.len(),
            fleet.rerouted
        );
    }
}

/// `repro report [--quick] [--out FILE] [--top N]`
///
/// Runs the observed FPGA overload workload ([`mlscore_bench::run_report`])
/// and prints the human-readable run report; `--out` additionally writes
/// the JSON document (`mlscore/run-report/v1`), which is byte-identical
/// across reruns — CI regenerates it twice and compares.
fn report(argv: &[String]) {
    use mlscore_bench::run_report::{self, RunReportOptions};

    static CLI: Cli = Cli {
        usage: "usage: repro report [--quick] [--out FILE] [--top N]",
        switches: &["--quick"],
        valued: &[
            ("--out", 1, "a file path"),
            ("--top", 1, "a positive integer"),
        ],
        positional: false,
    };
    let args = CLI.parse(argv);
    let mut opts = RunReportOptions {
        quick: args.has("--quick"),
        ..RunReportOptions::default()
    };
    if let Some(n) = args.parsed("--top", |&n: &usize| n > 0) {
        opts.top_n = n;
    }

    println!(
        "== Serving run report ({} mode) ==",
        if opts.quick { "quick" } else { "full" }
    );
    let report = run_report::run(&opts);
    print!("{}", run_report::to_text(&report, &opts));
    if let Some(path) = args.value("--out") {
        write_or_exit(path, &run_report::to_json(&report, &opts));
        println!(
            "\nwrote {path}: {} window(s), {} alert(s), top-{} slowest",
            report.series.len(),
            report.alerts.len(),
            opts.top_n
        );
    }
}

/// `repro ablation [name]`: one study table of [`mlscore_bench::ablation`],
/// or all of them.
fn ablation(argv: &[String]) {
    use mlscore_bench::ablation::STUDIES;

    static CLI: Cli = Cli {
        usage: "usage: repro ablation [pcie|fpga-mem|gpu|split-depth|gpu-cache|integration]",
        switches: &[],
        valued: &[],
        positional: true,
    };
    let args = CLI.parse(argv);
    match args.positional.as_slice() {
        [] => STUDIES.iter().for_each(|(_, study)| study()),
        [name] => match STUDIES.iter().find(|(n, _)| n == name) {
            Some((_, study)) => study(),
            None => CLI.fail(&format!("unknown ablation '{name}'")),
        },
        _ => CLI.fail("name at most one ablation"),
    }
}

fn usage() -> String {
    "\
usage: repro [target]
targets:
  all              every figure, table, and the scheduler study (default)
  fig1             best backend by model complexity x data size
  fig7a            FPGA scoring-time breakdown, 1 record
  fig7b            FPGA scoring-time breakdown, 1M records
  fig8             best backend + speedup over CPU (depth 10)
  fig9             scoring latency curves
  fig10            scoring throughput curves
  fig11            end-to-end T-SQL query breakdown
  headlines        headline ratios from the paper's section IV
  scheduler        policy regret + latency percentiles (telemetry histograms)
  trace [--out FILE] [--warm|--cold] [--fused] [iris|higgs] [trees] [records] [backend]
                   export a Perfetto trace of one simulated query
                   (defaults: higgs 128 1m fpga, cold; records accept k/m
                    suffixes; backends: cpu sklearn onnx1 gpu gpu-rapids fpga;
                    --warm replays an artifact-cache hit: no bundle marshal,
                    model pre-processing collapsed to a cache probe;
                    --fused replays the pull-based RecordStream path: no
                    inbound marshal or data pre-processing stages, only
                    per-chunk handoff, with per-chunk detail spans)
  bench [--quick] [--out FILE] [--check FILE] [--diff OLD NEW [--tolerance T]]
                   measure real CPU kernel throughput (naive seed path vs
                   the pointer-tree kernel and the SIMD flat-layout walker,
                   at thread counts the host has cores for) plus a
                   warm/cold artifact-cache pair and the fused-vs-staged
                   shmoo, and write BENCH_cpu_scoring.json; --check validates an
                   existing report instead; --diff compares two reports
                   cell by cell and exits non-zero on any throughput
                   regression beyond the relative tolerance (default 25%)
  serve [--quick] [--out FILE] [--check FILE] [--trace-out FILE]
                   sweep offered load through the discrete-event serving
                   engine (admission control, micro-batch coalescing,
                   device contention) with coalescing on vs off, plus an
                   FPGA-only overload comparison, and write
                   BENCH_serving.json; --check validates an existing
                   report; --trace-out exports a Perfetto timeline of
                   the FPGA overload run (per-device lanes, request
                   flow arrows from queue wait to device pass)
  fleet [--quick] [--out FILE] [--check FILE] [--trace-out FILE]
                   run the load sweep plus the multi-node fleet shmoo
                   (router policy x traffic scenario, diurnal
                   autoscaling pair) and write the schema-v3
                   BENCH_serving.json with the \"fleet\" block;
                   --check validates an existing report and requires
                   the fleet block; --trace-out exports a Perfetto
                   timeline of a 2-node fleet with a node failure
                   (per-node lanes, cross-node re-route flow arrows)
  report [--quick] [--out FILE] [--top N]
                   run the observed FPGA overload workload and render
                   the serving run report: windowed metrics, per-class
                   SLO attainment, budget-burn alerts, and the top-N
                   slowest requests with journal stage breakdowns;
                   --out writes the deterministic JSON document
  ablation [pcie|fpga-mem|gpu|split-depth|gpu-cache|integration]
                   print one extension study's table (EXPERIMENTS.md
                   A1-A3, A5-A7, A10), or all six in that order
  analyze [--json] [--check-baseline] [--write-baseline]
                   run the workspace determinism & hot-path lints
                   (mlscore-analyze; see DESIGN.md section 10)
  csv [dir]        write every figure as CSV (default dir: figures_out)
  help             this message"
        .to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let what = args.get(1).map(String::as_str).unwrap_or("all");
    match what {
        "fig1" => fig1(),
        "fig7a" => fig7(1, "7a"),
        "fig7b" => fig7(1_000_000, "7b"),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "headlines" => headlines(),
        "scheduler" => scheduler(),
        "trace" => trace(&args[2..]),
        "bench" => bench(&args[2..]),
        "serve" => serve(&args[2..]),
        "fleet" => fleet(&args[2..]),
        "report" => report(&args[2..]),
        "ablation" => ablation(&args[2..]),
        "analyze" => std::process::exit(mlscore_analysis::cli::run(&args[2..])),
        "csv" => {
            let dir = args
                .get(2)
                .cloned()
                .unwrap_or_else(|| "figures_out".to_string());
            let written = mlscore_core::export::save_all(std::path::Path::new(&dir))
                .expect("writing figure CSVs");
            println!("wrote {} CSV files to {dir}/", written.len());
        }
        "all" => {
            fig1();
            fig7(1, "7a");
            fig7(1_000_000, "7b");
            fig8();
            fig9();
            fig10();
            fig11();
            headlines();
            scheduler();
        }
        "help" | "--help" | "-h" => println!("{}", usage()),
        other => {
            eprintln!("unknown target '{other}'");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}
