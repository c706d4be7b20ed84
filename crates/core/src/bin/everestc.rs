//! `everestc` — a command-line front door to the EVEREST SDK.
//!
//! Every subcommand is an entry in the [`COMMANDS`] registry: a name, an
//! argument synopsis, a one-line summary, its flag documentation, and a
//! run function. The help text, the usage error, and dispatch are all
//! generated from that one table, so adding a subcommand is adding a row
//! — there is no parallel `match` to keep in sync.
//!
//! ```text
//! everestc ir <kernels.edsl>              print the unified IR
//! everestc variants <kernels.edsl>        print the variant table per kernel
//! everestc rtl <kernels.edsl> <kernel>    print the synthesized RTL
//! everestc workflow <pipeline.ewf>        validate + print a workflow
//! everestc check [--format <f>] <path>..  run the static lints
//! everestc fuse [--explain] <wf.ewf> ..   prove which dataset edges can stream
//! everestc profile <kernels.edsl>         per-phase timing summary table
//! everestc dataset [--seed <n>] [--points <n>] [--out <csv>]
//!                                         mass-produce an HLS data table
//! everestc route [--queries <n>] ...      serve a PTDR routing workload
//! everestc offload [--fault-profile <p>]  run a fault-injected offload batch
//! everestc serve [--shards <n>] ...       drive the sharded PTDR serving tier
//! everestc stats [--format <f>] <snap>..  merge + render metrics snapshots
//! ```
//!
//! The global `--trace <out.json>` flag records every compiler phase and
//! writes a Chrome trace-event file loadable in `chrome://tracing` or
//! Perfetto. The global `--jobs <n>` flag sets the DSE worker count:
//! `--jobs 1` runs the sequential reference evaluator, `--jobs 2` and up
//! the pooled, memoized engine — outputs are identical either way.
//!
//! Observability: the global `--metrics <path>` flag writes the final
//! metrics snapshot of any subcommand — OpenMetrics text when the path
//! ends in `.prom`/`.txt`/`.om`, JSON otherwise — and `--flight <path>`
//! dumps the flight recorder's recent-event rings. `everestc stats`
//! reloads, merges, and re-renders JSON snapshots offline.

use everest::Sdk;
use everest_telemetry::export::{chrome_trace_json, flame_summary, spans_to_events};
use everest_telemetry::openmetrics::{openmetrics_text, render_table};
use everest_telemetry::{MetricsSnapshot, Tracer};
use std::process::ExitCode;

/// Global context handed to every subcommand's run function.
struct Ctx {
    /// DSE / service worker count (`--jobs`).
    jobs: usize,
}

type RunFn = fn(&Ctx, Vec<String>) -> Result<u8, Box<dyn std::error::Error>>;

/// One documented flag: the name, its value placeholder, and help text.
struct FlagDoc {
    name: &'static str,
    value: &'static str,
    help: &'static str,
}

/// One subcommand: everything the driver needs to dispatch and document
/// it. `records` opts the command into span recording even without
/// `--trace` (and into the post-run flame summary).
struct CommandSpec {
    name: &'static str,
    synopsis: &'static str,
    summary: &'static str,
    flags: &'static [FlagDoc],
    records: bool,
    run: RunFn,
}

/// Flags accepted in any position, before or after the subcommand.
const GLOBAL_FLAGS: &[FlagDoc] = &[
    FlagDoc {
        name: "--trace",
        value: "<out.json>",
        help: "write a Chrome trace-event JSON file covering the compiler \
               phases run by the subcommand",
    },
    FlagDoc {
        name: "--metrics",
        value: "<path>",
        help: "write the final metrics snapshot of any subcommand: OpenMetrics \
               text when <path> ends in .prom/.txt/.om, JSON otherwise \
               (reloadable by `everestc stats`)",
    },
    FlagDoc {
        name: "--flight",
        value: "<path>",
        help: "write the flight recorder's recent-event rings as JSON (the \
               always-on post-hoc trace)",
    },
    FlagDoc {
        name: "--jobs",
        value: "<n>",
        help: "worker count for design-space exploration and the PTDR routing \
               service (default: the host's available parallelism, at least \
               2); 1 runs the sequential reference evaluator, 2+ the pooled, \
               cached engine — results are identical either way",
    },
];

/// The subcommand registry. Dispatch, `everestc help` and the usage error
/// are all generated from this table.
const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "ir",
        synopsis: "<kernels.edsl>",
        summary: "compile tensor-DSL kernels and print the unified IR",
        flags: &[],
        records: false,
        run: cmd_ir,
    },
    CommandSpec {
        name: "variants",
        synopsis: "<kernels.edsl>",
        summary: "explore the design space and print the variant table per kernel",
        flags: &[],
        records: false,
        run: cmd_variants,
    },
    CommandSpec {
        name: "rtl",
        synopsis: "<kernels.edsl> <kernel>",
        summary: "synthesize one kernel and print its RTL",
        flags: &[],
        records: false,
        run: cmd_rtl,
    },
    CommandSpec {
        name: "workflow",
        synopsis: "<pipeline.ewf>",
        summary: "validate a workflow spec and print its IR and task graph",
        flags: &[],
        records: false,
        run: cmd_workflow,
    },
    CommandSpec {
        name: "check",
        synopsis: "[--format text|json] <file.edsl|file.eir|file.ewf>...",
        summary: "run the static lints (liveness, range, taint/IFC, workflow races)",
        flags: &[FlagDoc {
            name: "--format",
            value: "<f>",
            help: "diagnostic output format: text (default) or json; exit code \
                   is 1 when any error-severity diagnostic is reported, 0 when \
                   clean",
        }],
        records: false,
        run: cmd_check,
    },
    CommandSpec {
        name: "fuse",
        synopsis: "[--explain] [--format text|json] <pipeline.ewf> [kernels.edsl...]",
        summary: "classify every workflow dataset edge as fusable / must-spill / racy",
        flags: &[
            FlagDoc {
                name: "--explain",
                value: "",
                help: "print the proof behind every verdict: the ordering path, \
                       the footprint bound vs the BRAM stream budget, or the \
                       race counterexample",
            },
            FlagDoc {
                name: "--format",
                value: "<f>",
                help: "plan output format: text (default) or json (the \
                       machine-checkable FusionPlan, stable under --jobs); \
                       diagnostics go to stderr in json mode; exit code is 1 \
                       when any edge is racy or a kernel is unresolved",
            },
        ],
        records: false,
        run: cmd_fuse,
    },
    CommandSpec {
        name: "profile",
        synopsis: "<kernels.edsl>",
        summary: "compile with the recording tracer and print a per-phase summary",
        flags: &[],
        records: true,
        run: cmd_profile,
    },
    CommandSpec {
        name: "dataset",
        synopsis: "[--seed <n>] [--points <n>] [--kernels <file.edsl>] [--out <csv>]",
        summary: "mass-produce a seed-reproducible table of synthesized design points",
        flags: &[
            FlagDoc {
                name: "--seed",
                value: "<n>",
                help: "knob-sampling seed; the same seed yields a byte-identical \
                       table at any --jobs count (dataset: default 7)",
            },
            FlagDoc {
                name: "--points",
                value: "<n>",
                help: "number of (kernel, knob-vector) rows to produce \
                       (default 256)",
            },
            FlagDoc {
                name: "--kernels",
                value: "<file.edsl>",
                help: "tensor-DSL source providing the kernels to sample \
                       (default: an embedded four-kernel corpus)",
            },
            FlagDoc {
                name: "--out",
                value: "<csv>",
                help: "write the table to this file instead of stdout",
            },
        ],
        records: false,
        run: cmd_dataset,
    },
    CommandSpec {
        name: "route",
        synopsis: "[--queries <n>] [--samples <n>]",
        summary: "serve a synthetic PTDR routing workload cold and warm",
        flags: &[
            FlagDoc {
                name: "--queries",
                value: "<n>",
                help: "routing requests in the synthetic workload (route: \
                       default 256; serve: cap on generated arrivals per load \
                       point, default 50000)",
            },
            FlagDoc {
                name: "--samples",
                value: "<n>",
                help: "Monte-Carlo samples per routing request (default 1000)",
            },
        ],
        records: false,
        run: cmd_route,
    },
    CommandSpec {
        name: "offload",
        synopsis: "[--seed <n>] [--fault-profile <name>] [--calls <n>]",
        summary: "run a fault-injected offload batch through the recovery layer",
        flags: &[
            FlagDoc {
                name: "--seed",
                value: "<n>",
                help: "workload/fault-plan seed; the same seed yields a \
                       bit-identical trace at any --jobs count (offload and \
                       serve: default 7)",
            },
            FlagDoc {
                name: "--fault-profile",
                value: "<p>",
                help: "fault scenario: none, lossy, flaky or meltdown \
                       (default lossy)",
            },
            FlagDoc {
                name: "--calls",
                value: "<n>",
                help: "kernel invocations in the offload batch (default 32)",
            },
        ],
        records: false,
        run: cmd_offload,
    },
    CommandSpec {
        name: "serve",
        synopsis: "[--shards <n>] [--duration <s>] [--queue-depth <n>] [--policy <p>] [--seed <n>] [--queries <n>]",
        summary: "drive the sharded PTDR serving tier through 0.5x/1x/2x offered load",
        flags: &[
            FlagDoc {
                name: "--shards",
                value: "<n>",
                help: "edge shard count on the consistent-hash ring (default 4)",
            },
            FlagDoc {
                name: "--duration",
                value: "<s>",
                help: "virtual seconds of open-loop load per offered-load point; \
                       one diurnal day is compressed into the window \
                       (default 0.2)",
            },
            FlagDoc {
                name: "--queue-depth",
                value: "<n>",
                help: "bounded admission queue per shard; arrivals beyond it are \
                       load-shed (default 64)",
            },
            FlagDoc {
                name: "--policy",
                value: "<p>",
                help: "shedding policy once a queue fills: reject-new or \
                       shed-oldest (default reject-new)",
            },
        ],
        records: false,
        run: cmd_serve,
    },
    CommandSpec {
        name: "stats",
        synopsis: "[--format table|openmetrics|json] <snapshot.json>...",
        summary: "merge metrics snapshots and render them offline",
        flags: &[FlagDoc {
            name: "--format",
            value: "<f>",
            help: "stats output format: table (default), openmetrics or json",
        }],
        records: false,
        run: cmd_stats,
    },
];

/// Renders the full help text from [`GLOBAL_FLAGS`] and [`COMMANDS`].
fn usage_text() -> String {
    let mut out = String::from(
        "usage:\n  everestc [--trace <out.json>] [--metrics <path>] [--flight <path>]\n           \
         [--jobs <n>] <command> [options] <args>\n  everestc help | --help | -h\n  everestc \
         --version | -V\n\ncommands:\n",
    );
    for cmd in COMMANDS {
        out.push_str(&format!("  {} {}\n      {}\n", cmd.name, cmd.synopsis, cmd.summary));
    }
    out.push_str("\nglobal options:\n");
    for flag in GLOBAL_FLAGS {
        out.push_str(&format!("  {} {}\n      {}\n", flag.name, flag.value, flag.help));
    }
    out.push_str("\ncommand options:\n");
    for cmd in COMMANDS.iter().filter(|c| !c.flags.is_empty()) {
        out.push_str(&format!("  {}:\n", cmd.name));
        for flag in cmd.flags {
            let head = format!("{} {}", flag.name, flag.value);
            out.push_str(&format!("    {:<22} {}\n", head.trim_end(), flag.help));
        }
    }
    out
}

fn usage() -> u8 {
    eprintln!("{}", usage_text());
    2
}

/// Extracts the global `--trace <path>` / `--trace=<path>` flag, which is
/// valid in any position.
fn extract_trace_flag(args: &mut Vec<String>) -> Result<Option<String>, String> {
    if let Some(at) = args.iter().position(|a| a == "--trace") {
        if at + 1 >= args.len() {
            return Err("--trace requires a file argument".to_owned());
        }
        let path = args.remove(at + 1);
        args.remove(at);
        return Ok(Some(path));
    }
    if let Some(at) = args.iter().position(|a| a.starts_with("--trace=")) {
        let path = args.remove(at)["--trace=".len()..].to_owned();
        if path.is_empty() {
            return Err("--trace requires a file argument".to_owned());
        }
        return Ok(Some(path));
    }
    Ok(None)
}

/// Extracts the global `--jobs <n>` / `--jobs=<n>` flag, valid in any
/// position. Defaults to the host's available parallelism (at least 2, so
/// the memoized engine is on by default).
fn extract_jobs_flag(args: &mut Vec<String>) -> Result<usize, String> {
    let raw = if let Some(at) = args.iter().position(|a| a == "--jobs") {
        if at + 1 >= args.len() {
            return Err("--jobs requires a worker count".to_owned());
        }
        let value = args.remove(at + 1);
        args.remove(at);
        Some(value)
    } else {
        args.iter()
            .position(|a| a.starts_with("--jobs="))
            .map(|at| args.remove(at)["--jobs=".len()..].to_owned())
    };
    match raw {
        Some(value) => match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("--jobs requires a positive worker count, got '{value}'")),
        },
        None => Ok(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2)),
    }
}

/// Extracts a `--flag <value>` / `--flag=<value>` string option, valid in
/// any position of the subcommand's argument list.
fn extract_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(at) = args.iter().position(|a| a == flag) {
        if at + 1 >= args.len() {
            return Err(format!("{flag} requires a value"));
        }
        let value = args.remove(at + 1);
        args.remove(at);
        return Ok(Some(value));
    }
    let prefix = format!("{flag}=");
    if let Some(at) = args.iter().position(|a| a.starts_with(&prefix)) {
        let value = args.remove(at)[prefix.len()..].to_owned();
        if value.is_empty() {
            return Err(format!("{flag} requires a value"));
        }
        return Ok(Some(value));
    }
    Ok(None)
}

/// Extracts a `--flag <n>` / `--flag=<n>` positive count, valid in any
/// position of the subcommand's argument list.
fn extract_count_flag(args: &mut Vec<String>, flag: &str, default: usize) -> Result<usize, String> {
    let raw = if let Some(at) = args.iter().position(|a| a == flag) {
        if at + 1 >= args.len() {
            return Err(format!("{flag} requires a count"));
        }
        let value = args.remove(at + 1);
        args.remove(at);
        Some(value)
    } else {
        let prefix = format!("{flag}=");
        args.iter()
            .position(|a| a.starts_with(&prefix))
            .map(|at| args.remove(at)[prefix.len()..].to_owned())
    };
    match raw {
        Some(value) => match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("{flag} requires a positive count, got '{value}'")),
        },
        None => Ok(default),
    }
}

/// Extracts a `--flag <n>` / `--flag=<n>` unsigned seed, valid in any
/// position of the subcommand's argument list.
fn extract_seed_flag(args: &mut Vec<String>, default: u64) -> Result<u64, String> {
    match extract_value_flag(args, "--seed")? {
        Some(raw) => raw
            .parse::<u64>()
            .map_err(|_| format!("--seed requires an unsigned integer, got '{raw}'")),
        None => Ok(default),
    }
}

/// Extracts a presence-only `--flag`, valid in any position.
fn extract_bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(at) => {
            args.remove(at);
            true
        }
        None => false,
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = match extract_trace_flag(&mut args) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics_path = match extract_value_flag(&mut args, "--metrics") {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let flight_path = match extract_value_flag(&mut args, "--flight") {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let jobs = match extract_jobs_flag(&mut args) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return ExitCode::from(usage()),
    };
    match cmd {
        "help" | "--help" | "-h" => {
            println!("{}", usage_text());
            return ExitCode::SUCCESS;
        }
        "--version" | "-V" => {
            println!("everestc {}", env!("CARGO_PKG_VERSION"));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let Some(spec) = COMMANDS.iter().find(|c| c.name == cmd) else {
        return ExitCode::from(usage());
    };

    // Recording subcommands always record; `--trace` opts any in.
    let recording = trace_path.is_some() || spec.records;
    if recording {
        everest_telemetry::install_global(Tracer::recording());
        everest_telemetry::metrics().reset();
    }
    if metrics_path.is_some() {
        // A clean registry, so the written snapshot covers exactly this
        // invocation.
        everest_telemetry::metrics().reset();
    }

    let ctx = Ctx { jobs };
    let result = (spec.run)(&ctx, rest.to_vec());

    let spans = everest_telemetry::take_global().finish();
    if let Some(path) = &trace_path {
        let json = chrome_trace_json(&spans_to_events(&spans));
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write trace '{path}': {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace: {} spans written to {path}", spans.len());
    }
    if let Some(path) = &metrics_path {
        let snapshot = everest_telemetry::metrics().snapshot();
        let openmetrics =
            path.ends_with(".prom") || path.ends_with(".txt") || path.ends_with(".om");
        let body = if openmetrics {
            openmetrics_text(&snapshot)
        } else {
            serde_json::to_string_pretty(&snapshot).expect("snapshot serializes")
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: cannot write metrics '{path}': {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "metrics: {} counters, {} gauges, {} histograms written to {path}",
            snapshot.counters.len(),
            snapshot.gauges.len(),
            snapshot.histograms.len()
        );
    }
    if let Some(path) = &flight_path {
        let dump = everest_telemetry::flight().dump("cli");
        if let Err(e) = std::fs::write(path, dump.to_json()) {
            eprintln!("error: cannot write flight dump '{path}': {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "flight: {} events from {} threads ({} overwritten) written to {path}",
            dump.events.len(),
            dump.threads,
            dump.dropped
        );
    }

    match result {
        Ok(code) => {
            if spec.records && code == 0 {
                print!("{}", flame_summary(&spans));
                print_counters();
            }
            ExitCode::from(code)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_counters() {
    let snapshot = everest_telemetry::metrics().snapshot();
    if snapshot.counters.is_empty() {
        return;
    }
    println!();
    println!("counters:");
    for counter in &snapshot.counters {
        println!("  {:<32} {}", counter.name, counter.value);
    }
}

fn read(path: &str) -> Result<String, Box<dyn std::error::Error>> {
    Ok(std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?)
}

fn cmd_ir(ctx: &Ctx, rest: Vec<String>) -> Result<u8, Box<dyn std::error::Error>> {
    let _ = ctx;
    let [path] = rest.as_slice() else {
        return Ok(usage());
    };
    let source = read(path)?;
    let module = everest::dsl::compile_kernels(&source)?;
    print!("{}", module.to_text());
    Ok(0)
}

fn cmd_variants(ctx: &Ctx, rest: Vec<String>) -> Result<u8, Box<dyn std::error::Error>> {
    let [path] = rest.as_slice() else {
        return Ok(usage());
    };
    let source = read(path)?;
    let compiled = Sdk::builder().jobs(ctx.jobs).build().compile(&source)?;
    for kernel in &compiled.kernels {
        println!("kernel {} — {} variants:", kernel.name, kernel.variants.len());
        for v in &kernel.variants {
            println!(
                "  {:<16} target={:<9} total={:>10.2} us  energy={:>9.4} mJ  luts={}",
                v.id,
                v.target().to_string(),
                v.metrics.total_us(),
                v.metrics.energy_mj,
                v.metrics.area_luts
            );
        }
        let front = kernel.pareto_front();
        let ids: Vec<&str> = front.iter().map(|v| v.id.as_str()).collect();
        println!("  pareto: {}", ids.join(", "));
    }
    Ok(0)
}

fn cmd_rtl(ctx: &Ctx, rest: Vec<String>) -> Result<u8, Box<dyn std::error::Error>> {
    let [path, kernel] = rest.as_slice() else {
        return Ok(usage());
    };
    let source = read(path)?;
    let sdk = Sdk::builder().jobs(ctx.jobs).build();
    let acc = sdk.synthesize_kernel(&source, kernel)?;
    eprintln!(
        "// {}: {} cycles @ {} MHz, II={}, pe={}, area: {}",
        acc.name, acc.latency_cycles, acc.clock_mhz, acc.innermost_ii, acc.pe, acc.area
    );
    print!("{}", acc.rtl);
    Ok(0)
}

fn cmd_workflow(ctx: &Ctx, rest: Vec<String>) -> Result<u8, Box<dyn std::error::Error>> {
    let _ = ctx;
    let [path] = rest.as_slice() else {
        return Ok(usage());
    };
    let source = read(path)?;
    let spec = everest::dsl::WorkflowSpec::parse(&source)?;
    println!("workflow {} — {} steps", spec.name, spec.steps.len());
    let module = spec.to_ir()?;
    print!("{}", module.to_text());
    let graph = everest::task_graph_from_workflow(&spec, |_| (1_000.0, 10_000));
    println!(
        "// task graph: {} tasks, critical path {:.1} ms (unit costs)",
        graph.len(),
        graph.critical_path_us() / 1e3
    );
    Ok(0)
}

fn cmd_check(ctx: &Ctx, mut rest: Vec<String>) -> Result<u8, Box<dyn std::error::Error>> {
    let format = extract_value_flag(&mut rest, "--format")?.unwrap_or_else(|| "text".into());
    if format != "text" && format != "json" {
        return Err(format!("--format must be 'text' or 'json', got '{format}'").into());
    }
    if rest.is_empty() {
        return Ok(usage());
    }
    let sdk = Sdk::builder().jobs(ctx.jobs).build();
    run_check(&sdk, &rest, &format)
}

fn cmd_fuse(ctx: &Ctx, mut rest: Vec<String>) -> Result<u8, Box<dyn std::error::Error>> {
    let explain = extract_bool_flag(&mut rest, "--explain");
    let format = extract_value_flag(&mut rest, "--format")?.unwrap_or_else(|| "text".into());
    if format != "text" && format != "json" {
        return Err(format!("--format must be 'text' or 'json', got '{format}'").into());
    }
    let workflows: Vec<String> = rest.iter().filter(|p| p.ends_with(".ewf")).cloned().collect();
    let kernels: Vec<String> = rest.iter().filter(|p| p.ends_with(".edsl")).cloned().collect();
    if workflows.is_empty() || workflows.len() + kernels.len() != rest.len() {
        return Ok(usage());
    }
    let sdk = Sdk::builder().jobs(ctx.jobs).build();
    run_fuse(&sdk, &workflows, &kernels, &format, explain)
}

/// The kernel search path for one workflow: the `.edsl` files named on the
/// command line, or — when none were given — every sibling `.edsl` of the
/// workflow file, in sorted order (deterministic regardless of readdir
/// order).
fn kernel_search_path(
    workflow: &str,
    explicit: &[String],
) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    if !explicit.is_empty() {
        return Ok(explicit.to_vec());
    }
    let dir = std::path::Path::new(workflow).parent().unwrap_or(std::path::Path::new("."));
    let mut found = Vec::new();
    for entry in
        std::fs::read_dir(dir).map_err(|e| format!("cannot read '{}': {e}", dir.display()))?
    {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "edsl") {
            found.push(path.to_string_lossy().into_owned());
        }
    }
    found.sort();
    Ok(found)
}

/// `everestc fuse`: runs the stream-fusion legality analysis over each
/// workflow — interprocedural footprint inference on the kernels, then the
/// dependence classifier against the platform's weakest-device BRAM stream
/// budget. Text mode prints the plan (with `--explain`, each verdict's
/// proof) followed by any diagnostics; json mode prints one machine-
/// checkable `FusionPlan` object per workflow on stdout and keeps
/// diagnostics on stderr, so the artifact stays parseable. Exits 1 when
/// any kernel is unresolved or any edge is racy.
fn run_fuse(
    sdk: &Sdk,
    workflows: &[String],
    kernels: &[String],
    format: &str,
    explain: bool,
) -> Result<u8, Box<dyn std::error::Error>> {
    let mut errors = 0;
    for wf_path in workflows {
        let wf_source = read(wf_path)?;
        let search = kernel_search_path(wf_path, kernels)?;
        let kernel_sources = search.iter().map(|p| read(p)).collect::<Result<Vec<_>, _>>()?;
        let refs: Vec<&str> = kernel_sources.iter().map(String::as_str).collect();
        let (plan, mut diags) = sdk.fuse_workflow(&wf_source, &refs)?;
        for d in &mut diags {
            d.file = wf_path.clone();
        }
        errors += everest::ir::diag::tally(&diags).0;
        match format {
            "json" => {
                print!("{}", plan.to_json());
                if !diags.is_empty() {
                    eprint!("{}", everest::ir::render_text(&diags));
                }
            }
            _ => {
                print!("{}", everest::render_plan_text(&plan, explain));
                for d in &diags {
                    println!("{}", d.render());
                }
            }
        }
    }
    Ok(u8::from(errors > 0))
}

fn cmd_profile(ctx: &Ctx, rest: Vec<String>) -> Result<u8, Box<dyn std::error::Error>> {
    let [path] = rest.as_slice() else {
        return Ok(usage());
    };
    let source = read(path)?;
    let sdk = Sdk::builder().jobs(ctx.jobs).build();
    let compiled = sdk.compile(&source)?;
    let variants: usize = compiled.kernels.iter().map(|k| k.variants.len()).sum();
    let pareto: usize = compiled.kernels.iter().map(|k| k.pareto_front().len()).sum();
    println!(
        "profiled {} kernels: {} variants ({} pareto-optimal)\n",
        compiled.kernels.len(),
        variants,
        pareto
    );
    // The flame table is printed by main() after the tracer is drained,
    // so the compile spans above are all captured.
    Ok(0)
}

/// The embedded kernel corpus `everestc dataset` samples when no
/// `--kernels` file is given: four structurally distinct kernels (dense
/// matmul, stencil, streaming triad, pointwise scale) so the produced
/// table spans compute-bound and memory-bound shapes.
const DATASET_CORPUS: &str = "
    kernel gemm(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16x16xf64> {
        return a @ b;
    }
    kernel smooth(x: tensor<64xf64>) -> tensor<64xf64> {
        return stencil(x, [0.25, 0.5, 0.25]);
    }
    kernel axpy(a: tensor<64xf64>, b: tensor<64xf64>) -> tensor<64xf64> {
        return 2.0 * a + b;
    }
    kernel scale(x: tensor<32x32xf64>) -> tensor<32x32xf64> {
        return 3.0 * x;
    }
";

fn cmd_dataset(ctx: &Ctx, mut rest: Vec<String>) -> Result<u8, Box<dyn std::error::Error>> {
    use everest::variants::DatasetConfig;

    let seed = extract_seed_flag(&mut rest, 7)?;
    let points = extract_count_flag(&mut rest, "--points", 256)?;
    let kernels_path = extract_value_flag(&mut rest, "--kernels")?;
    let out_path = extract_value_flag(&mut rest, "--out")?;
    if !rest.is_empty() {
        return Ok(usage());
    }

    let source = match &kernels_path {
        Some(path) => read(path)?,
        None => DATASET_CORPUS.to_owned(),
    };
    let module = everest::dsl::compile_kernels(&source)?;
    let funcs: Vec<&everest::ir::Func> = module.iter().collect();
    let cfg = DatasetConfig { seed, points, jobs: ctx.jobs, ..DatasetConfig::default() };
    let dataset = everest::variants::dataset::produce(&funcs, &cfg)?;
    eprintln!(
        "dataset: {} rows ({} requested), {} kernels, seed={seed}, jobs={}",
        dataset.rows.len(),
        points,
        funcs.len(),
        ctx.jobs
    );

    let csv = dataset.to_csv();
    match &out_path {
        Some(path) => {
            std::fs::write(path, &csv).map_err(|e| format!("cannot write '{path}': {e}"))?;
            eprintln!("dataset: table written to {path}");
        }
        None => print!("{csv}"),
    }

    Ok(0)
}

fn cmd_route(ctx: &Ctx, mut rest: Vec<String>) -> Result<u8, Box<dyn std::error::Error>> {
    let queries = extract_count_flag(&mut rest, "--queries", 256)?;
    let samples = extract_count_flag(&mut rest, "--samples", 1_000)?;
    if !rest.is_empty() {
        return Ok(usage());
    }
    run_route(queries, samples, ctx.jobs)
}

fn cmd_offload(ctx: &Ctx, mut rest: Vec<String>) -> Result<u8, Box<dyn std::error::Error>> {
    let seed = extract_seed_flag(&mut rest, 7)?;
    let profile =
        extract_value_flag(&mut rest, "--fault-profile")?.unwrap_or_else(|| "lossy".into());
    let calls = extract_count_flag(&mut rest, "--calls", 32)?;
    if !rest.is_empty() {
        return Ok(usage());
    }
    run_offload(&profile, seed, calls, ctx.jobs)
}

fn cmd_serve(ctx: &Ctx, mut rest: Vec<String>) -> Result<u8, Box<dyn std::error::Error>> {
    let shards = extract_count_flag(&mut rest, "--shards", 4)?;
    let queue_depth = extract_count_flag(&mut rest, "--queue-depth", 64)?;
    let max_queries = extract_count_flag(&mut rest, "--queries", 50_000)?;
    let seed = extract_seed_flag(&mut rest, 7)?;
    let duration_s = match extract_value_flag(&mut rest, "--duration")? {
        Some(raw) => match raw.parse::<f64>() {
            Ok(s) if s > 0.0 && s.is_finite() => s,
            _ => return Err(format!("--duration requires positive seconds, got '{raw}'").into()),
        },
        None => 0.2,
    };
    let policy = extract_value_flag(&mut rest, "--policy")?.unwrap_or_else(|| "reject-new".into());
    if !rest.is_empty() {
        return Ok(usage());
    }
    run_serve(shards, duration_s, queue_depth, &policy, seed, max_queries, ctx.jobs)
}

fn cmd_stats(ctx: &Ctx, mut rest: Vec<String>) -> Result<u8, Box<dyn std::error::Error>> {
    let _ = ctx;
    let format = extract_value_flag(&mut rest, "--format")?.unwrap_or_else(|| "table".into());
    if !["table", "openmetrics", "json"].contains(&format.as_str()) {
        return Err(
            format!("--format must be 'table', 'openmetrics' or 'json', got '{format}'").into()
        );
    }
    if rest.is_empty() {
        return Ok(usage());
    }
    run_stats(&rest, &format)
}

/// `everestc stats`: reloads one or more JSON metrics snapshots (as
/// written by `--metrics <path>.json`), merges them — counters add,
/// histograms merge bucket-wise, so percentiles stay exact across
/// shards — and renders the result as a table, OpenMetrics text, or
/// merged JSON.
fn run_stats(paths: &[String], format: &str) -> Result<u8, Box<dyn std::error::Error>> {
    let mut merged: Option<MetricsSnapshot> = None;
    for path in paths {
        let source = read(path)?;
        let snapshot: MetricsSnapshot = serde_json::from_str(&source)
            .map_err(|e| format!("'{path}' is not a metrics snapshot: {e}"))?;
        match &mut merged {
            Some(acc) => acc.merge(&snapshot),
            None => merged = Some(snapshot),
        }
    }
    let merged = merged.expect("caller checked paths is non-empty");
    match format {
        "openmetrics" => print!("{}", openmetrics_text(&merged)),
        "json" => println!("{}", serde_json::to_string_pretty(&merged)?),
        _ => {
            println!(
                "stats: {} snapshot(s), {} counters, {} gauges, {} histograms",
                paths.len(),
                merged.counters.len(),
                merged.gauges.len(),
                merged.histograms.len()
            );
            print!("{}", render_table(&merged));
        }
    }
    Ok(0)
}

/// `everestc check`: runs every static lint over the given source files —
/// tensor-DSL kernels (`.edsl`), printed IR modules (`.eir`), and workflow
/// specs (`.ewf`) — and renders the findings in one diagnostic stream.
/// Exits 1 when any error-severity diagnostic is reported.
fn run_check(sdk: &Sdk, paths: &[String], format: &str) -> Result<u8, Box<dyn std::error::Error>> {
    // The `.edsl` files of this invocation double as the kernel search
    // path for its workflows: when any are present, a workflow task whose
    // kernel is missing from them is a hard `wf-unresolved-kernel` error
    // (fusion analysis must never run on a partial graph). With no
    // `.edsl` on the command line there is no search path to resolve
    // against, and workflows are race-checked standalone as before.
    let mut modules = Vec::new();
    for path in paths.iter().filter(|p| p.ends_with(".edsl")) {
        modules.push(everest::dsl::compile_kernels(&read(path)?)?);
    }
    let kernel_index = (!modules.is_empty()).then(|| everest::kernel_index(&modules));
    let mut diags: Vec<everest::Diagnostic> = Vec::new();
    for path in paths {
        let source = read(path)?;
        let mut found = if path.ends_with(".ewf") {
            let mut found = sdk.check_workflow(&source)?;
            if let Some(index) = &kernel_index {
                let spec = everest::dsl::WorkflowSpec::parse(&source)?;
                found.extend(everest::unresolved_diags(&spec, index));
            }
            found
        } else if path.ends_with(".edsl") {
            sdk.check(&source)?
        } else {
            // `.eir` and anything else: printed IR, checked as written —
            // no canonicalization, so seeded lint fixtures stay seeded.
            let module = everest::ir::parse_module(&source)?;
            module.verify()?;
            everest::ir::check_module(&module)
        };
        for d in &mut found {
            d.file = path.clone();
        }
        diags.extend(found);
    }
    let (errors, _) = everest::ir::diag::tally(&diags);
    match format {
        "json" => print!("{}", everest::ir::render_json(&diags)),
        _ => print!("{}", everest::ir::render_text(&diags)),
    }
    Ok(u8::from(errors > 0))
}

/// `everestc offload`: runs a batch of synthetic kernel invocations
/// through the fault-injected offload recovery layer (retry + circuit
/// breakers + fallback chain), then reschedules the same workload off the
/// tripped devices. Everything printed is a pure function of the seed, so
/// two runs with the same `--seed` diff clean at any `--jobs` count.
fn run_offload(
    profile: &str,
    seed: u64,
    calls: usize,
    jobs: usize,
) -> Result<u8, Box<dyn std::error::Error>> {
    use everest::workflow::exec::simulate_available;
    use everest::workflow::scheduler::Policy;
    use everest::workflow::{TaskGraph, Worker};
    use everest::{FaultPlan, OffloadCall, Sdk};

    everest_telemetry::metrics().reset();
    let plan = FaultPlan::from_profile(profile, seed)?;
    let sdk = Sdk::builder().jobs(jobs).fault_plan(plan).build();
    let mut mgr = sdk.offload_manager()?;

    // One invocation per task of a layered synthetic workflow.
    let graph = TaskGraph::random(seed, 4, calls.div_ceil(4).max(1), 400.0);
    let batch: Vec<OffloadCall> = graph
        .tasks()
        .iter()
        .take(calls)
        .map(|t| OffloadCall {
            kernel: t.name.clone(),
            payload_bytes: t.output_bytes,
            work_us: t.cost_us,
        })
        .collect();
    println!(
        "offload: profile={profile} seed={seed} calls={} targets={} jobs={jobs}",
        batch.len(),
        mgr.chain().len()
    );
    let outcomes = mgr.run_batch(&batch, jobs)?;
    print!("{}", mgr.trace());

    let degraded = outcomes.iter().filter(|o| o.degraded).count();
    let attempts: u32 = outcomes.iter().map(|o| o.attempts).sum();
    println!(
        "completed {}/{} calls ({degraded} degraded, {attempts} attempts)",
        outcomes.len(),
        batch.len()
    );
    let tripped = mgr.tripped_devices();
    if tripped.is_empty() {
        println!("tripped devices: none");
    } else {
        println!("tripped devices: {}", tripped.join(", "));
    }

    // Reschedule the workload off the tripped targets: one worker per
    // fallback-chain rung, excluded when its device is out of rotation.
    let workers: Vec<Worker> = mgr
        .chain()
        .iter()
        .map(|t| {
            Worker::new(
                t.device.clone(),
                t.speedup,
                1.0 / (t.link.bandwidth_gbps.max(1e-9) * 1e3),
                t.link.latency_us,
            )
        })
        .collect();
    let available: Vec<bool> = mgr.chain().iter().map(|t| !tripped.contains(&t.device)).collect();
    let run = simulate_available(&graph, &workers, Policy::Heft, &available)?;
    println!(
        "reschedule: makespan {:.1} us on {}/{} workers, mode={}",
        run.makespan_us,
        workers.len() - run.excluded_workers.len(),
        workers.len(),
        if run.degraded { "degraded" } else { "healthy" }
    );

    let snapshot = everest_telemetry::metrics().snapshot();
    println!("counters:");
    for name in
        ["offload.completed", "offload.retries", "offload.breaker.open", "offload.fallbacks"]
    {
        println!("  {:<24} {}", name, snapshot.counter(name));
    }
    Ok(0)
}

/// `everestc serve`: stands up the sharded PTDR serving tier over a
/// synthetic city (paper Fig. 3 — endpoint→edge→cloud), calibrates its
/// virtual serving capacity, then drives an open-loop diurnal/Zipf
/// workload at 0.5×/1×/2× capacity. The stdout table (admit/shed
/// decisions, virtual-time latency percentiles) is a pure function of
/// the seed and topology and diffs clean at any `--jobs`; wall-clock
/// throughput is machine-dependent and goes to stderr.
fn run_serve(
    shards: usize,
    duration_s: f64,
    queue_depth: usize,
    policy: &str,
    seed: u64,
    max_queries: usize,
    jobs: usize,
) -> Result<u8, Box<dyn std::error::Error>> {
    use everest::apps::traffic::serve::{LoadGen, ServeConfig, ServeTier, ShedPolicy};
    use everest::apps::traffic::{generate_fcd, RoadNetwork, SpeedProfiles};

    let policy: ShedPolicy = policy.parse()?;
    let network = RoadNetwork::grid(2026, 8, 1.0);
    let fcd = generate_fcd(&network, 7, 40_000);
    let profiles = SpeedProfiles::learn(&network, &fcd);
    let generator = LoadGen::new(&network, &profiles, 48, seed);

    let mut config = ServeConfig::new(shards);
    config.seed = seed;
    config.jobs = jobs;
    config.queue_depth = queue_depth;
    config.policy = policy;
    let tier = ServeTier::new(network, profiles, config);
    // Day 0 warms the caches, day 1 measures the steady-state mixed
    // hit/miss capacity; the sweep then serves fresh days 2..4 without
    // a cold restart, like a long-running tier.
    let cold_capacity = tier.calibrate(&generator, 0, 2_000);
    let capacity = tier.calibrate(&generator, 1, 2_000);
    println!(
        "serve tier: {shards} shards x {} vnodes, queue depth {queue_depth} ({policy}), \
         jobs={jobs}",
        config.vnodes
    );
    println!("calibrated capacity: cold {cold_capacity:.0} q/s, warm {capacity:.0} q/s (virtual)");
    println!(
        "{:>6}  {:>10}  {:>8}  {:>6}  {:>6}  {:>8}  {:>8}  {:>8}",
        "load", "offered", "served", "shed", "reject", "p50_us", "p95_us", "p99_us"
    );
    for (day, mult) in [0.5f64, 1.0, 2.0].into_iter().enumerate() {
        let offered = mult * capacity;
        let workload = generator.generate(2 + day as u64, offered, duration_s, max_queries);
        let report = tier.run(&workload);
        let shed: u64 = report.shards.iter().map(|s| s.shed).sum();
        let rejected: u64 = report.shards.iter().map(|s| s.rejected).sum();
        println!(
            "{mult:>5.2}x  {offered:>10.0}  {:>8}  {shed:>6}  {rejected:>6}  {:>8.1}  {:>8.1}  {:>8.1}",
            report.served(),
            report.latency.p50(),
            report.latency.p95(),
            report.latency.p99()
        );
        eprintln!(
            "  {mult:.1}x wall: {:.1} ms, {:.0} served q/s (wall-clock, machine-dependent)",
            report.wall_s * 1e3,
            report.served_per_sec_wall()
        );
    }
    Ok(0)
}

/// `everestc route`: stands up the PTDR serving engine over a synthetic
/// city (paper §VI-C, "route calculation as a service"), replays a
/// request stream of repeated commutes cold and warm, and reports
/// latency, throughput, and cache effectiveness.
fn run_route(
    queries: usize,
    samples: usize,
    jobs: usize,
) -> Result<u8, Box<dyn std::error::Error>> {
    use everest::apps::traffic::service::{PtdrService, RouteQuery};
    use everest::apps::traffic::{
        generate_fcd, random_od, shortest_route, RoadNetwork, SpeedProfiles,
    };

    let network = RoadNetwork::grid(2026, 8, 1.0);
    let fcd = generate_fcd(&network, 7, 40_000);
    let profiles = SpeedProfiles::learn(&network, &fcd);
    let od = random_od(&network, 11, 64, 700.0);
    let routes: Vec<Vec<usize>> = od
        .iter()
        .filter_map(|pair| shortest_route(&network, &profiles, pair.from, pair.to, 8))
        .filter(|route| !route.is_empty())
        .take(16)
        .collect();
    if routes.is_empty() {
        return Err("synthetic grid produced no routes".into());
    }
    // Repeated commutes: the request stream cycles a small set of
    // (route, departure) pairs, the shape the response cache serves.
    let departures = [7.5f64, 8.0, 12.25, 17.0];
    let batch: Vec<RouteQuery> = (0..queries)
        .map(|i| RouteQuery {
            route: routes[i % routes.len()].clone(),
            depart_hour: departures[(i / routes.len()) % departures.len()],
            samples,
        })
        .collect();

    let service = PtdrService::new(network, profiles).with_jobs(jobs).with_seed(7);
    println!(
        "ptdr service: 8x8 grid, {} routes, {queries} queries x {samples} samples, jobs={jobs}",
        routes.len()
    );
    for phase in ["cold", "warm"] {
        let before = everest_telemetry::metrics().snapshot();
        let start = std::time::Instant::now();
        let stats = service.route_batch(&batch);
        let wall = start.elapsed().as_secs_f64();
        let after = everest_telemetry::metrics().snapshot();
        let hits = after.counter("ptdr.cache.hit") - before.counter("ptdr.cache.hit");
        let misses = after.counter("ptdr.cache.miss") - before.counter("ptdr.cache.miss");
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        let slowest = stats.iter().map(|s| s.p95_h).fold(0.0f64, f64::max);
        println!(
            "{phase}: {:>8.2} ms  {:>9.1} queries/s  cache {hits}h/{misses}m ({:.0}% hit)  \
             worst p95 {:.3} h",
            wall * 1e3,
            queries as f64 / wall.max(1e-12),
            hit_rate * 100.0,
            slowest
        );
    }
    Ok(0)
}
