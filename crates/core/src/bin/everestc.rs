//! `everestc` — a command-line front door to the EVEREST SDK.
//!
//! Every subcommand is an entry in the [`COMMANDS`] registry: a name, its
//! positional arguments, a one-line summary, its flags, and a run
//! function. Each flag row carries the flag's name, the kind of value it
//! takes, its default and its help text. The parser, the help text, the
//! usage error, and dispatch are all generated from that one table, so
//! adding a subcommand or a flag is adding a row — there is no parallel
//! `match` or hand-written flag parser to keep in sync.
//!
//! `everestc help` prints the table; `tests/golden/everestc_help.txt` pins it.

use everest::Sdk;
use everest_telemetry::export::{chrome_trace_json, flame_summary, spans_to_events};
use everest_telemetry::openmetrics::{openmetrics_text, render_table};
use everest_telemetry::{MetricsSnapshot, SpanRecord, Tracer};
use std::io::{self, Write};
use std::process::ExitCode;

/// What a run function returns: the exit code, or an error that exits 1.
type CmdResult<T = u8> = Result<T, Box<dyn std::error::Error>>;

/// The kind of value a flag takes, its placeholder in the help text, and
/// the value a run function reads when the flag is not given. The parser
/// checks every value against its row's kind before a command runs, so a
/// run function reads its flags back already valid.
#[derive(Clone, Copy)]
enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// Any non-empty text: a path, or a name the library checks.
    Text { placeholder: &'static str, default: Option<&'static str> },
    /// A positive integer.
    Count(Option<usize>),
    /// Any unsigned 64-bit integer.
    U64(u64),
    /// Positive, finite seconds.
    Seconds(f64),
    /// One of a fixed set of words; the first is the default.
    Choice { placeholder: &'static str, words: &'static [&'static str] },
}

impl Kind {
    fn default(self) -> Option<String> {
        match self {
            Kind::Switch => None,
            Kind::Text { default, .. } => default.map(str::to_owned),
            Kind::Count(default) => default.map(|n| n.to_string()),
            Kind::U64(default) => Some(default.to_string()),
            Kind::Seconds(default) => Some(default.to_string()),
            Kind::Choice { words, .. } => Some(words[0].to_owned()),
        }
    }

    fn check(self, flag: &str, value: &str) -> Result<(), String> {
        let (ok, expected) = match self {
            Kind::Switch => (value.is_empty(), "no value".into()),
            Kind::Text { .. } => (!value.is_empty(), "a value".into()),
            Kind::Count(_) => {
                (value.parse::<usize>().is_ok_and(|n| n >= 1), "a positive count".into())
            }
            Kind::U64(_) => (value.parse::<u64>().is_ok(), "an unsigned integer".into()),
            Kind::Seconds(_) => (
                value.parse::<f64>().is_ok_and(|s| s > 0.0 && s.is_finite()),
                "positive seconds".into(),
            ),
            Kind::Choice { words, .. } => {
                (words.contains(&value), format!("one of {}", words.join(", ")))
            }
        };
        match (ok, value) {
            (true, _) => Ok(()),
            (false, "") => Err(format!("{flag} requires {expected}")),
            (false, _) => Err(format!("{flag} requires {expected}, got '{value}'")),
        }
    }
}

/// One flag: the only place it is declared. The parser reads its name and
/// kind; the help text prints its name, placeholder, help and default.
struct FlagDoc {
    name: &'static str,
    kind: Kind,
    help: &'static str,
}

impl FlagDoc {
    /// `--name <value>`, as the help text heads the flag's row.
    fn head(&self) -> String {
        let placeholder = match self.kind {
            Kind::Switch => "",
            Kind::Text { placeholder, .. } | Kind::Choice { placeholder, .. } => placeholder,
            Kind::Count(_) | Kind::U64(_) => "<n>",
            Kind::Seconds(_) => "<s>",
        };
        format!("{} {placeholder}", self.name).trim_end().to_owned()
    }

    /// `[--name <value>]` as a synopsis shows it; a choice lists its words.
    fn synopsis(&self) -> String {
        match self.kind {
            Kind::Choice { words, .. } => format!("[{} {}]", self.name, words.join("|")),
            _ => format!("[{}]", self.head()),
        }
    }

    /// The help text, then the default the parser fills in.
    fn help(&self) -> String {
        let help = self.help.to_owned();
        self.kind.default().map_or(help, |default| format!("{} (default {default})", self.help))
    }
}

/// One subcommand: everything the driver needs to parse, dispatch and
/// document it. `records` opts the command into span recording even
/// without `--trace` (and into the post-run flame summary).
struct CommandSpec {
    name: &'static str,
    /// Positional arguments: each `<arg>` is required, each `[arg]`
    /// optional, and one ending in `...` repeats.
    args: &'static [&'static str],
    summary: &'static str,
    flags: &'static [FlagDoc],
    records: bool,
    run: fn(&Args, &mut dyn Write) -> CmdResult,
}

impl CommandSpec {
    /// The fewest and the most positional arguments the command takes.
    fn arity(&self) -> (usize, usize) {
        let min = self.args.iter().filter(|a| a.starts_with('<')).count();
        let max =
            if self.args.iter().any(|a| a.ends_with("...")) { usize::MAX } else { self.args.len() };
        (min, max)
    }
}

/// Flags accepted in any position, before or after the subcommand.
const GLOBAL_FLAGS: &[FlagDoc] = &[
    FlagDoc {
        name: "--trace",
        kind: Kind::Text { placeholder: "<out.json>", default: None },
        help: "write a Chrome trace-event JSON file covering the compiler \
               phases run by the subcommand",
    },
    FlagDoc {
        name: "--metrics",
        kind: Kind::Text { placeholder: "<path>", default: None },
        help: "write the final metrics snapshot of any subcommand: OpenMetrics \
               text when <path> ends in .prom/.txt/.om, JSON otherwise \
               (reloadable by `everestc stats`)",
    },
    FlagDoc {
        name: "--flight",
        kind: Kind::Text { placeholder: "<path>", default: None },
        help: "write the flight recorder's recent-event rings as JSON (the \
               always-on post-hoc trace)",
    },
    FlagDoc {
        name: "--jobs",
        // The host's parallelism: see `Args::jobs`.
        kind: Kind::Count(None),
        help: "worker count for design-space exploration and the PTDR routing \
               service (default: the host's available parallelism, at least \
               2); 1 runs the sequential reference evaluator, 2+ the pooled, \
               cached engine — results are identical either way",
    },
];

/// The subcommand registry. Parsing, dispatch, `everestc help` and the
/// usage error are all generated from this table.
const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "ir",
        args: &["<kernels.edsl>"],
        summary: "compile tensor-DSL kernels and print the unified IR",
        flags: &[],
        records: false,
        run: cmd_ir,
    },
    CommandSpec {
        name: "variants",
        args: &["<kernels.edsl>"],
        summary: "explore the design space and print the variant table per kernel",
        flags: &[],
        records: false,
        run: cmd_variants,
    },
    CommandSpec {
        name: "rtl",
        args: &["<kernels.edsl>", "<kernel>"],
        summary: "synthesize one kernel and print its RTL",
        flags: &[],
        records: false,
        run: cmd_rtl,
    },
    CommandSpec {
        name: "workflow",
        args: &["<pipeline.ewf>"],
        summary: "validate a workflow spec and print its IR and task graph",
        flags: &[],
        records: false,
        run: cmd_workflow,
    },
    CommandSpec {
        name: "check",
        args: &["<file.edsl|file.eir|file.ewf>..."],
        summary: "run the static lints (liveness, range, taint/IFC, workflow races)",
        flags: &[FlagDoc {
            name: "--format",
            kind: Kind::Choice { placeholder: "<f>", words: &["text", "json"] },
            help: "diagnostic output format: text or json; exit code is 1 when \
                   any error-severity diagnostic is reported, 0 when clean",
        }],
        records: false,
        run: cmd_check,
    },
    CommandSpec {
        name: "fuse",
        args: &["<pipeline.ewf>", "[kernels.edsl...]"],
        summary: "classify every workflow dataset edge as fusable / must-spill / racy",
        flags: &[
            FlagDoc {
                name: "--explain",
                kind: Kind::Switch,
                help: "print the proof behind every verdict: the ordering path, \
                       the footprint bound vs the BRAM stream budget, or the \
                       race counterexample",
            },
            FlagDoc {
                name: "--format",
                kind: Kind::Choice { placeholder: "<f>", words: &["text", "json"] },
                help: "plan output format: text or json (the machine-checkable \
                       FusionPlan, stable under --jobs); diagnostics go to \
                       stderr in json mode; exit code is 1 when any edge is \
                       racy or a kernel is unresolved",
            },
        ],
        records: false,
        run: cmd_fuse,
    },
    CommandSpec {
        name: "profile",
        args: &["<kernels.edsl>"],
        summary: "compile with the recording tracer and print a per-phase summary",
        flags: &[],
        records: true,
        run: cmd_profile,
    },
    CommandSpec {
        name: "dataset",
        args: &[],
        summary: "mass-produce a seed-reproducible table of synthesized design points",
        flags: &[
            FlagDoc {
                name: "--seed",
                kind: Kind::U64(7),
                help: "knob-sampling seed; the same seed yields a byte-identical \
                       table at any --jobs count",
            },
            FlagDoc {
                name: "--points",
                kind: Kind::Count(Some(256)),
                help: "number of (kernel, knob-vector) rows to produce",
            },
            FlagDoc {
                name: "--kernels",
                // `DATASET_CORPUS`, which is no value a user could type.
                kind: Kind::Text { placeholder: "<file.edsl>", default: None },
                help: "tensor-DSL source providing the kernels to sample \
                       (default: an embedded four-kernel corpus)",
            },
            FlagDoc {
                name: "--out",
                kind: Kind::Text { placeholder: "<csv>", default: None },
                help: "write the table to this file instead of stdout",
            },
        ],
        records: false,
        run: cmd_dataset,
    },
    CommandSpec {
        name: "route",
        args: &[],
        summary: "serve a synthetic PTDR routing workload cold and warm",
        flags: &[
            FlagDoc {
                name: "--queries",
                kind: Kind::Count(Some(256)),
                help: "routing requests in the synthetic workload",
            },
            FlagDoc {
                name: "--samples",
                kind: Kind::Count(Some(1_000)),
                help: "Monte-Carlo samples per routing request",
            },
        ],
        records: false,
        run: cmd_route,
    },
    CommandSpec {
        name: "offload",
        args: &[],
        summary: "run a fault-injected offload batch through the recovery layer",
        flags: &[
            FlagDoc {
                name: "--seed",
                kind: Kind::U64(7),
                help: "workload/fault-plan seed; the same seed yields a \
                       bit-identical trace at any --jobs count",
            },
            FlagDoc {
                name: "--fault-profile",
                // `FaultPlan::from_profile` knows the profiles.
                kind: Kind::Text { placeholder: "<p>", default: Some("lossy") },
                help: "fault scenario: none, lossy, flaky or meltdown",
            },
            FlagDoc {
                name: "--calls",
                kind: Kind::Count(Some(32)),
                help: "kernel invocations in the offload batch",
            },
        ],
        records: false,
        run: cmd_offload,
    },
    CommandSpec {
        name: "serve",
        args: &[],
        summary: "drive the sharded PTDR serving tier through 0.5x/1x/2x offered load",
        flags: &[
            FlagDoc {
                name: "--shards",
                kind: Kind::Count(Some(4)),
                help: "edge shard count on the consistent-hash ring",
            },
            FlagDoc {
                name: "--duration",
                kind: Kind::Seconds(0.2),
                help: "virtual seconds of open-loop load per offered-load point; \
                       one diurnal day is compressed into the window",
            },
            FlagDoc {
                name: "--queue-depth",
                kind: Kind::Count(Some(64)),
                help: "bounded admission queue per shard; arrivals beyond it are \
                       load-shed",
            },
            FlagDoc {
                name: "--policy",
                // `ShedPolicy`'s `FromStr` knows the policies.
                kind: Kind::Text { placeholder: "<p>", default: Some("reject-new") },
                help: "shedding policy once a queue fills: reject-new or shed-oldest",
            },
            FlagDoc {
                name: "--seed",
                kind: Kind::U64(7),
                help: "load-generator and tier seed; the same seed yields a \
                       bit-identical table at any --jobs count",
            },
            FlagDoc {
                name: "--queries",
                kind: Kind::Count(Some(50_000)),
                help: "cap on generated arrivals per offered-load point",
            },
        ],
        records: false,
        run: cmd_serve,
    },
    CommandSpec {
        name: "stats",
        args: &["<snapshot.json>..."],
        summary: "merge metrics snapshots and render them offline",
        flags: &[FlagDoc {
            name: "--format",
            kind: Kind::Choice { placeholder: "<f>", words: &["table", "openmetrics", "json"] },
            help: "stats output format: table, openmetrics or json",
        }],
        records: false,
        run: cmd_stats,
    },
];

/// Renders the full help text from [`GLOBAL_FLAGS`] and [`COMMANDS`].
fn usage_text() -> String {
    let globals: Vec<String> = GLOBAL_FLAGS.iter().map(FlagDoc::synopsis).collect();
    // Wrapped after the third flag to stay within 80 columns.
    let mut out = format!(
        "usage:\n  everestc {}\n           {} <command> [options] <args>\n  everestc help | \
         --help | -h\n  everestc --version | -V\n\ncommands:\n",
        globals[..3].join(" "),
        globals[3..].join(" ")
    );
    for cmd in COMMANDS {
        let flags = cmd.flags.iter().map(FlagDoc::synopsis);
        let synopsis: Vec<String> = flags.chain(cmd.args.iter().map(|a| a.to_string())).collect();
        out.push_str(&format!("  {} {}\n      {}\n", cmd.name, synopsis.join(" "), cmd.summary));
    }
    out.push_str("\nglobal options:\n");
    for flag in GLOBAL_FLAGS {
        out.push_str(&format!("  {}\n      {}\n", flag.head(), flag.help()));
    }
    out.push_str("\ncommand options:\n");
    for cmd in COMMANDS.iter().filter(|c| !c.flags.is_empty()) {
        out.push_str(&format!("  {}:\n", cmd.name));
        for flag in cmd.flags {
            out.push_str(&format!("    {:<22} {}\n", flag.head(), flag.help()));
        }
    }
    out
}

/// A parsed command line: every flag that was given or has a default, as
/// checked text (a switch's is empty), and the positional arguments.
struct Args {
    flags: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

impl Args {
    /// A flag's value: as given, else its row's default.
    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(name, _)| *name == flag).map(|(_, value)| value.as_str())
    }

    /// A flag that has a default, read back as the type its kind promises.
    fn value<T: std::str::FromStr>(&self, flag: &str) -> T {
        let value = self.get(flag).and_then(|value| value.parse().ok());
        value.unwrap_or_else(|| panic!("{flag} has no default of its kind"))
    }

    /// `--jobs`, else the host's available parallelism — at least 2, so
    /// the memoized engine is on by default.
    fn jobs(&self) -> usize {
        let host = || std::thread::available_parallelism().map_or(1, |n| n.get()).max(2);
        self.get("--jobs").map_or_else(host, |_| self.value("--jobs"))
    }
}

/// Prints why a command line is refused — with the usage text when it
/// exits 2 — and ends the run with the exit code.
fn refuse(message: String, code: u8) -> CmdResult {
    eprintln!("error: {message}");
    if code == 2 {
        eprintln!("{}", usage_text());
    }
    Ok(code)
}

/// Parses `argv` against [`GLOBAL_FLAGS`] and the command's rows. Before
/// the command word only global flags may appear; after it, global and
/// command flags in any order and mixed with positional arguments, as
/// `--flag value` or `--flag=value`. A flag that takes a value takes the
/// next argument, whatever it is.
///
/// `Err` is how a command line that runs no command ends: exit 0 once
/// the help or the version is written to `out`; 2 for a usage error (an
/// unknown command, an unknown, repeated or stray flag or argument, a
/// missing argument) or a bad global value; 1 for a bad command value.
fn parse(argv: &[String], out: &mut dyn Write) -> Result<(&'static CommandSpec, Args), CmdResult> {
    let mut spec: Option<&'static CommandSpec> = None;
    let mut given: Vec<(&'static str, String)> = Vec::new();
    let mut positional = Vec::new();
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) if arg.starts_with("--") => (name, Some(value)),
            _ => (arg.as_str(), None),
        };
        let global = GLOBAL_FLAGS.iter().find(|f| f.name == name);
        let Some(row) = global.or_else(|| spec?.flags.iter().find(|f| f.name == name)) else {
            match (spec, arg.as_str()) {
                (None, "help" | "--help" | "-h") => {
                    let written = writeln!(out, "{}", usage_text());
                    return Err(written.map(|()| 0).map_err(Into::into));
                }
                (None, "--version" | "-V") => {
                    let written = writeln!(out, "everestc {}", env!("CARGO_PKG_VERSION"));
                    return Err(written.map(|()| 0).map_err(Into::into));
                }
                (None, word) => match COMMANDS.iter().find(|c| c.name == word) {
                    Some(found) => spec = Some(found),
                    None => return Err(refuse(format!("unknown command '{word}'"), 2)),
                },
                (Some(_), flag) if flag.starts_with("--") => {
                    return Err(refuse(format!("unknown option '{flag}'"), 2))
                }
                (Some(_), _) => positional.push(arg.clone()),
            }
            continue;
        };
        if given.iter().any(|(seen, _)| *seen == row.name) {
            return Err(refuse(format!("{} given twice", row.name), 2));
        }
        let value = match (row.kind, inline) {
            (_, Some(value)) => value.to_owned(),
            (Kind::Switch, None) => String::new(),
            (_, None) => rest.next().cloned().unwrap_or_default(),
        };
        let code = if global.is_some() { 2 } else { 1 };
        row.kind.check(row.name, &value).map_err(|e| refuse(e, code))?;
        given.push((row.name, value));
    }
    let spec = spec.ok_or_else(|| refuse("no command given".into(), 2))?;
    let (min, max) = spec.arity();
    if let Some(stray) = positional.get(max) {
        return Err(refuse(format!("unexpected argument '{stray}'"), 2));
    }
    if positional.len() < min {
        return Err(refuse(format!("{} needs {}", spec.name, spec.args.join(" ")), 2));
    }
    for row in GLOBAL_FLAGS.iter().chain(spec.flags) {
        if !given.iter().any(|(name, _)| *name == row.name) {
            given.extend(row.kind.default().map(|value| (row.name, value)));
        }
    }
    Ok((spec, Args { flags: given, positional }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    match run(&argv, &mut out).and_then(|code| Ok(out.flush().map(|()| code)?)) {
        Ok(code) => ExitCode::from(code),
        Err(e) => match e.downcast_ref::<io::Error>() {
            // Whoever read stdout stopped (`everestc … | head`): what they
            // did not read is not an error.
            Some(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
            _ => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// Parses `argv`, runs the command with everything it prints going to
/// `out`, writes the artifacts the global flags ask for, and returns the
/// exit code.
fn run(argv: &[String], out: &mut dyn Write) -> CmdResult {
    let (spec, args) = match parse(argv, out) {
        Ok(parsed) => parsed,
        Err(ended) => return ended,
    };

    // Recording subcommands always record; `--trace` opts any in.
    let recording = args.get("--trace").is_some() || spec.records;
    if recording {
        everest_telemetry::install_global(Tracer::recording());
    }
    if recording || args.get("--metrics").is_some() {
        // A clean registry, so the written snapshot covers exactly this
        // invocation.
        everest_telemetry::metrics().reset();
    }

    let result = (spec.run)(&args, out);

    let spans = everest_telemetry::take_global().finish();
    write_artifacts(&args, &spans)?;
    if spec.records && matches!(result, Ok(0)) {
        write!(out, "{}", flame_summary(&spans))?;
        print_counters(out)?;
    }
    result
}

/// Writes the artifacts the global flags ask for — the trace, the metrics
/// snapshot, the flight dump — and names each on stderr, stopping at the
/// first that cannot be written.
fn write_artifacts(args: &Args, spans: &[SpanRecord]) -> Result<(), String> {
    let write = |what: &str, path: &str, body: String, summary: String| {
        std::fs::write(path, body).map_err(|e| format!("cannot write {what} '{path}': {e}"))?;
        eprintln!("{summary} written to {path}");
        Ok::<(), String>(())
    };
    if let Some(path) = args.get("--trace") {
        let json = chrome_trace_json(&spans_to_events(spans));
        write("trace", path, json, format!("trace: {} spans", spans.len()))?;
    }
    if let Some(path) = args.get("--metrics") {
        let snapshot = everest_telemetry::metrics().snapshot();
        let body = if [".prom", ".txt", ".om"].iter().any(|ext| path.ends_with(ext)) {
            openmetrics_text(&snapshot)
        } else {
            serde_json::to_string_pretty(&snapshot).expect("snapshot serializes")
        };
        let (counters, gauges) = (snapshot.counters.len(), snapshot.gauges.len());
        let histograms = snapshot.histograms.len();
        let summary =
            format!("metrics: {counters} counters, {gauges} gauges, {histograms} histograms");
        write("metrics", path, body, summary)?;
    }
    if let Some(path) = args.get("--flight") {
        let dump = everest_telemetry::flight().dump("cli");
        let (events, threads, dropped) = (dump.events.len(), dump.threads, dump.dropped);
        let summary =
            format!("flight: {events} events from {threads} threads ({dropped} overwritten)");
        write("flight dump", path, dump.to_json(), summary)?;
    }
    Ok(())
}

fn print_counters(out: &mut dyn Write) -> io::Result<()> {
    let snapshot = everest_telemetry::metrics().snapshot();
    if snapshot.counters.is_empty() {
        return Ok(());
    }
    writeln!(out)?;
    writeln!(out, "counters:")?;
    for counter in &snapshot.counters {
        writeln!(out, "  {:<32} {}", counter.name, counter.value)?;
    }
    Ok(())
}

fn read(path: &str) -> CmdResult<String> {
    Ok(std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?)
}

fn cmd_ir(args: &Args, out: &mut dyn Write) -> CmdResult {
    let source = read(&args.positional[0])?;
    let module = everest::dsl::compile_kernels(&source)?;
    write!(out, "{}", module.to_text())?;
    Ok(0)
}

fn cmd_variants(args: &Args, out: &mut dyn Write) -> CmdResult {
    let source = read(&args.positional[0])?;
    let compiled = Sdk::builder().jobs(args.jobs()).build().compile(&source)?;
    for kernel in &compiled.kernels {
        writeln!(out, "kernel {} — {} variants:", kernel.name, kernel.variants.len())?;
        for v in &kernel.variants {
            writeln!(
                out,
                "  {:<16} target={:<9} total={:>10.2} us  energy={:>9.4} mJ  luts={}",
                v.id,
                v.target().to_string(),
                v.metrics.total_us(),
                v.metrics.energy_mj,
                v.metrics.area_luts
            )?;
        }
        let front = kernel.pareto_front();
        let ids: Vec<&str> = front.iter().map(|v| v.id.as_str()).collect();
        writeln!(out, "  pareto: {}", ids.join(", "))?;
    }
    Ok(0)
}

fn cmd_rtl(args: &Args, out: &mut dyn Write) -> CmdResult {
    let source = read(&args.positional[0])?;
    let sdk = Sdk::builder().jobs(args.jobs()).build();
    let acc = sdk.synthesize_kernel(&source, &args.positional[1])?;
    eprintln!(
        "// {}: {} cycles @ {} MHz, II={}, pe={}, area: {}",
        acc.name, acc.latency_cycles, acc.clock_mhz, acc.innermost_ii, acc.pe, acc.area
    );
    write!(out, "{}", acc.rtl)?;
    Ok(0)
}

fn cmd_workflow(args: &Args, out: &mut dyn Write) -> CmdResult {
    let source = read(&args.positional[0])?;
    let spec = everest::dsl::WorkflowSpec::parse(&source)?;
    writeln!(out, "workflow {} — {} steps", spec.name, spec.steps.len())?;
    let module = spec.to_ir()?;
    write!(out, "{}", module.to_text())?;
    let graph = everest::task_graph_from_workflow(&spec, |_| (1_000.0, 10_000));
    writeln!(
        out,
        "// task graph: {} tasks, critical path {:.1} ms (unit costs)",
        graph.len(),
        graph.critical_path_us() / 1e3
    )?;
    Ok(0)
}

/// `everestc check`: runs every static lint over the given source files —
/// tensor-DSL kernels (`.edsl`), printed IR modules (`.eir`), and workflow
/// specs (`.ewf`) — and renders the findings in one diagnostic stream.
/// Exits 1 when any error-severity diagnostic is reported.
fn cmd_check(args: &Args, out: &mut dyn Write) -> CmdResult {
    let (sdk, paths) = (Sdk::builder().jobs(args.jobs()).build(), &args.positional);
    // Every `.edsl` file is compiled once, before anything else is read.
    // Its kernels are checked below, and when a workflow is on the command
    // line they double as its kernel search path: a workflow task whose
    // kernel is missing from them is a hard `wf-unresolved-kernel` error
    // (fusion analysis must never run on a partial graph). With no `.edsl`
    // on the command line there is no search path to resolve against, and
    // workflows are race-checked standalone as before.
    let mut modules = Vec::new();
    for path in paths.iter().filter(|p| p.ends_with(".edsl")) {
        modules.push(everest::dsl::compile_kernels(&read(path)?)?);
    }
    let kernel_index = (!modules.is_empty() && paths.iter().any(|p| p.ends_with(".ewf")))
        .then(|| everest::kernel_index(&modules));
    let mut modules = modules.into_iter();
    let mut diags: Vec<everest::Diagnostic> = Vec::new();
    for path in paths {
        let mut found = if path.ends_with(".ewf") {
            let source = read(path)?;
            let mut found = sdk.check_workflow(&source)?;
            if let Some(index) = &kernel_index {
                let spec = everest::dsl::WorkflowSpec::parse(&source)?;
                found.extend(everest::unresolved_diags(&spec, index));
            }
            found
        } else if path.ends_with(".edsl") {
            sdk.check(modules.next().expect("one module per .edsl path"))?
        } else {
            // `.eir` and anything else: printed IR, checked as written —
            // no canonicalization, so seeded lint fixtures stay seeded.
            let module = everest::ir::parse_module(&read(path)?)?;
            module.verify()?;
            everest::ir::check_module(&module)
        };
        for d in &mut found {
            d.file = path.clone();
        }
        diags.extend(found);
    }
    let (errors, _) = everest::ir::diag::tally(&diags);
    match args.get("--format") {
        Some("json") => write!(out, "{}", everest::ir::render_json(&diags))?,
        _ => write!(out, "{}", everest::ir::render_text(&diags))?,
    }
    Ok(u8::from(errors > 0))
}

/// The kernel search path for one workflow: the `.edsl` files named on the
/// command line, or — when none were given — every sibling `.edsl` of the
/// workflow file, in sorted order (deterministic regardless of readdir
/// order).
fn kernel_search_path(workflow: &str, explicit: &[String]) -> CmdResult<Vec<String>> {
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
fn cmd_fuse(args: &Args, out: &mut dyn Write) -> CmdResult {
    let paths = &args.positional;
    let workflows: Vec<&String> = paths.iter().filter(|p| p.ends_with(".ewf")).collect();
    let kernels: Vec<String> = paths.iter().filter(|p| p.ends_with(".edsl")).cloned().collect();
    if workflows.is_empty() || workflows.len() + kernels.len() != paths.len() {
        return refuse("fuse takes .ewf workflows and .edsl kernels".into(), 2);
    }
    let sdk = Sdk::builder().jobs(args.jobs()).build();
    let mut errors = 0;
    for wf_path in workflows {
        let wf_source = read(wf_path)?;
        let search = kernel_search_path(wf_path, &kernels)?;
        let kernel_sources = search.iter().map(|p| read(p)).collect::<Result<Vec<_>, _>>()?;
        let refs: Vec<&str> = kernel_sources.iter().map(String::as_str).collect();
        let (plan, mut diags) = sdk.fuse_workflow(&wf_source, &refs)?;
        for d in &mut diags {
            d.file = wf_path.clone();
        }
        errors += everest::ir::diag::tally(&diags).0;
        match args.get("--format") {
            Some("json") => {
                write!(out, "{}", plan.to_json())?;
                if !diags.is_empty() {
                    eprint!("{}", everest::ir::render_text(&diags));
                }
            }
            _ => {
                write!(
                    out,
                    "{}",
                    everest::render_plan_text(&plan, args.get("--explain").is_some())
                )?;
                for d in &diags {
                    writeln!(out, "{}", d.render())?;
                }
            }
        }
    }
    Ok(u8::from(errors > 0))
}

fn cmd_profile(args: &Args, out: &mut dyn Write) -> CmdResult {
    let source = read(&args.positional[0])?;
    let sdk = Sdk::builder().jobs(args.jobs()).build();
    let compiled = sdk.compile(&source)?;
    let variants: usize = compiled.kernels.iter().map(|k| k.variants.len()).sum();
    let pareto: usize = compiled.kernels.iter().map(|k| k.pareto_front().len()).sum();
    writeln!(
        out,
        "profiled {} kernels: {} variants ({} pareto-optimal)\n",
        compiled.kernels.len(),
        variants,
        pareto
    )?;
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

fn cmd_dataset(args: &Args, out: &mut dyn Write) -> CmdResult {
    use everest::variants::DatasetConfig;

    let (seed, points, jobs) = (args.value("--seed"), args.value("--points"), args.jobs());
    let source = match args.get("--kernels") {
        Some(path) => read(path)?,
        None => DATASET_CORPUS.to_owned(),
    };
    let module = everest::dsl::compile_kernels(&source)?;
    let funcs: Vec<&everest::ir::Func> = module.iter().collect();
    let cfg = DatasetConfig { seed, points, jobs, ..DatasetConfig::default() };
    let dataset = everest::variants::dataset::produce(&funcs, &cfg)?;
    eprintln!(
        "dataset: {} rows ({points} requested), {} kernels, seed={seed}, jobs={jobs}",
        dataset.rows.len(),
        funcs.len(),
    );

    let csv = dataset.to_csv();
    match args.get("--out") {
        Some(path) => {
            std::fs::write(path, &csv).map_err(|e| format!("cannot write '{path}': {e}"))?;
            eprintln!("dataset: table written to {path}");
        }
        None => write!(out, "{csv}")?,
    }

    Ok(0)
}

/// `everestc stats`: reloads one or more JSON metrics snapshots (as
/// written by `--metrics <path>.json`), merges them — counters add,
/// histograms merge bucket-wise, so percentiles stay exact across
/// shards — and renders the result as a table, OpenMetrics text, or
/// merged JSON.
fn cmd_stats(args: &Args, out: &mut dyn Write) -> CmdResult {
    let paths = &args.positional;
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
    let merged = merged.expect("the parser checked paths is non-empty");
    match args.get("--format") {
        Some("openmetrics") => write!(out, "{}", openmetrics_text(&merged))?,
        Some("json") => writeln!(out, "{}", serde_json::to_string_pretty(&merged)?)?,
        _ => {
            writeln!(
                out,
                "stats: {} snapshot(s), {} counters, {} gauges, {} histograms",
                paths.len(),
                merged.counters.len(),
                merged.gauges.len(),
                merged.histograms.len()
            )?;
            write!(out, "{}", render_table(&merged))?;
        }
    }
    Ok(0)
}

/// `everestc offload`: runs a batch of synthetic kernel invocations
/// through the fault-injected offload recovery layer (retry + circuit
/// breakers + fallback chain), then reschedules the same workload off the
/// tripped devices. Everything printed is a pure function of the seed, so
/// two runs with the same `--seed` diff clean at any `--jobs` count.
fn cmd_offload(args: &Args, out: &mut dyn Write) -> CmdResult {
    use everest::workflow::exec::simulate_available;
    use everest::workflow::scheduler::Policy;
    use everest::workflow::{TaskGraph, Worker};
    use everest::{FaultPlan, OffloadCall, Sdk};

    let profile: String = args.value("--fault-profile");
    let (seed, calls, jobs) = (args.value("--seed"), args.value::<usize>("--calls"), args.jobs());
    everest_telemetry::metrics().reset();
    let plan = FaultPlan::from_profile(&profile, seed)?;
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
    writeln!(
        out,
        "offload: profile={profile} seed={seed} calls={} targets={} jobs={jobs}",
        batch.len(),
        mgr.chain().len()
    )?;
    let outcomes = mgr.run_batch(&batch, jobs)?;
    write!(out, "{}", mgr.trace())?;

    let degraded = outcomes.iter().filter(|o| o.degraded).count();
    let attempts: u32 = outcomes.iter().map(|o| o.attempts).sum();
    writeln!(
        out,
        "completed {}/{} calls ({degraded} degraded, {attempts} attempts)",
        outcomes.len(),
        batch.len()
    )?;
    let tripped = mgr.tripped_devices();
    if tripped.is_empty() {
        writeln!(out, "tripped devices: none")?;
    } else {
        writeln!(out, "tripped devices: {}", tripped.join(", "))?;
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
    writeln!(
        out,
        "reschedule: makespan {:.1} us on {}/{} workers, mode={}",
        run.makespan_us,
        workers.len() - run.excluded_workers.len(),
        workers.len(),
        if run.degraded { "degraded" } else { "healthy" }
    )?;

    let snapshot = everest_telemetry::metrics().snapshot();
    writeln!(out, "counters:")?;
    for name in
        ["offload.completed", "offload.retries", "offload.breaker.open", "offload.fallbacks"]
    {
        writeln!(out, "  {:<24} {}", name, snapshot.counter(name))?;
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
fn cmd_serve(args: &Args, out: &mut dyn Write) -> CmdResult {
    use everest::apps::traffic::serve::{LoadGen, ServeConfig, ServeTier, ShedPolicy};
    use everest::apps::traffic::{generate_fcd, RoadNetwork, SpeedProfiles};

    let policy: ShedPolicy = args.value::<String>("--policy").parse()?;
    let (shards, seed, jobs) = (args.value("--shards"), args.value("--seed"), args.jobs());
    let (queue_depth, duration_s) = (args.value("--queue-depth"), args.value("--duration"));
    let max_queries = args.value("--queries");
    let network = RoadNetwork::grid(2026, 8, 1.0);
    let fcd = generate_fcd(&network, 7, 40_000);
    let profiles = SpeedProfiles::learn(&network, &fcd);
    let generator = LoadGen::new(&network, &profiles, 48, seed);

    let config = ServeConfig { seed, jobs, queue_depth, policy, ..ServeConfig::new(shards) };
    let tier = ServeTier::new(network, profiles, config);
    // Day 0 warms the caches, day 1 measures the steady-state mixed
    // hit/miss capacity; the sweep then serves fresh days 2..4 without
    // a cold restart, like a long-running tier.
    let cold_capacity = tier.calibrate(&generator, 0, 2_000);
    let capacity = tier.calibrate(&generator, 1, 2_000);
    writeln!(
        out,
        "serve tier: {shards} shards x {} vnodes, queue depth {queue_depth} ({policy}), \
         jobs={jobs}",
        config.vnodes
    )?;
    writeln!(
        out,
        "calibrated capacity: cold {cold_capacity:.0} q/s, warm {capacity:.0} q/s (virtual)"
    )?;
    writeln!(
        out,
        "{:>6}  {:>10}  {:>8}  {:>6}  {:>6}  {:>8}  {:>8}  {:>8}",
        "load", "offered", "served", "shed", "reject", "p50_us", "p95_us", "p99_us"
    )?;
    for (day, mult) in [0.5f64, 1.0, 2.0].into_iter().enumerate() {
        let offered = mult * capacity;
        let workload = generator.generate(2 + day as u64, offered, duration_s, max_queries);
        let report = tier.run(&workload);
        let shed: u64 = report.shards.iter().map(|s| s.shed).sum();
        let rejected: u64 = report.shards.iter().map(|s| s.rejected).sum();
        writeln!(out,
            "{mult:>5.2}x  {offered:>10.0}  {:>8}  {shed:>6}  {rejected:>6}  {:>8.1}  {:>8.1}  {:>8.1}",
            report.served(),
            report.latency.p50(),
            report.latency.p95(),
            report.latency.p99()
        )?;
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
fn cmd_route(args: &Args, out: &mut dyn Write) -> CmdResult {
    use everest::apps::traffic::service::{PtdrService, RouteQuery};
    use everest::apps::traffic::{
        generate_fcd, random_od, shortest_route, RoadNetwork, SpeedProfiles,
    };

    let (queries, samples, jobs) = (args.value("--queries"), args.value("--samples"), args.jobs());
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
    writeln!(
        out,
        "ptdr service: 8x8 grid, {} routes, {queries} queries x {samples} samples, jobs={jobs}",
        routes.len()
    )?;
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
        writeln!(
            out,
            "{phase}: {:>8.2} ms  {:>9.1} queries/s  cache {hits}h/{misses}m ({:.0}% hit)  \
             worst p95 {:.3} h",
            wall * 1e3,
            queries as f64 / wall.max(1e-12),
            hit_rate * 100.0,
            slowest
        )?;
    }
    Ok(0)
}
