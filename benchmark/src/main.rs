//! The EVEREST reproduction's benchmark: five workloads over the whole
//! stack, end-to-end and per-layer metrics, and a traced run. See
//! `README.md` beside this package and `BENCHMARK.json` at the root.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (the driver's form)
//! benchmark [--seed <n>] [--seconds <s>] [--trace] [--quick] [--full]  every workload, each in a child
//! benchmark compare <a.json> <b.json>                                  verdict per (workload, metric)
//! ```

mod compare;
mod harness;
mod manifest;
mod measure;
mod probes;
mod provenance;
mod suite;
mod sweep;
mod trace;
mod workloads;

use harness::Options;
use workloads::cascade_e2e::Cascade;
use workloads::dse_sweep::Sweep;
use workloads::runtime_mix::RuntimeMix;
use workloads::serve::Serve;

/// Version of the result, detail and trace file layouts.
pub const SCHEMA_VERSION: u64 = 1;
pub const DEFAULT_SEED: u64 = 2026;
/// The workloads, in the order `run.sh` runs them. Later issues cite
/// these names.
pub const WORKLOADS: [&str; 5] =
    ["cascade_e2e", "dse_sweep", "runtime_mix", "serve_cold", "serve_hot"];

fn run_workload(name: &str, opts: &Options) -> Result<(), String> {
    match name {
        "cascade_e2e" => harness::run::<Cascade>("cascade_e2e", opts),
        "dse_sweep" => harness::run::<Sweep>("dse_sweep", opts),
        "runtime_mix" => harness::run::<RuntimeMix>("runtime_mix", opts),
        "serve_cold" => harness::run::<Serve<false>>("serve_cold", opts),
        "serve_hot" => harness::run::<Serve<true>>("serve_hot", opts),
        other => Err(format!("unknown workload '{other}' (one of {WORKLOADS:?})")),
    }
}

/// Command-line flags: `--name value` pairs and bare switches.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            Some(text) => text.parse().map_err(|_| format!("{flag}: cannot read '{text}'")),
            None => Ok(default),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn dispatch(args: Args) -> Result<(), String> {
    match args.0.first().map(String::as_str) {
        Some("compare") => match &args.0[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: benchmark compare <a.json> <b.json>".into()),
        },
        _ => {
            let quick = args.switch("--quick");
            let mut opts = Options {
                seed: args.parsed("--seed", DEFAULT_SEED)?,
                seconds: match args.value("--seconds") {
                    Some(text) => {
                        text.parse().map_err(|_| format!("--seconds: cannot read '{text}'"))?
                    }
                    None if quick => 0.0,
                    None => manifest::Declared::load()?.run_seconds,
                },
                trace: false,
                quick,
                full: args.switch("--full"),
                detail: args.value("--detail").map(str::to_owned),
            };
            match args.value("--workload") {
                Some(name) => {
                    opts.trace = args.parsed::<u8>("--trace", 0)? != 0;
                    run_workload(name, &opts)
                }
                None => suite::run(&opts, args.switch("--trace")),
            }
        }
    }
}

fn main() {
    if let Err(message) = dispatch(Args(std::env::args().skip(1).collect())) {
        eprintln!("benchmark: {message}");
        std::process::exit(1);
    }
}
