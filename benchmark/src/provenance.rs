//! What produced a result file: machine, toolchain, source revision and
//! run parameters, stamped into every record.

use crate::harness::{Options, JOBS};
use crate::manifest::bench_dir;
use serde_json::Value;
use std::process::Command;

/// First line of a command's stdout, or `unknown` (the driver's
/// checkout, for one, is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn proc_field(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with(key))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn block(opts: &Options) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let dirty =
        match Command::new("git").args(["status", "--porcelain"]).current_dir(bench_dir()).output()
        {
            Ok(out) if out.status.success() => Value::Bool(!out.stdout.is_empty()),
            _ => Value::Null,
        };
    Value::Object(vec![
        ("schema_version".into(), Value::UInt(crate::SCHEMA_VERSION)),
        ("utc_time".into(), Value::Str(first_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"]))),
        ("nproc".into(), Value::UInt(nproc)),
        ("cpu_model".into(), Value::Str(proc_field("/proc/cpuinfo", "model name"))),
        ("ram_total".into(), Value::Str(proc_field("/proc/meminfo", "MemTotal"))),
        ("rustc".into(), Value::Str(first_line("rustc", &["--version"]))),
        (
            "cargo_profile".into(),
            Value::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ),
        ("git_rev".into(), Value::Str(first_line("git", &["rev-parse", "HEAD"]))),
        ("git_dirty".into(), dirty),
        ("jobs".into(), Value::UInt(JOBS as u64)),
        ("seed".into(), Value::UInt(opts.seed)),
        ("seconds".into(), Value::Float(opts.seconds)),
        ("quick".into(), Value::Bool(opts.quick)),
        ("traced".into(), Value::Bool(opts.trace)),
    ])
}
