//! Command-line entry point of the benchmark; see the library docs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod workloads;

use perfbench::metrics::{end_to_end, per_layer, result_line};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{ingest, lsm_read, Args};

/// The workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["lsm_many_small", "lsm_few_large", "lsm_ingest_compact"];

/// Environment variables that change the measured program or its size.
/// `BLOOMRF_KERNEL` overrides the probe-kernel tier; `QUICK` and `SCALE`
/// shrink the repository's experiment binaries and must not leak into a
/// benchmark run.
const FORBIDDEN_ENV: [&str; 3] = ["BLOOMRF_KERNEL", "QUICK", "SCALE"];

fn parse_args() -> Result<(String, Args), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds < 2 {
        return Err("--seconds must be at least 2".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let work_dir = work_dir()?;
    Ok((
        workload,
        Args {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            work_dir,
        },
    ))
}

/// Scratch space for durable stores and trace files: under the build
/// directory (`CARGO_TARGET_DIR`, else `perfbench/target`), so a run reads
/// and writes only inside the checkout it runs from.
fn work_dir() -> Result<PathBuf, String> {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    let dir = base.join("perfbench-run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo`.
fn filesystem_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|&f| f == "-") else {
            continue;
        };
        let (Some(mount_point), Some(fs)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount_point)
            && best.as_ref().is_none_or(|(l, _)| mount_point.len() >= *l)
        {
            best = Some((mount_point.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The L2 cache size as the kernel reports it for CPU 0.
fn l2_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run() -> Result<String, String> {
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; it changes the measured program or its size, so the benchmark refuses to run"
            ));
        }
    }
    let (workload, args) = parse_args()?;
    let outcome = match workload.as_str() {
        "lsm_many_small" => lsm_read::run(&lsm_read::MANY_SMALL, &args),
        "lsm_few_large" => lsm_read::run(&lsm_read::FEW_LARGE, &args),
        "lsm_ingest_compact" => ingest::run(&args),
        _ => unreachable!("workload names are checked in parse_args"),
    }?;

    let mut info = vec![
        ("workload".to_string(), workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        (
            "kernel_tier".to_string(),
            format!("{:?}", bloomrf::KernelTier::detect()),
        ),
        (
            "nproc".to_string(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("l2".to_string(), l2_size()),
        ("work_dir_fs".to_string(), filesystem_type(&args.work_dir)),
    ];
    info.extend(outcome.info);
    let fields: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    println!("{{\"info\": {{{}}}}}", fields.join(", "));

    let (defs, missing_is_zero) = if args.trace {
        (per_layer(), true)
    } else {
        (end_to_end(), false)
    };
    result_line(
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        &defs,
        &outcome.values,
        missing_is_zero,
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
