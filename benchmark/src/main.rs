//! Command line of the benchmark.
//!
//! ```text
//! share-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>   one workload (driver form)
//! share-benchmark run   [--seed <n>] [--seconds <n>]    all workloads, untraced; writes result.json
//! share-benchmark trace [--seed <n>] [--seconds <n>]    all workloads, traced; writes result_trace.json
//! share-benchmark compare A.json B.json [--spec BENCHMARK.json]
//! share-benchmark spec                                  print BENCHMARK.json
//! ```
//!
//! `--out <dir>` (default `benchmark/out`) is where result and trace files go.

use share_benchmark::compare::compare;
use share_benchmark::run::{run_traced, run_untraced};
use share_benchmark::spec::{self, DEFAULT_SEED, HELD_OUT_SEED, RUN_SECONDS, WORKLOADS};
use share_telemetry::json::{count, parse, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    spec: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        let number = |flag: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{v}`"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => args.trace = number("--trace", value("--trace")?)? != 0,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--spec" => args.spec = PathBuf::from(value("--spec")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(a),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds must be 1..=60, got {}", args.seconds));
    }
    Ok(args)
}

/// Run one workload in this process; the driver form.
fn one_workload(args: &Args, name: &str) -> Result<bool, String> {
    let w = spec::workload(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; the workloads are {names:?}")
    })?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let result = if args.trace {
        run_traced(w, args.seed, args.seconds, &args.out)
    } else {
        run_untraced(w, args.seed, args.seconds)
    };
    result.print();
    let file = args.out.join(format!(
        "{}{}.json",
        name,
        if args.trace { "_trace" } else { "" }
    ));
    std::fs::write(&file, result.to_json().render())
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("{}", result.driver_line());
    Ok(result.correct())
}

fn metric(doc: &Json, workload: &str, name: &str) -> Result<f64, String> {
    doc.get(workload)
        .and_then(|w| w.get("metrics")?.get(name)?.get("value")?.as_f64())
        .ok_or_else(|| format!("{workload} reported no {name}"))
}

/// Run every workload, each in a child process of this binary (so peak RSS
/// is per workload and the code path is the driver's), merge their result
/// files, and apply the cross-workload guards.
fn all_workloads(args: &Args, traced: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    println!(
        "seed {} ({DEFAULT_SEED} is the default; a claim must also hold on the held-out seed {HELD_OUT_SEED})",
        args.seed
    );
    let mut merged = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .status()
            .map_err(|e| format!("spawning {}: {e}", w.name))?;
        ok &= status.success();
        let file = args.out.join(format!(
            "{}{}.json",
            w.name,
            if traced { "_trace" } else { "" }
        ));
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        merged.push((
            w.name,
            parse(&text).map_err(|e| format!("{}: {e}", file.display()))?,
        ));
    }
    let workloads = Json::obj(merged);
    let get = |w: &str, m: &str| metric(&workloads, w, m);
    if traced {
        // ftl.wall_share is the cap on what an FTL/NAND speed-up can save:
        // it must be highest where nothing sits above the device, and the
        // workload that fits in cache must send the device the fewest
        // commands.
        for w in WORKLOADS.iter().map(|w| w.name) {
            if get(w, "ftl.wall_share")? > get("ftl_churn", "ftl.wall_share")? {
                println!("GUARD FAILED: ftl.wall_share of {w} exceeds ftl_churn's");
                ok = false;
            }
            if get(w, "ftl.cmds_per_op")? < get("linkbench_cached", "ftl.cmds_per_op")? {
                println!("GUARD FAILED: {w} sends the device fewer commands per op than linkbench_cached");
                ok = false;
            }
        }
    } else {
        // The paper's shape: SHARE beats the double-write buffer on the
        // same inputs, in throughput and in bytes written.
        let tput =
            get("linkbench_share", "sim_ops_per_s")? / get("linkbench_dwb", "sim_ops_per_s")?;
        let wamp =
            get("linkbench_share", "host_write_amp")? / get("linkbench_dwb", "host_write_amp")?;
        println!("paper-shape guard: linkbench_share / linkbench_dwb  sim_ops_per_s {tput:.3}x (need >= 1.5), host_write_amp {wamp:.3}x (need <= 0.65)");
        if tput < 1.5 || wamp > 0.65 {
            println!(
                "GUARD FAILED: SHARE does not beat the double-write buffer by the paper's margin"
            );
            ok = false;
        }
    }
    let doc = Json::obj(vec![
        ("seed", count(args.seed)),
        ("seconds", count(args.seconds)),
        ("workloads", workloads),
    ]);
    let file = args.out.join(if traced {
        "result_trace.json"
    } else {
        "result.json"
    });
    std::fs::write(&file, doc.render()).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("wrote {}", file.display());
    Ok(ok)
}

fn dispatch(args: &Args) -> Result<bool, String> {
    if let Some(name) = &args.workload {
        return one_workload(args, name);
    }
    match args.positional.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["run"] => all_workloads(args, false),
        ["trace"] => all_workloads(args, true),
        ["compare", a, b] => compare(Path::new(a), Path::new(b), &args.spec),
        ["spec"] => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        other => Err(format!(
            "usage: --workload <name> --seed <n> --seconds <n> --trace <0|1> | run | trace | compare A.json B.json | spec (got {other:?})"
        )),
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("share-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
