//! Runs one workload and prints its result as the last line of standard
//! output:
//!
//! ```text
//! perfbench --workload <wire-read-hot|embedded-cold|mixed-wire> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
//! per-layer ledger instead and writes its spans to `--spans-dir`. The
//! line before the result holds the run's conditions: CPUs, shards, seed,
//! host CPU steal, generator lateness, sample counts and failures by kind.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use perfbench::drive::{run_window, set_up_repeatedly, Run, Window};
use perfbench::ledger;
use perfbench::spec::Workload;
use perfbench::stats::{median, p50, p50_p99};
use perfbench::sys;
use perfbench::trace::Tracer;
use perfbench::Metric;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Sub-windows a run is measured in; each gated median latency and rate
/// is the median of its values over them.
const SUB_WINDOWS: usize = 10;
/// Shortest run that leaves ten samples beyond the p99 of `mixed-wire`'s
/// open-loop writes.
const MIN_SECONDS: u64 = 4;

/// Named JSON values describing a run.
type Conditions = Vec<(&'static str, String)>;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_dir) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans-dir" => spans_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds < MIN_SECONDS {
        return Err(format!("--seconds must be at least {MIN_SECONDS}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        spans_dir,
    })
}

/// Measures the live heap bytes per tuple of the built store in a
/// separate process, whose counting allocator the timed runs do without.
fn footprint(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe.with_file_name("footprint"))
        .args([workload.name(), &seed.to_string()])
        .output()
        .map_err(|e| format!("cannot run the footprint probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "the footprint probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|_| format!("the footprint probe printed {text:?}"))
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

fn json_metric(m: &Metric) -> String {
    format!(
        "{{\"value\": {}, \"unit\": {}}}",
        json_number(m.value),
        json_string(m.unit)
    )
}

fn json_list(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// The gated end-to-end metrics, with the run conditions that go with
/// them: each sub-window's values and the ungated metrics.
///
/// Each latency median and rate is the median of its values over the
/// run's sub-windows, so a burst of host steal in a few of them does not
/// move it. The 99th percentiles are taken over the whole run, which must
/// leave ten samples beyond each. Tails and wall-clock rates are printed
/// with the conditions but not gated: host CPU steal moves them run to
/// run by more than the largest bound a gate may have (see README.md).
fn end_to_end(
    windows: &[Window],
    setup_s: f64,
    bytes_per_tuple: f64,
) -> Result<(Vec<Metric>, Conditions), String> {
    const GATED: usize = 3;
    let columns = [
        ("read_p50_us", "us"),
        ("write_p50_us", "us"),
        ("ops_per_cpu_s", "1/s"),
        ("read_probes_per_s", "1/s"),
        ("write_edits_per_s", "1/s"),
        ("steal_share", "1"),
    ];
    let mut per_window: Vec<[f64; 6]> = Vec::with_capacity(windows.len());
    for w in windows {
        per_window.push([
            p50(&mut w.read_us.clone(), "read latency")?,
            p50(&mut w.write_us.clone(), "write latency")?,
            (w.probes + w.edits) as f64 / w.usage.cpu_s,
            w.probes as f64 / w.read_secs,
            w.edits as f64 / w.write_secs,
            w.steal,
        ]);
    }
    let column = |i: usize| per_window.iter().map(|v| v[i]).collect::<Vec<_>>();
    let table = columns
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let values = json_list(column(i).into_iter().map(json_number));
            format!("{}: {values}", json_string(name))
        })
        .collect::<Vec<_>>()
        .join(", ");
    let mut metrics: Vec<Metric> = columns
        .iter()
        .enumerate()
        .take(columns.len() - 1)
        .map(|(i, &(name, unit))| Metric {
            name,
            value: median(&mut column(i)),
            unit,
        })
        .collect();
    let ungated = metrics.split_off(GATED);
    metrics.push(Metric {
        name: "setup_s",
        value: setup_s,
        unit: "s",
    });
    metrics.push(Metric {
        name: "store_bytes_per_tuple",
        value: bytes_per_tuple,
        unit: "B",
    });

    let mut extra: Vec<String> = ungated
        .iter()
        .map(|m| format!("{}: {}", json_string(m.name), json_metric(m)))
        .collect();
    let samples =
        |f: fn(&Window) -> &Vec<f64>| windows.iter().flat_map(move |w| f(w).iter().copied());
    for (name, mut all) in [
        ("read_p99_us", samples(|w| &w.read_us).collect::<Vec<_>>()),
        ("write_p99_us", samples(|w| &w.write_us).collect()),
    ] {
        let n = all.len();
        let (_, p99) = p50_p99(&mut all, name)?;
        extra.push(format!(
            "{}: {{\"value\": {}, \"unit\": \"us\", \"samples\": {n}}}",
            json_string(name),
            json_number(p99)
        ));
    }
    Ok((
        metrics,
        vec![
            ("sub_windows", format!("{{{table}}}")),
            ("ungated", format!("{{{}}}", extra.join(", "))),
        ],
    ))
}

fn run(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let workload = args.workload;
    eprintln!(
        "perfbench: generating {} inputs from seed {}",
        workload.name(),
        args.seed
    );
    let mut run = Run::new(workload, args.seed, args.seconds);
    let secs = args.seconds as f64;
    let mut conditions = Conditions::new();

    let (mut rig, setups) = set_up_repeatedly(
        workload,
        &run.inputs.base,
        if args.trace { 1 } else { SETUPS },
    )?;
    let ticks0 = sys::cpu_ticks();
    let metrics = if args.trace {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        eprintln!("perfbench: traced run of {}", workload.name());
        let a = run_window(&mut run, &mut rig, secs / 4.0, None);
        let b = run_window(&mut run, &mut rig, secs / 4.0, Some(&mut tracer));
        let layers = ledger::measure(&mut run, &mut rig, secs / 20.0, &mut tracer, (&a, &b))?;
        if let Some(dir) = &args.spans_dir {
            let path = dir.join(format!("{}-seed{}.tsv", workload.name(), args.seed));
            tracer
                .write_tsv(&path)
                .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
            conditions.push(("spans", json_string(&path.display().to_string())));
        }
        conditions.push(("read_samples", b.read_us.len().to_string()));
        conditions.push(("max_lateness_us", json_number(b.max_lateness_us)));
        layers
    } else {
        let setup_s = median(&mut setups.clone());
        let bytes_per_tuple = footprint(workload, args.seed)?;
        eprintln!(
            "perfbench: measuring {} for {} s",
            workload.name(),
            args.seconds
        );
        let windows: Vec<Window> = (0..SUB_WINDOWS)
            .map(|_| {
                let secs = secs / SUB_WINDOWS as f64;
                run_window(&mut run, &mut rig, secs, None)
            })
            .collect();
        let samples = |f: fn(&Window) -> usize| json_list(windows.iter().map(|w| f(w).to_string()));
        conditions.push(("read_samples", samples(|w| w.read_us.len())));
        conditions.push(("write_samples", samples(|w| w.write_us.len())));
        let lateness = windows
            .iter()
            .map(|w| w.max_lateness_us)
            .fold(0.0, f64::max);
        conditions.push(("max_lateness_us", json_number(lateness)));
        let setup_samples = json_list(setups.iter().map(|s| json_number(*s)));
        conditions.push(("setup_samples_s", setup_samples));
        let (metrics, mut more) = end_to_end(&windows, setup_s, bytes_per_tuple)?;
        conditions.append(&mut more);
        metrics
    };
    let steal = match (ticks0, sys::cpu_ticks()) {
        (Some(a), Some(b)) => json_number(sys::steal_share(a, b)),
        _ => "null".into(),
    };

    if run.tally.write_outcome_unknown {
        conditions.push((
            "store_check",
            json_string("skipped: a write's outcome is unknown"),
        ));
    } else {
        match run.oracle.matches_store(&rig.store) {
            Ok(()) => conditions.push(("store_check", json_string("passed"))),
            Err(e) => run.tally.mismatch(format!("final store: {e}")),
        }
    }
    rig.shut_down();

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let failures = run
        .tally
        .failures
        .iter()
        .map(|(k, n)| format!("{}: {n}", json_string(k)))
        .collect::<Vec<_>>()
        .join(", ");
    let mut head = vec![
        ("workload", json_string(workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("cpus", cpus.to_string()),
        ("shards", sharded::default_shard_count().to_string()),
        ("steal_share", steal),
        (
            "failed_ratio",
            json_number(run.tally.failed() as f64 / run.tally.attempted.max(1) as f64),
        ),
        ("failures", format!("{{{failures}}}")),
        ("mismatches", run.tally.mismatches.to_string()),
        (
            "mismatch_examples",
            json_list(run.tally.examples.iter().map(|e| json_string(e))),
        ),
        ("wall_s", json_number(started.elapsed().as_secs_f64())),
    ];
    head.append(&mut conditions);
    let fields = |pairs: &[(&str, String)]| {
        pairs
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("{{\"conditions\": {{{}}}}}", fields(&head));
    let correct = run.tally.mismatches == 0;
    let metrics = metrics
        .iter()
        .map(|m| format!("{}: {}", json_string(m.name), json_metric(m)))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.tally.attempted.max(1),
        run.tally.failed()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: a correctness check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
