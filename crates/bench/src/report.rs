//! The one harness under the machine-readable `*_json` benchmarks: knobs,
//! timing, JSON rows and documents, gates, and the closed-loop serving
//! mix.
//!
//! Every binary is keyed by one environment prefix, e.g. `AXIOM_QUERY`:
//!
//! * `<PREFIX>_PROFILE` — `quick` (CI smoke) or `thorough` (default; the
//!   numbers checked into the repository);
//! * `<PREFIX>_OUT` — output path (default `BENCH_<name>.json`, `<name>`
//!   being the lower-cased prefix after `AXIOM_`; `-` for stdout only);
//! * `<PREFIX>_GATE` — when set, run the binary's gates and exit nonzero
//!   if any of them fails;
//! * `<PREFIX>_<BOUND>` — each gate's threshold, read with [`Bench::knob`].
//!
//! Every document carries the same header (`schema`, `profile`, `seed`
//! when the workload is seeded, `cpus`, then a free-text note) followed by
//! one `results` row per line, so [`read_baseline`] can read a checked-in
//! document back without a general JSON parser.

use std::collections::HashMap;
use std::fmt::{Display, Write as _};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use workloads::concurrent::round_robin;
use workloads::timing::{measure, BenchOptions};

/// Reads environment variable `name` as a `T`, falling back to `default`
/// when it is unset or does not parse.
pub fn knob<T: FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Logical CPUs available to this process (recorded in every header).
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One benchmark binary's knobs and output, read from the environment
/// under its prefix (see the module docs).
#[derive(Debug, Clone)]
pub struct Bench {
    prefix: &'static str,
    /// `<PREFIX>_PROFILE`, as given (default `thorough`).
    profile: String,
    /// `<PREFIX>_GATE`, when set.
    pub gate: Option<String>,
}

impl Bench {
    /// Reads the prefix's profile and gate knobs.
    pub fn from_env(prefix: &'static str) -> Bench {
        let var = |suffix: &str| std::env::var(format!("{prefix}_{suffix}"));
        Bench {
            prefix,
            profile: var("PROFILE").unwrap_or_else(|_| "thorough".into()),
            gate: var("GATE").ok(),
        }
    }

    /// True for the `quick` (CI smoke) profile.
    pub fn quick(&self) -> bool {
        self.profile == "quick"
    }

    /// [`knob`] `<PREFIX>_<name>`.
    pub fn knob<T: FromStr>(&self, name: &str, default: T) -> T {
        knob(&format!("{}_{name}", self.prefix), default)
    }

    /// The document header: `schema`, `profile`, `seed` (if any) and
    /// `cpus`. Append the note field before passing it to [`Bench::emit`].
    pub fn header(&self, schema: &str, seed: Option<u64>) -> Row {
        let header = Row::new()
            .str("schema", schema)
            .str("profile", &self.profile);
        let header = match seed {
            Some(seed) => header.int("seed", seed as usize),
            None => header,
        };
        header.int("cpus", cpus())
    }

    /// Prints the document and writes it to `<PREFIX>_OUT`.
    pub fn emit(&self, header: &Row, results: &[Row]) {
        let json = document(header, results);
        print!("{json}");
        let default = format!(
            "BENCH_{}.json",
            self.prefix.trim_start_matches("AXIOM_").to_lowercase()
        );
        let out = knob(&format!("{}_OUT", self.prefix), default);
        if out != "-" {
            std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
            eprintln!("wrote {out}");
        }
    }
}

/// Best-of-`reps` wall time of `f`, in ns (result black-boxed).
pub fn best_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Median wall time of `reps` runs of `f`, in ns (no warmup).
pub fn median_ns<R>(reps: usize, f: impl FnMut() -> R) -> f64 {
    let once = BenchOptions {
        warmup_iters: 0,
        measure_iters: reps,
        inner_reps: 1,
    };
    measure(&once, f).median_ns
}

/// The median of `xs` (mean of the middle two for an even count; 0 for
/// none).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of ascending nanosecond samples, in µs (rounded rank;
/// 0 for no samples).
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64 / 1_000.0 // ns -> µs
}

#[derive(Debug, Clone)]
enum Value {
    Str(String),
    /// A number and the decimal places it is printed with.
    Num(f64, usize),
    Rows(Vec<Row>),
}

/// One JSON object with ordered fields, each number printed with its own
/// decimal places. Rows render on one line; a nested list of rows (see
/// [`Row::rows`]) puts each element on its own line.
#[derive(Debug, Clone, Default)]
pub struct Row {
    fields: Vec<(&'static str, Value)>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    fn with(mut self, key: &'static str, value: Value) -> Row {
        self.fields.push((key, value));
        self
    }

    /// Appends a string field.
    pub fn str(self, key: &'static str, value: &str) -> Row {
        self.with(key, Value::Str(value.into()))
    }

    /// Appends an integer field.
    pub fn int(self, key: &'static str, value: usize) -> Row {
        self.with(key, Value::Num(value as f64, 0))
    }

    /// Appends a number printed with `places` decimals.
    pub fn num(self, key: &'static str, value: f64, places: usize) -> Row {
        self.with(key, Value::Num(value, places))
    }

    /// Appends a nested list of rows.
    pub fn rows(self, key: &'static str, rows: Vec<Row>) -> Row {
        self.with(key, Value::Rows(rows))
    }

    fn field(&self, key: &str) -> &Value {
        let found = self.fields.iter().find(|(k, _)| *k == key);
        &found.unwrap_or_else(|| panic!("row has no field {key}")).1
    }

    /// The numeric field `key`, unrounded.
    pub fn get_num(&self, key: &str) -> f64 {
        match self.field(key) {
            Value::Num(x, _) => *x,
            _ => panic!("field {key} is not a number"),
        }
    }

    /// The string field `key`.
    pub fn get_str(&self, key: &str) -> &str {
        match self.field(key) {
            Value::Str(s) => s,
            _ => panic!("field {key} is not a string"),
        }
    }

    /// The nested rows under `key`.
    pub fn get_rows(&self, key: &str) -> &[Row] {
        match self.field(key) {
            Value::Rows(rows) => rows,
            _ => panic!("field {key} is not a list of rows"),
        }
    }

    /// True if every `(key, value)` of `matching` names a field of this
    /// row that prints as `value` (strings unquoted).
    pub fn matches(&self, matching: &[(&str, &str)]) -> bool {
        matching.iter().all(|&(key, want)| {
            self.fields.iter().any(|(k, value)| {
                *k == key
                    && match value {
                        Value::Str(s) => s == want,
                        Value::Num(x, places) => format!("{x:.places$}") == want,
                        Value::Rows(_) => false,
                    }
            })
        })
    }

    /// Renders the row on one line behind `indent` spaces.
    fn render(&self, indent: usize, out: &mut String) {
        let _ = write!(out, "{:indent$}{{", "");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{key}\": ");
            value.render(indent, out);
        }
        out.push('}');
    }
}

impl Value {
    /// Renders the value inside a line indented by `indent` spaces.
    fn render(&self, indent: usize, out: &mut String) {
        match self {
            Value::Str(s) => {
                let _ = write!(out, "{s:?}");
            }
            Value::Num(x, places) => {
                let _ = write!(out, "{x:.places$}");
            }
            Value::Rows(rows) => render_rows(rows, indent, out),
        }
    }
}

/// Renders a list of rows, one per line, inside a line indented by
/// `indent` spaces.
fn render_rows(rows: &[Row], indent: usize, out: &mut String) {
    out.push_str("[\n");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        row.render(indent + 2, out);
    }
    let _ = write!(out, "\n{:indent$}]", "");
}

/// The first of `rows` that [`Row::matches`] `matching`.
///
/// # Panics
///
/// Panics if there is none.
pub fn find<'a>(rows: &'a [Row], matching: &[(&str, &str)]) -> &'a Row {
    let found = rows.iter().find(|row| row.matches(matching));
    found.unwrap_or_else(|| panic!("no row matches {matching:?}"))
}

/// The JSON document: the header's fields one per line, then `results`.
fn document(header: &Row, results: &[Row]) -> String {
    let mut out = String::from("{\n");
    for (key, value) in &header.fields {
        let _ = write!(out, "  \"{key}\": ");
        value.render(2, &mut out);
        out.push_str(",\n");
    }
    out.push_str("  \"results\": ");
    render_rows(results, 2, &mut out);
    out.push_str("\n}\n");
    out
}

/// Reads the result rows of a checked-in document: every line carrying
/// all of `fields` becomes a row of them. Robust against field
/// reordering, but intentionally not a general JSON parser.
///
/// # Panics
///
/// Panics if `path` cannot be read or holds no such row.
pub fn read_baseline(path: &str, fields: &[&'static str]) -> Vec<Row> {
    fn str_field(line: &str, name: &str) -> Option<Value> {
        let tag = format!("\"{name}\": \"");
        let start = line.find(&tag)? + tag.len();
        let end = line[start..].find('"')? + start;
        Some(Value::Str(line[start..end].to_string()))
    }
    fn num_field(line: &str, name: &str) -> Option<Value> {
        let tag = format!("\"{name}\": ");
        let start = line.find(&tag)? + tag.len();
        let rest = &line[start..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        let places = rest[..end].split_once('.').map_or(0, |(_, d)| d.len());
        Some(Value::Num(rest[..end].parse().ok()?, places))
    }
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading baseline {path}: {e}"));
    let rows: Vec<Row> = text
        .lines()
        .filter_map(|line| {
            let fields = fields.iter().map(|&name| {
                Some((
                    name,
                    str_field(line, name).or_else(|| num_field(line, name))?,
                ))
            });
            Some(Row {
                fields: fields.collect::<Option<_>>()?,
            })
        })
        .collect();
    assert!(!rows.is_empty(), "baseline {path} holds no result rows");
    rows
}

/// Collects gate checks and fails the process once, at the end.
#[derive(Debug, Default)]
pub struct Gate {
    failures: usize,
}

impl Gate {
    /// Records one check, logging `what` as passed or failed.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        if ok {
            eprintln!("gate ok: {what}");
        } else {
            eprintln!("GATE FAILED: {what}");
            self.failures += 1;
        }
    }

    /// The cross-run gate: every row of `rows` that a `baseline` row
    /// matches on all of its fields except `metric` must keep `metric`
    /// within `factor` times the baseline's. Logs only failures and a
    /// summary.
    ///
    /// # Panics
    ///
    /// Panics if no row matches the baseline at all.
    pub fn within_baseline(&mut self, rows: &[Row], baseline: &[Row], metric: &str, factor: f64) {
        // A row's identity: the baseline's other fields, rendered.
        let keys: Vec<&'static str> = baseline[0].fields.iter().map(|(key, _)| *key).collect();
        let id = |row: &Row| {
            let fields = keys.iter().filter(|&&key| key != metric);
            let mut out = String::new();
            Row {
                fields: fields.map(|&key| (key, row.field(key).clone())).collect(),
            }
            .render(0, &mut out);
            out
        };
        let base: HashMap<String, f64> = baseline
            .iter()
            .map(|row| (id(row), row.get_num(metric)))
            .collect();
        let mut compared = 0;
        for row in rows {
            let Some(&then) = base.get(&id(row)) else {
                continue;
            };
            compared += 1;
            let now = row.get_num(metric);
            if now > then * factor {
                let what = format!("{}: {metric} {now:.1} vs baseline {then:.1}", id(row));
                self.check(false, format!("{what} (allowed x{factor:.2})"));
            }
        }
        assert!(compared > 0, "the baseline shares no rows with this run");
        eprintln!("gate compared {compared} rows against the baseline (x{factor:.2})");
    }

    /// True while no check has failed.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }

    /// Exits the process with status 1 if any check failed.
    pub fn finish(self) {
        if !self.passed() {
            eprintln!("{} gate check(s) failed", self.failures);
            std::process::exit(1);
        }
    }
}

/// What one closed-loop mix measured (see [`closed_loop`]).
#[derive(Debug, Clone)]
pub struct MixRun {
    /// Wall time of the run, in seconds.
    pub secs: f64,
    /// Every read's end-to-end latency, ascending, in ns.
    pub latencies: Vec<u64>,
    /// Edits the writer reported.
    pub edits: usize,
}

impl MixRun {
    /// The `q`-quantile read latency, in µs.
    pub fn p_us(&self, q: f64) -> f64 {
        percentile(&self.latencies, q)
    }

    /// `count` events over the run, per second.
    pub fn per_sec(&self, count: usize) -> f64 {
        count as f64 / self.secs
    }
}

/// Drives a closed-loop read/write mix for at least `min_secs`: `readers`
/// threads each build a reader with `reader` and replay their round-robin
/// share of `script` through it, timing every call, while the calling
/// thread runs `write` (one pass of the writer's work, returning the edits
/// it made) until the time is up. The readers stop after the writer's
/// last pass.
pub fn closed_loop<Q, R, T>(
    readers: usize,
    script: &[Q],
    min_secs: f64,
    reader: impl Fn() -> R + Sync,
    mut write: impl FnMut() -> usize,
) -> MixRun
where
    Q: Clone + Sync,
    R: FnMut(Q) -> T,
{
    let lanes = round_robin(script, readers);
    let done = AtomicBool::new(false);
    let mut edits = 0;
    let start = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let (reader, done) = (&reader, &done);
        let threads: Vec<_> = lanes
            .iter()
            .map(|lane| {
                scope.spawn(move || {
                    let mut read = reader();
                    let mut local = Vec::new();
                    for ops in lane.iter().cycle() {
                        if done.load(Ordering::Relaxed) {
                            break;
                        }
                        let ops = Q::clone(ops);
                        let t = Instant::now();
                        std::hint::black_box(read(ops));
                        local.push(t.elapsed().as_nanos() as u64);
                    }
                    local
                })
            })
            .collect();
        while start.elapsed().as_secs_f64() < min_secs {
            edits += write();
        }
        done.store(true, Ordering::Relaxed);
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("reader panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    MixRun {
        secs,
        latencies,
        edits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_reader_parses_the_checked_in_query_rows() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json");
        let rows = read_baseline(path, &["impl", "op", "keys", "median_ns"]);
        assert_eq!(rows.len(), 36);
        let first = &rows[0];
        assert_eq!(first.get_str("impl"), "axiom-map");
        assert_eq!(first.get_str("op"), "lookup_hit");
        assert_eq!(first.get_num("keys"), 1024.0);
        assert_eq!(first.get_num("median_ns"), 11.451);
    }

    #[test]
    fn rows_keep_field_order_and_decimal_places() {
        let row = Row::new()
            .str("impl", "axiom")
            .int("keys", 1024)
            .num("median_ns", 11.0, 3)
            .num("speedup", 2.0 / 3.0, 2)
            .num("rate", 1234.56, 0);
        let mut out = String::new();
        row.render(4, &mut out);
        assert_eq!(
            out,
            "    {\"impl\": \"axiom\", \"keys\": 1024, \"median_ns\": 11.000, \
             \"speedup\": 0.67, \"rate\": 1235}"
        );
    }

    #[test]
    fn documents_nest_rows_one_per_line() {
        let header = Row::new().str("schema", "s-v1").int("cpus", 2);
        let inner = vec![Row::new().int("shards", 1), Row::new().int("shards", 2)];
        let results = [Row::new().int("keys", 7).rows("restores", inner)];
        assert_eq!(
            document(&header, &results),
            "{\n  \"schema\": \"s-v1\",\n  \"cpus\": 2,\n  \"results\": [\n    \
             {\"keys\": 7, \"restores\": [\n      {\"shards\": 1},\n      \
             {\"shards\": 2}\n    ]}\n  ]\n}\n"
        );
    }

    #[test]
    fn a_failed_check_fails_the_gate_without_exiting() {
        let mut gate = Gate::default();
        gate.check(true, "holds");
        assert!(gate.passed());
        gate.check(false, "does not hold");
        assert!(!gate.passed());
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
        let sorted = [1_000, 2_000, 3_000, 4_000, 5_000];
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn closed_loop_runs_every_reader_until_the_writer_stops() {
        let script: Vec<u32> = (0..8).collect();
        let run = closed_loop(2, &script, 0.01, || |op: u32| op * 2, || 1);
        assert!(run.edits >= 1);
        assert!(!run.latencies.is_empty());
        assert!(run.latencies.windows(2).all(|w| w[0] <= w[1]));
    }
}
