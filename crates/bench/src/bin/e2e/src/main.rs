//! `e2e` — the repo's end-to-end benchmark. See `README.md` beside this
//! package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! e2e [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--reps N] [--quick] [--list]
//! ```
//!
//! The process given these flags is the *parent*: it generates the
//! inputs, runs every rep in a fresh child (`--child`, this same
//! executable), checks and aggregates what the children report, and
//! prints each metric by name with its unit; the last line of its
//! standard output is the result as one JSON object.

mod child;
mod inputs;
mod load;
mod replay;
mod spec;
mod stats;
mod trace;

use spec::{MetricDef, Spec, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{median, summarize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use tpcp_bench::args;

/// `--seconds` when the flag is absent; `BENCHMARK.json` `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_SEED: u64 = 11;
/// Timed reps a run makes at the least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Times the inputs are generated; `setup_s` is the median.
const SETUPS: usize = 3;

fn main() -> ExitCode {
    let outcome = if args::flag("child") {
        run_child()
    } else if args::flag("list") {
        list();
        Ok(true)
    } else {
        run_parent()
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

fn traced() -> bool {
    args::flag("trace") && args::value("trace").as_deref() != Some("0")
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("end-to-end metrics (name, unit, better, bound):");
    for m in &END_TO_END {
        println!(
            "  {:<14} {:<6} {:<6} {}",
            m.name,
            m.unit,
            better(m),
            m.bound
        );
    }
    println!("per-layer metrics (name, unit, better):");
    for m in &PER_LAYER {
        println!("  {:<32} {:<8} {}", m.name, m.unit, better(m));
    }
}

fn better(m: &MetricDef) -> &'static str {
    if m.higher {
        "higher"
    } else {
        "lower"
    }
}

fn run_child() -> Result<bool, String> {
    let name = args::value("workload").ok_or("--child needs --workload")?;
    let rep = child::RepArgs {
        spec: spec::find(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: args::value_or("seed", DEFAULT_SEED),
        dir: args::value("dir").ok_or("--child needs --dir")?.into(),
        rep: args::value_or("rep", 0),
        threads: args::value_or("threads", 1),
        slice: Duration::from_millis(args::value_or("slice-ms", 1000)),
        trace_to: args::value("trace-to").map(PathBuf::from),
    };
    child::run(&rep)?.print();
    Ok(true)
}

/// What one child printed.
type Rep = HashMap<String, String>;

fn num(rep: &Rep, key: &str) -> f64 {
    rep.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// One workload's run: its scratch directory and the reps made so far.
struct Run {
    spec: &'static Spec,
    seed: u64,
    threads: usize,
    dir: PathBuf,
    trace_to: PathBuf,
    setup_s: f64,
    slice: Duration,
    reps: Vec<Rep>,
    /// Wall time spent in this run's reps.
    spent: Duration,
}

impl Run {
    /// Generates the inputs [`SETUPS`] times; everything before the
    /// first timed rep is in `setup_s`.
    fn set_up(spec: &'static Spec, seed: u64, seconds: f64, root: &Path) -> Result<Run, String> {
        let dir =
            root.join("e2e-scratch")
                .join(format!("{}-{seed}-{}", spec.name, std::process::id()));
        let mut setups = Vec::new();
        for _ in 0..SETUPS {
            let t = Instant::now();
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            inputs::generate(spec, seed, &dir)?;
            setups.push(t.elapsed().as_secs_f64());
        }
        Ok(Run {
            spec,
            seed,
            threads: cpus().min(2),
            dir,
            trace_to: root.join("e2e-trace").join(format!("{}.json", spec.name)),
            setup_s: median(&setups),
            slice: Duration::from_secs_f64(seconds * spec.slice_share),
            reps: Vec::new(),
            spent: Duration::ZERO,
        })
    }

    /// Runs one rep in a fresh child whose environment has no `TPCP_*`
    /// variable, so that only the explicit configuration applies.
    fn rep(&mut self, threads: usize, traced: bool) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("--child")
            .args(["--workload", self.spec.name])
            .args(["--seed", &self.seed.to_string()])
            .args(["--rep", &self.reps.len().to_string()])
            .args(["--threads", &threads.to_string()])
            .args(["--slice-ms", &self.slice.as_millis().to_string()])
            .arg("--dir")
            .arg(&self.dir)
            .stdout(Stdio::piped());
        if traced {
            cmd.arg("--trace-to").arg(&self.trace_to);
        }
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("TPCP_") {
                cmd.env_remove(key);
            }
        }
        let started = Instant::now();
        let out = cmd.output().map_err(|e| e.to_string())?;
        self.spent += started.elapsed();
        if !out.status.success() {
            return Err(format!("{} rep {} failed", self.spec.name, self.reps.len()));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        self.reps.push(
            text.lines()
                .filter_map(|l| l.split_once(' '))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        );
        Ok(())
    }

    fn column(&self, key: &str) -> Vec<f64> {
        self.reps.iter().map(|r| num(r, key)).collect()
    }

    fn ops(&self) -> (u64, u64) {
        let sum = |key| self.column(key).iter().sum::<f64>() as u64;
        (sum("attempted"), sum("failed"))
    }
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_parent() -> Result<bool, String> {
    let selected: Vec<&'static Spec> = match args::value("workload") {
        Some(name) => vec![spec::find(&name).ok_or_else(|| format!("unknown workload {name}"))?],
        None => WORKLOADS.iter().collect(),
    };
    let seed = args::value_or("seed", DEFAULT_SEED);
    let seconds = args::value_or("seconds", DEFAULT_SECONDS);
    let fixed_reps = if args::flag("quick") {
        Some(1)
    } else {
        args::value("reps").and_then(|v| v.parse::<usize>().ok())
    };
    let root = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()));

    let mut runs = Vec::new();
    for spec in selected {
        runs.push(Run::set_up(spec, seed, seconds, &root)?);
    }
    let mut all_correct = true;
    if traced() {
        // An untraced rep for reference, the traced rep, and on `dense3` a
        // one-thread rep for the scaling figure; the machine's ceilings
        // after them, so that no rep starts in the microbenchmarks' wake.
        for run in &mut runs {
            run.rep(run.threads, false)?;
            run.rep(run.threads, true)?;
            if scaling_rep(run) {
                run.rep(1, false)?;
            }
        }
        let machine = replay::machine();
        for run in &runs {
            all_correct &= traced_result(run, &machine);
        }
    } else {
        // Round-robin across workloads, so that drift of this shared box
        // lands on all of them alike rather than on whichever ran last.
        loop {
            let mut any = false;
            for run in &mut runs {
                let wanted = match fixed_reps {
                    Some(n) => run.reps.len() < n,
                    None => run.reps.len() < MIN_REPS || run.spent.as_secs_f64() < seconds,
                };
                if wanted {
                    run.rep(run.threads, false)?;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        for run in &runs {
            all_correct &= untraced_result(run);
        }
    }
    for run in &runs {
        std::fs::remove_dir_all(&run.dir).map_err(|e| e.to_string())?;
    }
    Ok(all_correct)
}

fn echo_config(run: &Run) {
    println!(
        "# {}: seed {} cpus {} threads {} (TPCP_* stripped from every rep's environment)",
        run.spec.name,
        run.seed,
        cpus(),
        run.threads
    );
    match spec::config(run.spec, run.seed, run.threads, Path::new("<rep>/work")) {
        Some(cfg) => println!("# effective config: {cfg:?}"),
        None => println!("# no decomposition: the input is a ready model"),
    }
    println!(
        "# serving: {:?}, mix {:?}, hot keys {:?}, opening burst {}, slice {:?}; page-cache I/O",
        run.spec.transport, run.spec.mix, run.spec.hot_keys, run.spec.opening_burst, run.slice
    );
}

/// Prints the end-to-end metrics of an untraced run and its result line.
fn untraced_result(run: &Run) -> bool {
    echo_config(run);
    let rss_mib: Vec<f64> = run.column("rss_kib").iter().map(|k| k / 1024.0).collect();
    // What disturbs a rep's peak RSS — another allocator arena, a
    // prefetched page staged early — only ever adds to it, so the
    // smallest peak is the one reported; every timing is a median.
    let (median, smallest) = (false, true);
    let columns = [
        ("journey_s", run.column("journey_s"), median),
        ("peak_rss_mib", rss_mib, smallest),
        ("query_rps", run.column("query_rps"), median),
        ("query_p50_us", run.column("query_p50_us"), median),
        ("query_p99_us", run.column("query_p99_us"), median),
    ];
    let mut values = vec![("setup_s", run.setup_s)];
    println!(
        "{:<14} {:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>3}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "n"
    );
    println!(
        "{:<14} {:>6} {:>14.6} (median of {SETUPS} set-ups)",
        "setup_s", "s", run.setup_s
    );
    for (name, column, smallest) in &columns {
        let s = summarize(column);
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|m| m.name == *name)
            .map_or("", |m| m.unit);
        println!(
            "{name:<14} {unit:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3}",
            s.median, s.q1, s.q3, s.min, s.max, s.n
        );
        println!("#   reps: {column:.4?}");
        let reported = if *smallest { s.min } else { s.median };
        values.push((name, reported));
    }
    println!(
        "# p99: {} samples beyond it in the smallest slice, {} latency samples dropped; fit {:?}",
        run.column("p99_beyond")
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        run.column("latencies_dropped").iter().sum::<f64>(),
        run.column("fit")
    );
    let (attempted, failed) = run.ops();
    println!("ops_attempted {attempted}\nops_failed {failed}");
    let correct = failed == 0;
    result_line(correct, attempted, failed, &END_TO_END, &values);
    correct
}

/// Whether the traced run takes a one-thread rep of this workload.
fn scaling_rep(run: &Run) -> bool {
    run.spec.name == "dense3" && run.threads >= 2
}

/// Prints the per-layer metrics of a traced run and its result line.
fn traced_result(run: &Run, machine: &replay::Machine) -> bool {
    let scaling = scaling_rep(run);
    echo_config(run);
    let (plain, traced) = (&run.reps[0], &run.reps[1]);
    let mut values: HashMap<&str, f64> = PER_LAYER
        .iter()
        .map(|m| (m.name, num(traced, m.name)))
        .collect();
    let (untraced_s, traced_s) = (num(plain, "journey_s"), num(traced, "journey_s"));
    values.insert("journey.untraced_s", untraced_s);
    values.insert("journey.traced_s", traced_s);
    values.insert("bench.p99_samples_beyond", num(traced, "p99_beyond"));
    values.insert("par.cpus", cpus() as f64);
    values.insert("par.threads", run.threads as f64);
    if scaling {
        values.insert(
            "par.scaling_eff_t2",
            num(&run.reps[2], "journey_s") / (2.0 * untraced_s),
        );
    }
    values.insert("machine.stream_gbs", machine.stream_gbs);
    values.insert("machine.peak_gflops", machine.peak_gflops);
    values.insert("machine.llc_mib", machine.llc_mib);
    values.insert("machine.stream_array_mib", machine.array_mib);
    // The kernel's ceiling is the lower of the compute peak and what the
    // memory system can feed at the kernel's arithmetic intensity.
    let roof = machine
        .peak_gflops
        .min(machine.stream_gbs * values["cp.mttkrp_flops_per_byte"]);
    if roof > 0.0 {
        values.insert("cp.mttkrp_roofline_frac", values["cp.mttkrp_gflops"] / roof);
    }
    let loaded = values["partition.load_block_s"];
    if loaded > 0.0 {
        values.insert(
            "partition.load_gbs",
            values["partition.bytes_loaded"] / loaded / 1e9,
        );
    }

    for m in &PER_LAYER {
        println!("{:<32} {:>8} {:>18.6}", m.name, m.unit, values[m.name]);
    }
    let same_factors = plain.get("factors_hash") == traced.get("factors_hash");
    println!(
        "# traced factors bitwise == untraced: {same_factors}; spans in {}",
        run.trace_to.display()
    );
    let (attempted, failed) = run.ops();
    println!("ops_attempted {attempted}\nops_failed {failed}");
    let correct = failed == 0 && same_factors;
    let listed: Vec<(&str, f64)> = PER_LAYER.iter().map(|m| (m.name, values[m.name])).collect();
    result_line(correct, attempted, failed, &PER_LAYER, &listed);
    correct
}

/// The contract's result: one JSON object, the last line of the output.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[(&str, f64)],
) {
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |v| v.1);
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}
