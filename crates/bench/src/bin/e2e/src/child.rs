//! One rep, run in a fresh process so that its peak RSS is the
//! program's and not the input generator's: the journey from the input
//! file to verified answers, then one closed-loop slice against the
//! server the journey left running. With tracing on, the same journey
//! goes through the layers' public functions under bench-side spans and
//! the layer replays follow.

use crate::load::{self, Requests, Slice, Stop};
use crate::spec::{self, Spec};
use crate::trace::{self, span, TimedSource, TimedStore, Trace};
use crate::{inputs, replay};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcp_partition::{BlockSource, FileTensorSource, Grid};
use tpcp_serve::{Client, ModelRegistry, Opcode, ServeOptions, Server};
use tpcp_storage::DiskStore;
use twopcp::{
    accuracy::blockwise_fit_source, refine, run_phase1_source, Model, ModelMeta, TwoPcp,
    TwoPcpConfig, MODEL_EXT,
};

pub struct RepArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    /// The run's scratch directory, holding the generated input.
    pub dir: PathBuf,
    pub rep: usize,
    pub threads: usize,
    pub slice: Duration,
    /// `Some(path)`: trace this rep and write its spans there.
    pub trace_to: Option<PathBuf>,
}

/// Named values a rep hands back to the parent, one `name value` line
/// each on its standard output.
#[derive(Default)]
pub struct Report(Vec<(String, String)>);

impl Report {
    pub fn put(&mut self, name: &str, value: impl ToString) {
        self.0.push((name.to_string(), value.to_string()));
    }

    pub fn print(&self) {
        for (name, value) in &self.0 {
            println!("{name} {value}");
        }
    }
}

/// What the decomposition stage of a journey hands to the serving stage.
struct Decomposed {
    model: Model,
    fit: f64,
    /// Kept by a traced two-phase rep for the codec replay.
    replay: Option<(DiskStore, Grid)>,
}

/// A finished journey: the model made, the same model as published and
/// loaded back, and the server and connection left up for the slice.
struct Served {
    made: Decomposed,
    model_path: PathBuf,
    shared: Model,
    server: Server,
    addr: String,
    client: Client,
    /// The first `GET_ENTRY` came back bitwise equal to `Model::entry` of
    /// both the model in memory and the one loaded back.
    first_ok: bool,
    /// The rest of the opening burst, on workloads that have one.
    burst: Option<Slice>,
}

pub fn run(args: &RepArgs) -> Result<Report, String> {
    let spec = args.spec;
    let rep_dir = args.dir.join(format!("rep{}", args.rep));
    let _ = std::fs::remove_dir_all(&rep_dir);
    std::fs::create_dir_all(rep_dir.join("models")).map_err(|e| e.to_string())?;
    let input = inputs::input_path(&args.dir, spec);
    let cfg = spec::config(spec, args.seed, args.threads, &rep_dir.join("work"));
    let mut report = Report::default();
    let mut reqs = Requests::new(spec, args.seed);

    if args.trace_to.is_some() {
        trace::start();
    }
    let started = Instant::now();
    let served = span("journey", || {
        journey(args, cfg.as_ref(), &input, &rep_dir, &mut reqs, &mut report)
    });
    let journey_s = started.elapsed().as_secs_f64();
    let trace = trace::finish();
    let Served {
        made,
        model_path,
        shared,
        server,
        addr,
        mut client,
        first_ok,
        burst,
    } = served?;

    // The journey and its first answer are one operation each.
    let mut attempted = 2 + burst.as_ref().map_or(0, |b| b.attempted);
    let mut failed = u64::from(made.fit < spec.fit_floor)
        + u64::from(!first_ok)
        + burst.as_ref().map_or(0, |b| b.failed);
    report.put("journey_s", journey_s);
    report.put("fit", made.fit);
    report.put("factors_hash", factors_hash(&made.model));

    let stop = Stop::After(args.slice);
    let mut slice = load::closed_loop(spec, &mut reqs, &addr, &shared, stop)?;
    attempted += slice.attempted;
    failed += slice.failed;
    let (p50_us, p99_us, beyond) = slice.latencies.percentiles_us();
    report.put("query_rps", slice.rps());
    report.put("query_p50_us", p50_us);
    report.put("query_p99_us", p99_us);
    report.put("p99_beyond", beyond);
    report.put("latencies_dropped", slice.latencies.dropped);

    if let Some(trace_to) = &args.trace_to {
        journey_layers(&trace, journey_s, &mut report);
        // What tracing cost this journey: its spans at the measured price
        // of one. The traced and the untraced rep are both reported, but
        // one rep each cannot resolve a per-cent on a shared box.
        report.put(
            "bench.trace_overhead_pct",
            100.0 * trace.len() as f64 * trace::span_cost() / journey_s,
        );
        report.put(
            "model.file_bytes",
            std::fs::metadata(&model_path).map_or(0, |m| m.len()),
        );
        trace.write(trace_to, args.rep).map_err(|e| e.to_string())?;
        failed += serve_layers(spec, &mut reqs, &addr, &mut client, p50_us, &mut report)?;
        replay::model_calls(&shared, &mut reqs, &mut report);
        replay::router(&rep_dir.join("models"), &mut reqs, &mut report)?;
        replay::protocol(spec, &mut reqs, &mut report)?;
        if let Some((store, grid)) = &made.replay {
            replay::codec(store, grid, &mut report)?;
        }
        if let Some(cfg) = &cfg {
            replay::kernels(spec, &input, cfg, &mut report)?;
        }
    }

    drop(client);
    server.stop();
    server.join()?;
    report.put("attempted", attempted);
    report.put("failed", failed);
    report.put("rss_kib", vm_hwm_kib()?);
    let _ = std::fs::remove_dir_all(&rep_dir);
    Ok(report)
}

/// Input file → model → `.2pcpm` → loaded back → fresh registry and
/// server → the opening burst answered.
fn journey(
    args: &RepArgs,
    cfg: Option<&TwoPcpConfig>,
    input: &Path,
    rep_dir: &Path,
    reqs: &mut Requests,
    report: &mut Report,
) -> Result<Served, String> {
    let spec = args.spec;
    let made = match cfg {
        Some(cfg) if args.trace_to.is_some() => decompose_traced(spec, cfg, input, report)?,
        Some(cfg) => decompose(spec, cfg, input)?,
        None => Decomposed {
            model: span("journey.open", || Model::load(input)).map_err(|e| e.to_string())?,
            fit: 1.0,
            replay: None,
        },
    };
    let models_dir = rep_dir.join("models");
    let model_path = models_dir.join(format!("{}.{MODEL_EXT}", spec.name));
    span("model.save", || made.model.save(&model_path)).map_err(|e| e.to_string())?;
    let shared =
        span("model.load_shared", || Model::load_shared(&model_path)).map_err(|e| e.to_string())?;
    let server = span("serve.start", || start_server(&models_dir))?;
    let addr = server.local_addr().to_string();
    let coords = reqs.coords();
    let (client, first) = span("serve.first_answer", || -> Result<_, String> {
        let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
        let first = client
            .entry(spec.name, &coords)
            .map_err(|e| e.to_string())?;
        Ok((client, first))
    })?;
    let first_ok = [made.model.entry(&coords), shared.entry(&coords)]
        .iter()
        .all(|want| matches!(want, Ok(w) if w.to_bits() == first.to_bits()));
    let burst = match spec.opening_burst - 1 {
        0 => None,
        rest => Some(span("serve.opening_burst", || {
            load::closed_loop(spec, reqs, &addr, &shared, Stop::Requests(rest))
        })?),
    };
    Ok(Served {
        made,
        model_path,
        shared,
        server,
        addr,
        client,
        first_ok,
        burst,
    })
}

/// The untraced decomposition: the driver-level API only.
fn decompose(spec: &Spec, cfg: &TwoPcpConfig, input: &Path) -> Result<Decomposed, String> {
    let mut src = FileTensorSource::open(input).map_err(|e| e.to_string())?;
    let outcome = TwoPcp::new(cfg.clone())
        .decompose_source(&mut src)
        .map_err(|e| e.to_string())?;
    Ok(Decomposed {
        model: Model::from_outcome(spec.name, &outcome, cfg),
        fit: outcome.fit,
        replay: None,
    })
}

/// The traced decomposition: the same stages the driver runs, called one
/// by one through their public entry points with a timed source and a
/// timed store. The compress pipeline has one public entry, the driver,
/// so there only the source is timed.
fn decompose_traced(
    spec: &Spec,
    cfg: &TwoPcpConfig,
    input: &Path,
    report: &mut Report,
) -> Result<Decomposed, String> {
    let mut src = TimedSource(
        span("journey.open", || FileTensorSource::open(input)).map_err(|e| e.to_string())?,
    );
    if cfg.compress.is_some() {
        let driver = Instant::now();
        let outcome = span("compress", || {
            TwoPcp::new(cfg.clone()).decompose_source(&mut src)
        })
        .map_err(|e| e.to_string())?;
        // The driver reports the compression pipeline's own time; the
        // rest of its call is the exact fit.
        let fit_s = driver.elapsed().saturating_sub(outcome.phase1_time);
        report.put("accuracy.fit_s", fit_s.as_secs_f64());
        let core = outcome
            .compress
            .as_ref()
            .map(|c| c.core_shape.clone())
            .unwrap_or_default();
        report.put("compress.decompose_s", outcome.phase1_time.as_secs_f64());
        report.put("compress.core_elems", core.iter().product::<usize>());
        report.put("compress.core_iters", outcome.phase2.virtual_iterations);
        report.put(
            "compress.retained_mlrank",
            core.iter().max().copied().unwrap_or(0),
        );
        report.put("accuracy.fit", outcome.fit);
        report.put("partition.bytes_loaded", src.bytes_loaded());
        return Ok(Decomposed {
            model: Model::from_outcome(spec.name, &outcome, cfg),
            fit: outcome.fit,
            replay: None,
        });
    }

    let units = cfg.work_dir.as_ref().expect("disk work_dir").join("units");
    let mut store = TimedStore(DiskStore::open_with(units, cfg.mmap).map_err(|e| e.to_string())?);
    let phase1 = span("phase1", || run_phase1_source(&mut src, cfg, &mut store))
        .map_err(|e| e.to_string())?;
    let refining = Instant::now();
    let refined = span("phase2", || {
        refine(&phase1.grid, store, cfg, &phase1.u_norm_sq)
    })
    .map_err(|e| e.to_string())?;
    let refine_s = refining.elapsed().as_secs_f64();
    let fitting = Instant::now();
    let fit = span("fit", || {
        blockwise_fit_source(&refined.model, &phase1.grid, &mut src)
    })
    .map_err(|e| e.to_string())?;
    report.put("accuracy.fit_s", fitting.elapsed().as_secs_f64());

    let stats = &refined.stats;
    let io = &stats.io;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    report.put(
        "phase1.block_fit_min",
        phase1
            .block_fits
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
    );
    report.put("phase1.peak_block_bytes", phase1.peak_block_bytes);
    report.put("partition.bytes_loaded", src.bytes_loaded());
    report.put("phase2.virtual_iters", stats.virtual_iterations);
    let steps = stats.virtual_iterations * tpcp_schedule::virtual_iteration_len(&phase1.grid);
    report.put("phase2.step_us", refine_s * 1e6 / steps.max(1) as f64);
    report.put("phase2.q_hadamard_s", stats.q_hadamard.ns as f64 / 1e9);
    report.put("storage.stall_s", io.stall_ns as f64 / 1e9);
    report.put("storage.swaps", io.swaps());
    report.put("storage.hits", io.hits);
    report.put("storage.hit_ratio", io.hit_rate());
    report.put("storage.write_backs", io.write_backs);
    report.put("storage.bytes_read", io.bytes_read);
    report.put("storage.bytes_written", io.bytes_written);
    report.put(
        "storage.prefetch_hit_ratio",
        ratio(io.prefetch_hits, io.swaps()),
    );
    report.put(
        "schedule.swaps_per_iter",
        stats.steady_swaps_per_iteration(),
    );
    report.put("accuracy.fit", fit);

    // The artifact `Model::from_outcome` would build from these pieces.
    let meta = ModelMeta {
        name: spec.name.to_string(),
        rank: refined.model.rank(),
        dims: refined.model.dims(),
        seed: cfg.seed,
        fit,
        schedule: cfg.schedule.abbrev().to_string(),
        parts: cfg.parts.clone(),
        compress: None,
    };
    Ok(Decomposed {
        model: Model::new(meta, refined.model).map_err(|e| e.to_string())?,
        fit,
        replay: Some((refined.store.0, phase1.grid)),
    })
}

fn start_server(models_dir: &Path) -> Result<Server, String> {
    let registry = Arc::new(ModelRegistry::open(models_dir)?);
    let mut opts = ServeOptions::new(models_dir);
    opts.addr = "127.0.0.1:0".into();
    Server::start_with_registry(opts, registry).map_err(|e| e.to_string())
}

/// Per-layer figures read off the journey's spans.
fn journey_layers(trace: &Trace, journey_s: f64, report: &mut Report) {
    let loads = trace.total("partition.load_block");
    let loaded = trace.count("partition.load_block");
    report.put("partition.load_block_s", loads);
    report.put("partition.blocks_loaded", loaded);
    report.put("phase1.run_s", trace.total("phase1"));
    report.put("phase1.als_self_s", trace.self_time("phase1"));
    report.put("phase2.refine_s", trace.total("phase2"));
    report.put("phase2.update_self_s", trace.self_time("phase2"));
    report.put("storage.read_s", trace.total("storage.read"));
    report.put("storage.write_s", trace.total("storage.write"));
    report.put(
        "storage.prefetch_read_s",
        trace.total("storage.prefetch_read"),
    );
    report.put("model.save_s", trace.total("model.save"));
    report.put("model.load_shared_s", trace.total("model.load_shared"));
    report.put("serve.start_s", trace.total("serve.start"));
    report.put("serve.first_answer_s", trace.total("serve.first_answer"));
    report.put("journey.open_s", trace.total("journey.open"));
    report.put(
        "bench.journey_cover_pct",
        100.0 * trace.children("journey") / journey_s,
    );
}

/// `STATS`-derived figures for the slice just run, then the two
/// informational phases. Returns the operations that failed in them.
fn serve_layers(
    spec: &Spec,
    reqs: &mut Requests,
    addr: &str,
    client: &mut Client,
    p50_us: f64,
    report: &mut Report,
) -> Result<u64, String> {
    let stats = client.stats().map_err(|e| e.to_string())?;
    let (mut eval_ns, mut served) = (0u64, 0u64);
    for op in [
        Opcode::GetEntry,
        Opcode::GetFiber,
        Opcode::TopK,
        Opcode::Similar,
        Opcode::Batch,
    ] {
        let snap = stats.op(op).map(|s| s.snapshot.clone()).unwrap_or_default();
        let mean_us = if snap.count == 0 {
            0.0
        } else {
            snap.total_ns as f64 / snap.count as f64 / 1e3
        };
        report.put(&format!("serve.eval_mean_us.{}", op.name()), mean_us);
        if op != Opcode::Batch {
            eval_ns += snap.total_ns;
            served += snap.count;
        }
    }
    let (bytes_in, bytes_out) = stats.ops.iter().fold((0, 0), |(i, o), s| {
        (i + s.snapshot.bytes_in, o + s.snapshot.bytes_out)
    });
    let lookups = stats.cache_hits + stats.cache_misses;
    report.put(
        "serve.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            stats.cache_hits as f64 / lookups as f64
        },
    );
    report.put("serve.bytes_in", bytes_in);
    report.put("serve.bytes_out", bytes_out);
    // What one request costs the client beyond the server's own
    // evaluation of it: the operation's p50 spread over the requests it
    // carries, minus the mean evaluation time per request.
    let per_op = match spec.transport {
        spec::Transport::Pipeline { window } => window,
        spec::Transport::Batch { subs } => subs,
    } as f64;
    report.put(
        "serve.wire_overhead_us",
        p50_us / per_op - eval_ns as f64 / served.max(1) as f64 / 1e3,
    );

    let info = Duration::from_secs(2);
    let (rtt_p50, mut failed) = load::single_rtt(client, reqs, info);
    report.put("serve.single_rtt_p50_us", rtt_p50);
    let open = load::open_loop(addr, reqs, 2000.0, info)?;
    failed += open.failed;
    report.put("serve.open_p50_us", open.p50_us);
    report.put("serve.open_p99_us", open.p99_us);
    report.put("serve.open_late_p99_us", open.late_p99_us);
    Ok(failed)
}

/// FNV-1a over the bits of the weights and every factor, for the
/// traced == untraced check.
fn factors_hash(model: &Model) -> u64 {
    let mut bytes: Vec<u8> = model
        .weights()
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    for mode in 0..model.order() {
        bytes.extend(
            model
                .factor(mode)
                .as_slice()
                .iter()
                .flat_map(|v| v.to_le_bytes()),
        );
    }
    tpcp_storage::codec::fnv1a(&bytes)
}

/// Peak resident set of this process so far, KiB.
fn vm_hwm_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
