//! Direct-call replays of single layers on the workload's own shapes,
//! and the two machine microbenchmarks that give them a roofline. All of
//! it runs after the timed journey, in the traced run only.

use crate::child::Report;
use crate::load::Requests;
use crate::spec::{Spec, Transport, FIBER_MODE, SIMILAR_MODE, TOP_K};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tpcp_cp::{mttkrp_dense_kernel, per_mode_sweep_flops};
use tpcp_linalg::{hadamard_all, solve::solve_gram_system, Mat};
use tpcp_par::ParConfig;
use tpcp_partition::{BlockSource, FileTensorSource, Grid};
use tpcp_schedule::UnitId;
use tpcp_serve::protocol::{self, Frame, MAX_REQUEST_PAYLOAD, VERSION};
use tpcp_serve::{
    decode_batch_request, decode_batch_response, encode_batch_request, encode_batch_response,
    BatchSubResponse, Metrics, ModelRegistry, QueryCache, Router, SessionState, Status,
};
use tpcp_storage::{codec, DiskStore};
use tpcp_tensor::random_factor;
use twopcp::{Model, TwoPcpConfig};

/// Median seconds of `runs` calls of `f`.
fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&secs)
}

/// `cp` / `linalg`: one MTTKRP sweep, one normal-equation solve and one
/// Gram on block 0 of the workload, serial as inside a phase-1 worker.
pub fn kernels(
    spec: &Spec,
    input: &Path,
    cfg: &TwoPcpConfig,
    report: &mut Report,
) -> Result<(), String> {
    let parts = cfg
        .resolved_parts(spec.dims.len())
        .map_err(|e| e.to_string())?;
    let grid = Grid::new(spec.dims, &parts);
    let block = FileTensorSource::open(input)
        .and_then(|mut src| src.load_block(&grid, 0))
        .map_err(|e| e.to_string())?
        .into_dense();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let factors: Vec<Mat> = block
        .dims()
        .iter()
        .map(|&d| random_factor(d, spec.rank, &mut rng))
        .collect();
    let refs: Vec<&Mat> = factors.iter().collect();
    let serial = ParConfig::serial();

    let mut products = Vec::new();
    let sweep_s = median_secs(5, || {
        products = (0..refs.len())
            .map(|mode| mttkrp_dense_kernel(&block, &refs, mode, &serial, cfg.kernel))
            .collect();
    });
    let flops = per_mode_sweep_flops(block.dims(), spec.rank) as f64;
    // Compulsory traffic: every mode's product streams the block once.
    let bytes = (block.len() * 8 * refs.len()) as f64;
    report.put("cp.mttkrp_sweep_s", sweep_s);
    report.put("cp.mttkrp_gflops", flops / sweep_s / 1e9);
    report.put("cp.mttkrp_flops_per_byte", flops / bytes);

    let gram_s = median_secs(25, || {
        black_box(factors[0].gram_kernel(&serial, cfg.kernel));
    });
    let t = products
        .swap_remove(0)
        .map_err(|e: tpcp_cp::CpError| e.to_string())?;
    let grams: Vec<Mat> = factors[1..]
        .iter()
        .map(|f| f.gram_kernel(&serial, cfg.kernel))
        .collect();
    let s = hadamard_all(&grams.iter().collect::<Vec<_>>()).map_err(|e| e.to_string())?;
    let solve_s = median_secs(25, || {
        black_box(solve_gram_system(&t, &s, cfg.ridge)).ok();
    });
    report.put("linalg.gram_us", gram_s * 1e6);
    report.put("linalg.solve_us", solve_s * 1e6);
    Ok(())
}

/// `storage`: `codec::{decode, encode}` over the unit pages the run left
/// in its store.
pub fn codec(store: &DiskStore, grid: &Grid, report: &mut Report) -> Result<(), String> {
    let pages: Vec<Vec<u8>> = (0..grid.num_units())
        .map(|lin| std::fs::read(store.unit_path(UnitId::from_linear(grid, lin))))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let bytes: usize = pages.iter().map(Vec::len).sum();
    let mut units = Vec::new();
    let decode_s = median_secs(3, || {
        units = pages.iter().map(|p| codec::decode(p)).collect();
    });
    let units: Vec<_> = units
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let encode_s = median_secs(3, || {
        for unit in &units {
            black_box(codec::encode(unit));
        }
    });
    report.put("storage.codec_decode_gbs", bytes as f64 / decode_s / 1e9);
    report.put("storage.codec_encode_gbs", bytes as f64 / encode_s / 1e9);
    Ok(())
}

/// `model`: the four evaluations and the 64-entry bulk call, direct.
pub fn model_calls(model: &Model, reqs: &mut Requests, report: &mut Report) {
    const N: usize = 256;
    let coords: Vec<Vec<usize>> = (0..N).map(|_| reqs.coords()).collect();
    let fixed: Vec<Vec<usize>> = coords
        .iter()
        .map(|c| {
            let mut f = c.clone();
            f.remove(FIBER_MODE);
            f
        })
        .collect();
    let per_call = |runs: usize, f: &mut dyn FnMut(usize)| {
        median_secs(runs, || (0..N).for_each(&mut *f)) / N as f64
    };
    report.put(
        "model.entry_ns",
        per_call(25, &mut |i| {
            black_box(model.entry(&coords[i])).ok();
        }) * 1e9,
    );
    report.put(
        "model.fiber_us",
        per_call(5, &mut |i| {
            black_box(model.fiber(FIBER_MODE, &fixed[i])).ok();
        }) * 1e6,
    );
    report.put(
        "model.top_k_us",
        per_call(5, &mut |i| {
            black_box(model.top_k(FIBER_MODE, &fixed[i], TOP_K)).ok();
        }) * 1e6,
    );
    report.put(
        "model.similar_us",
        per_call(3, &mut |i| {
            black_box(model.similar_rows(SIMILAR_MODE, coords[i][SIMILAR_MODE], TOP_K)).ok();
        }) * 1e6,
    );
    let entries64_s = median_secs(25, || {
        black_box(model.entries(&coords[..64])).ok();
    });
    report.put("model.entries64_us", entries64_s * 1e6);
}

/// `serve`: `Router::handle` over the workload's request stream with no
/// socket, on a router of its own (same registry directory, same cache
/// size as the server's default).
pub fn router(models_dir: &Path, reqs: &mut Requests, report: &mut Report) -> Result<(), String> {
    const N: usize = 4096;
    let router = Router {
        registry: Arc::new(ModelRegistry::open(models_dir)?),
        cache: Arc::new(QueryCache::new(1024)),
        metrics: Arc::new(Metrics::new()),
    };
    let frames: Vec<Frame> = (0..N)
        .map(|_| {
            let sub = reqs.next().encode(&reqs.model);
            Frame {
                version: VERSION,
                opcode: sub.opcode,
                status: 0,
                payload: sub.payload,
            }
        })
        .collect();
    let mut session = SessionState::new();
    let t = Instant::now();
    let ok = frames
        .iter()
        .filter(|f| router.handle(&mut session, f).status == Status::Ok)
        .count();
    report.put(
        "router.handle_mean_us",
        t.elapsed().as_secs_f64() * 1e6 / N as f64,
    );
    if ok == N {
        Ok(())
    } else {
        Err(format!("router replay: {} of {N} frames not OK", N - ok))
    }
}

/// `protocol`: framing one request in memory, and packing/unpacking one
/// envelope of the workload's size both ways.
pub fn protocol(spec: &Spec, reqs: &mut Requests, report: &mut Report) -> Result<(), String> {
    const N: usize = 4096;
    let subs: Vec<_> = (0..N).map(|_| reqs.next().encode(&reqs.model)).collect();
    let mut wire = Vec::new();
    let frame_s = median_secs(15, || {
        wire.clear();
        for sub in &subs {
            protocol::write_frame(&mut wire, sub.opcode, 0, &sub.payload).ok();
        }
        let mut cursor = wire.as_slice();
        for _ in &subs {
            black_box(protocol::read_frame(&mut cursor, MAX_REQUEST_PAYLOAD)).ok();
        }
    });
    report.put("protocol.frame_codec_ns", frame_s * 1e9 / N as f64);

    let per_envelope = match spec.transport {
        Transport::Batch { subs } => subs,
        Transport::Pipeline { .. } => 64,
    };
    let envelope = &subs[..per_envelope];
    let answers: Vec<BatchSubResponse> = envelope
        .iter()
        .map(|s| BatchSubResponse {
            opcode: s.opcode,
            status: 0,
            payload: vec![0; 8],
        })
        .collect();
    let mut round_trips = true;
    let batch_s = median_secs(101, || {
        let request = encode_batch_request(envelope);
        let response = encode_batch_response(&answers);
        round_trips &= decode_batch_request(&request).is_ok_and(|d| d == envelope)
            && decode_batch_response(&response).is_ok_and(|d| d == answers);
    });
    report.put("protocol.batch_codec_us", batch_s * 1e6);
    if round_trips {
        Ok(())
    } else {
        Err("BATCH codec replay did not round-trip".into())
    }
}

/// The machine's two ceilings, measured in the same run as the kernels
/// they bound.
pub struct Machine {
    /// STREAM-triad bandwidth, one thread.
    pub stream_gbs: f64,
    /// Independent multiply-add chains in registers, one thread, as this
    /// build's code generation vectorises them.
    pub peak_gflops: f64,
    pub llc_mib: f64,
    pub array_mib: f64,
}

/// Largest cache the kernel reports for cpu0, bytes.
fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let size = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let size = size.trim();
            let (digits, unit) = size.split_at(size.len().checked_sub(1)?);
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                "G" => 1 << 30,
                _ => return size.parse().ok(),
            };
            Some(digits.parse::<u64>().ok()? * scale)
        })
        .max()
        .unwrap_or(0)
}

pub fn machine() -> Machine {
    // The rule is arrays of at least four times the last-level cache.
    // This sandbox reports a 260 MiB shared L3, which would mean 3 GiB
    // of arrays; they are capped, and both sizes are reported so that a
    // reader can tell when the cap, not the rule, set the size.
    const CAP: usize = 64 << 20;
    let llc = llc_bytes();
    let array_bytes = (4 * llc as usize).clamp(16 << 20, CAP);
    let n = array_bytes / 8;
    let (b, c) = (vec![1.0f64; n], vec![2.0f64; n]);
    let mut a = vec![0.0f64; n];
    let triad_s = median_secs(5, || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + 3.0 * c;
        }
        black_box(&mut a);
    });

    const LANES: usize = 32;
    const ITERS: usize = 4_000_000;
    let mut acc = [1.0f64; LANES];
    let flop_s = median_secs(5, || {
        let (x, y) = (black_box(1.000_000_1f64), black_box(1e-9f64));
        for _ in 0..ITERS {
            for v in &mut acc {
                *v = *v * x + y;
            }
        }
        black_box(&mut acc);
    });
    Machine {
        stream_gbs: (3 * array_bytes) as f64 / triad_s / 1e9,
        peak_gflops: (2 * LANES * ITERS) as f64 / flop_s / 1e9,
        llc_mib: llc as f64 / (1u64 << 20) as f64,
        array_mib: array_bytes as f64 / (1u64 << 20) as f64,
    }
}
