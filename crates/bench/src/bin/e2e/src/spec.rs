//! The benchmark's fixed vocabulary: six workloads, five gated end-to-end
//! metrics, the per-layer metrics. `BENCHMARK.json` at the repo root
//! mirrors these tables (`e2e --list` prints them).

use std::path::Path;
use tpcp_cp::CompressOptions;
use twopcp::{Phase1Options, TwoPcpConfig};

/// What the parent generates from `--seed` before any rep runs.
#[derive(Clone, Copy, Debug)]
pub enum Input {
    /// `low_rank_dense(dims, rank, 0.05, seed)` written as a tensor file;
    /// the rep decomposes it.
    Tensor,
    /// Seeded random factors saved as a ready `.2pcpm`; the rep only
    /// publishes and serves it.
    Model,
}

/// How the load generator talks to the server.
#[derive(Clone, Copy, Debug)]
pub enum Transport {
    /// Single frames kept in flight on one connection.
    Pipeline { window: usize },
    /// `BATCH` envelopes of `subs` sub-requests, one at a time.
    Batch { subs: usize },
}

/// Request mix in percent; the remainder after the first three is
/// `SIMILAR`.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub entry: u32,
    pub fiber: u32,
    pub top_k: u32,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub input: Input,
    pub dims: &'static [usize],
    pub rank: usize,
    /// A decomposition rep whose exact fit is below this is a failed op.
    pub fit_floor: f64,
    pub transport: Transport,
    pub mix: Mix,
    /// `Some(n)`: half the requests come from a fixed set of `n` keys.
    pub hot_keys: Option<usize>,
    /// Requests the journey ends on (see README: "journey_s").
    pub opening_burst: usize,
    /// Share of `--seconds` each rep spends in its closed-loop slice.
    pub slice_share: f64,
}

const LIGHT: Mix = Mix {
    entry: 90,
    fiber: 10,
    top_k: 0,
};
const HEAVY: Mix = Mix {
    entry: 60,
    fiber: 20,
    top_k: 10,
};
const PIPELINE: Transport = Transport::Pipeline { window: 32 };
/// Mode of every `GET_FIBER`/`TOP_K` (the last of an order-3 model).
pub const FIBER_MODE: usize = 2;
/// Mode of every `SIMILAR`.
pub const SIMILAR_MODE: usize = 0;
pub const TOP_K: usize = 10;

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "dense3",
        why: "phase 1 / kernels: 8 blocks of 128^3 through the fused dense-3 MTTKRP; phase 2 is nearly idle",
        input: Input::Tensor,
        dims: &[256, 256, 256],
        rank: 16,
        fit_floor: 0.94,
        transport: PIPELINE,
        mix: LIGHT,
        hot_keys: None,
        opening_burst: 1,
        slice_share: 0.1,
    },
    Spec {
        name: "ooc3",
        why: "phase 2 / storage: 512 blocks refined through a 1/8 buffer, thousands of swaps; bypasses the kernels dense3 stresses",
        input: Input::Tensor,
        dims: &[128, 128, 128],
        rank: 16,
        fit_floor: 0.94,
        transport: PIPELINE,
        mix: LIGHT,
        hot_keys: None,
        opening_burst: 1,
        slice_share: 0.1,
    },
    Spec {
        name: "order4",
        why: "generic N-way MTTKRP path (default for order 4), not the fused order-3 kernel dense3 uses",
        input: Input::Tensor,
        dims: &[40, 40, 40, 40],
        rank: 6,
        fit_floor: 0.95,
        transport: PIPELINE,
        mix: LIGHT,
        hot_keys: None,
        opening_burst: 1,
        slice_share: 0.1,
    },
    Spec {
        name: "order4_compress",
        why: "same file as order4 through compress-then-decompose: tpcp-compress does the work, the two phases none",
        input: Input::Tensor,
        dims: &[40, 40, 40, 40],
        rank: 6,
        fit_floor: 0.95,
        transport: PIPELINE,
        mix: LIGHT,
        hot_keys: None,
        opening_burst: 1,
        slice_share: 0.1,
    },
    Spec {
        name: "serve_pipeline",
        why: "per-frame cost: single frames pipelined 32 deep, uniform keys so the cache only inserts and evicts",
        input: Input::Model,
        dims: &[2048, 1024, 512],
        rank: 32,
        fit_floor: 0.0,
        transport: PIPELINE,
        mix: LIGHT,
        hot_keys: None,
        opening_burst: 65_536,
        slice_share: 0.2,
    },
    Spec {
        name: "serve_batch",
        why: "grouped model evaluation and cache hits: 64-sub BATCH envelopes, heavy mix, half the keys from a 512-key hot set",
        input: Input::Model,
        dims: &[2048, 1024, 512],
        rank: 32,
        fit_floor: 0.0,
        transport: Transport::Batch { subs: 64 },
        mix: HEAVY,
        hot_keys: Some(512),
        opening_burst: 49_152,
        slice_share: 0.2,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// The decomposition configuration of a tensor workload, `None` for a
/// model workload. `threads` is always explicit: the benchmark never
/// lets the program size itself from the hardware or the environment.
/// Every tolerance is 0, so that each stage runs its full iteration
/// budget and a rep is the same work under every seed: with the default
/// tolerances the journey of `order4` ranged from 2.8 s to 4.6 s, and
/// its fit from 0.89 to 0.96, with nothing but the seed changed.
pub fn config(spec: &Spec, seed: u64, threads: usize, work_dir: &Path) -> Option<TwoPcpConfig> {
    let base = TwoPcpConfig::builder()
        .rank(spec.rank)
        .seed(seed)
        .threads(threads)
        .work_dir(work_dir);
    let builder = match spec.name {
        "dense3" => base
            .parts(vec![2])
            .buffer_fraction(1.0)
            .phase1(Phase1Options::default().max_iters(16).tol(0.0))
            .tol(0.0)
            .max_virtual_iters(30),
        "ooc3" => base
            .parts(vec![8])
            .buffer_fraction(0.125)
            .phase1(Phase1Options::default().max_iters(10).tol(0.0))
            .tol(0.0)
            .max_virtual_iters(300),
        "order4" => base
            .parts(vec![2])
            .buffer_fraction(1.0)
            .phase1(Phase1Options::default().max_iters(20).tol(0.0))
            .tol(0.0)
            .max_virtual_iters(30),
        "order4_compress" => base
            .parts(vec![2])
            .buffer_fraction(1.0)
            .tol(0.0)
            .max_virtual_iters(100)
            .compress(
                CompressOptions::builder()
                    .mlrank(vec![6; 4])
                    .build()
                    .expect("static compress options are valid"),
            ),
        _ => return None,
    };
    Some(builder.build().expect("static workload configs are valid"))
}

#[derive(Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is the better one.
    pub higher: bool,
    /// End-to-end only: share of the parent's median the metric may
    /// worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, false, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, true, 0.0)
}

pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("journey_s", "s", false, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.10),
    e2e("query_rps", "req/s", true, 0.25),
    e2e("query_p50_us", "us", false, 0.25),
];

/// Every per-layer metric of the traced run, `layer.metric`. A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 79] = [
    // An end-to-end metric by nature, printed by every run, but not
    // gated: on this box the tail of a closed loop is the hypervisor's
    // (quartile distance of ten runs 8–17 % when the host is calm,
    // 80–110 % when it is not).
    lower("query_p99_us", "us"),
    lower("partition.load_block_s", "s"),
    lower("partition.blocks_loaded", "count"),
    lower("partition.bytes_loaded", "B"),
    higher("partition.load_gbs", "GB/s"),
    lower("phase1.run_s", "s"),
    lower("phase1.als_self_s", "s"),
    higher("phase1.block_fit_min", "ratio"),
    lower("phase1.peak_block_bytes", "B"),
    lower("cp.mttkrp_sweep_s", "s"),
    higher("cp.mttkrp_gflops", "GFLOP/s"),
    higher("cp.mttkrp_flops_per_byte", "flop/B"),
    higher("cp.mttkrp_roofline_frac", "ratio"),
    lower("linalg.solve_us", "us"),
    lower("linalg.gram_us", "us"),
    higher("machine.stream_gbs", "GB/s"),
    higher("machine.peak_gflops", "GFLOP/s"),
    higher("machine.llc_mib", "MiB"),
    higher("machine.stream_array_mib", "MiB"),
    lower("phase2.refine_s", "s"),
    lower("phase2.update_self_s", "s"),
    lower("phase2.virtual_iters", "count"),
    lower("phase2.step_us", "us"),
    lower("phase2.q_hadamard_s", "s"),
    lower("storage.read_s", "s"),
    lower("storage.write_s", "s"),
    lower("storage.prefetch_read_s", "s"),
    lower("storage.stall_s", "s"),
    lower("storage.swaps", "count"),
    higher("storage.hits", "count"),
    higher("storage.hit_ratio", "ratio"),
    lower("storage.write_backs", "count"),
    lower("storage.bytes_read", "B"),
    lower("storage.bytes_written", "B"),
    higher("storage.prefetch_hit_ratio", "ratio"),
    higher("storage.codec_encode_gbs", "GB/s"),
    higher("storage.codec_decode_gbs", "GB/s"),
    lower("schedule.swaps_per_iter", "count"),
    lower("accuracy.fit_s", "s"),
    higher("accuracy.fit", "ratio"),
    lower("compress.decompose_s", "s"),
    lower("compress.core_elems", "count"),
    lower("compress.core_iters", "count"),
    lower("compress.retained_mlrank", "count"),
    lower("model.save_s", "s"),
    lower("model.load_shared_s", "s"),
    lower("model.file_bytes", "B"),
    lower("model.entry_ns", "ns"),
    lower("model.fiber_us", "us"),
    lower("model.top_k_us", "us"),
    lower("model.similar_us", "us"),
    lower("model.entries64_us", "us"),
    lower("serve.start_s", "s"),
    lower("serve.first_answer_s", "s"),
    lower("router.handle_mean_us", "us"),
    lower("serve.eval_mean_us.GET_ENTRY", "us"),
    lower("serve.eval_mean_us.GET_FIBER", "us"),
    lower("serve.eval_mean_us.TOP_K", "us"),
    lower("serve.eval_mean_us.SIMILAR", "us"),
    lower("serve.eval_mean_us.BATCH", "us"),
    higher("serve.cache_hit_ratio", "ratio"),
    lower("serve.bytes_in", "B"),
    lower("serve.bytes_out", "B"),
    lower("protocol.frame_codec_ns", "ns"),
    lower("protocol.batch_codec_us", "us"),
    lower("serve.wire_overhead_us", "us"),
    lower("serve.single_rtt_p50_us", "us"),
    lower("serve.open_p50_us", "us"),
    lower("serve.open_p99_us", "us"),
    lower("serve.open_late_p99_us", "us"),
    higher("par.cpus", "count"),
    lower("par.threads", "count"),
    higher("par.scaling_eff_t2", "ratio"),
    lower("bench.trace_overhead_pct", "%"),
    higher("bench.journey_cover_pct", "%"),
    higher("bench.p99_samples_beyond", "count"),
    lower("journey.open_s", "s"),
    lower("journey.traced_s", "s"),
    lower("journey.untraced_s", "s"),
];
