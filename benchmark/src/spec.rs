//! The names this benchmark emits. `BENCHMARK.json` declares the same
//! sets; `tests/selftest.rs` fails when the two drift apart.

/// Workload names, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 6] = [
    "pingpong_small_tcp",
    "pingpong_small_inproc",
    "echo_bulk_tcp",
    "post_flood",
    "sieve_pipeline",
    "raytracer_farm",
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression (0 for per-layer metrics,
    /// which have no bound). Where the numbers come from: `CALIBRATION.md`.
    pub bound: f64,
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        bound: 0.0,
        higher_is_better: false,
    }
}

const fn bounded(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    higher_is_better: bool,
) -> Metric {
    Metric {
        name,
        unit,
        bound,
        higher_is_better,
    }
}

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: [Metric; 5] = [
    bounded("setup_s", "s", 0.2, false),
    bounded("rtt_p50_us", "us", 0.15, false),
    bounded("payload_mb_per_s", "MB/s", 0.15, true),
    bounded("posts_per_s", "1/s", 0.15, true),
    bounded("wall_s", "s", 0.15, false),
];

/// Reported by every workload with `--trace 1`.
pub const PER_LAYER: [Metric; 46] = [
    m("serial.value_build_ns", "ns"),
    m("serial.encode_ns", "ns"),
    m("serial.decode_ns", "ns"),
    m("serial.encoded_bytes", "bytes"),
    m("message.call_encode_ns", "ns"),
    m("message.call_decode_ns", "ns"),
    m("message.reply_encode_ns", "ns"),
    m("message.reply_decode_ns", "ns"),
    m("message.call_wire_bytes", "bytes"),
    m("message.reply_wire_bytes", "bytes"),
    m("frame.write_ns", "ns"),
    m("frame.reassemble_ns", "ns"),
    m("bufpool.hit_ratio", "ratio"),
    m("transport.call_ns", "ns"),
    m("transport.post_ns", "ns"),
    m("transport.connect_us", "us"),
    m("mailbox.handoff_ns", "ns"),
    m("mailbox.enqueue_ns", "ns"),
    m("mailbox.executed", "count"),
    m("mailbox.stolen", "count"),
    m("mailbox.max_depth", "count"),
    m("dispatcher.dispatch_ns", "ns"),
    m("po.post_ns", "ns"),
    m("po.call_ns", "ns"),
    m("batch.flush_ns", "ns"),
    m("batch.calls_per_message", "ratio"),
    m("batch.batches_sent", "count"),
    m("factory.create_us", "us"),
    m("runtime.build_ms", "ms"),
    m("pipeline.feed_ns", "ns"),
    m("sieve.hops", "count"),
    m("raytracer.render_line_us", "us"),
    m("raytracer.result_bytes_per_line", "bytes"),
    m("farm.speedup_vs_seq", "ratio"),
    m("farm.runtime_share", "ratio"),
    m("callpath.accounted_ns", "ns"),
    m("callpath.unattributed_ns", "ns"),
    m("rtt_p99_us", "us"),
    m("obs.serialize_mean_ns", "ns"),
    m("obs.channel_send_mean_ns", "ns"),
    m("obs.mailbox_wait_mean_ns", "ns"),
    m("obs.dispatch_mean_ns", "ns"),
    m("obs.trace_overhead_ratio", "ratio"),
    m("proc.cpu_s", "s"),
    m("proc.peak_rss_mb", "MB"),
    m("proc.threads", "count"),
];
