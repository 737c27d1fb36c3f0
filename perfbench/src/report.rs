//! Metric computation and the result line.

use crate::driver::Measured;
use crate::trace::{CostTable, Layer, Tracer};
use crate::workload::Shape;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn us(ns: Option<u64>) -> f64 {
    ns.unwrap_or(0) as f64 / 1e3
}

/// `a / b`, or 0 when nothing was counted.
fn per(a: f64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a / b as f64
    }
}

/// Peak resident set of this process, in MB (2^20 B), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(shape: &Shape, m: &Measured, setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    let wall_s = m.wall_ns as f64 / 1e9;
    let verified = m.tally.verified;
    let host = &m.host_latency_ns;
    vec![
        metric("adus_per_s", verified as f64 / wall_s, "1/s"),
        metric(
            "goodput_mb_s",
            (verified * shape.adu_bytes as u64) as f64 / wall_s / 1e6,
            "MB/s",
        ),
        metric("cpu_ns_per_adu", per(m.cpu_ns as f64, verified), "ns"),
        metric("host_latency_p50_us", us(host.percentile(50.0)), "us"),
        metric("host_latency_p99_us", us(host.percentile(99.0)), "us"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
    ]
}

/// The per-layer metrics of a traced run. Times come from every traced
/// iteration; counts come from the deterministic window.
pub fn per_layer(m: &Measured, tr: &Tracer, roofline: (f64, f64)) -> Vec<Metric> {
    let w = &m.window;
    let t = &m.traced;
    let adus = w.verified;
    let all: &CostTable = &tr.all;
    let win: &CostTable = &tr.window;
    let ns = |l: Layer, d: u64| per(all[l as usize].self_ns as f64, d);
    let allocs = |l: Layer, d: u64| per(win[l as usize].self_alloc.allocs as f64, d);
    let bytes = |l: Layer, d: u64| per(win[l as usize].self_alloc.bytes as f64, d);
    let name = |l: Layer, what: &str| format!("{}.{what}", l.name());
    let mut out = Vec::new();
    let per_adu = |l: Layer, with_bytes: bool, out: &mut Vec<Metric>| {
        out.push(metric(name(l, "ns_per_adu"), ns(l, t.verified), "ns"));
        out.push(metric(name(l, "allocs_per_adu"), allocs(l, adus), "allocs"));
        if with_bytes {
            out.push(metric(name(l, "alloc_bytes_per_adu"), bytes(l, adus), "B"));
        }
    };
    let per_frame = |l: Layer, traced: u64, window: u64, out: &mut Vec<Metric>| {
        out.push(metric(name(l, "ns_per_frame"), ns(l, traced), "ns"));
        out.push(metric(
            name(l, "allocs_per_frame"),
            allocs(l, window),
            "allocs",
        ));
    };

    per_adu(Layer::AppOffer, false, &mut out);
    per_adu(Layer::ClientSend, true, &mut out);
    out.push(metric(
        "client.send_adu.refused_ratio",
        per(w.refused as f64, w.attempts),
        "ratio",
    ));
    per_adu(Layer::ClientPoll, true, &mut out);
    out.push(metric(
        "client.poll_batch.frames_out_per_adu",
        per(w.client.egress_frames as f64, adus),
        "frames",
    ));
    out.push(metric(
        "client.poll_batch.timers_fired_per_adu",
        per(w.client.timers_fired as f64, adus),
        "timers",
    ));
    per_frame(Layer::ClientIngest, t.client_in, w.client_in, &mut out);
    per_frame(Layer::NetSend, t.net_sends, w.net_sends, &mut out);
    per_frame(Layer::NetStep, t.net_steps, w.net_steps, &mut out);
    per_frame(Layer::NetRecv, t.net_recvs, w.net_recvs, &mut out);
    let net = &m.inspection.net;
    out.push(metric(
        "netsim.drops_per_adu",
        per(net.fault_drops as f64, adus),
        "frames",
    ));
    out.push(metric(
        "netsim.duplicates_per_adu",
        per(net.duplicates as f64, adus),
        "frames",
    ));
    out.push(metric(
        "netsim.congestion_drops_per_adu",
        per(net.congestion_drops as f64, adus),
        "frames",
    ));
    out.push(metric(
        "netsim.peak_pending",
        w.peak_pending as f64,
        "frames",
    ));
    per_frame(Layer::ServerIngest, t.server_in, w.server_in, &mut out);
    out.push(metric(
        "server.ingest.peak_backlog",
        w.peak_backlog as f64,
        "frames",
    ));
    per_adu(Layer::ServerPoll, true, &mut out);
    let s = &w.server;
    out.push(metric(
        "server.poll_batch.frames_per_batch",
        per(s.frames_ingested as f64, s.calls),
        "frames",
    ));
    out.push(metric(
        "server.poll_batch.assocs_polled_per_batch",
        per(s.assocs_polled as f64, s.calls),
        "assocs",
    ));
    out.push(metric(
        "server.poll_batch.timers_fired_per_adu",
        per(s.timers_fired as f64, adus),
        "timers",
    ));
    out.push(metric(
        "server.poll_batch.egress_frames_per_adu",
        per(s.egress_frames as f64, adus),
        "frames",
    ));
    per_adu(Layer::ServerTake, false, &mut out);
    let tp = &m.inspection.transport;
    out.push(metric(
        "transport.tus_retransmitted_per_adu",
        per(tp.tus_retransmitted as f64, adus),
        "TUs",
    ));
    out.push(metric(
        "transport.adus_retransmitted_per_adu",
        per(tp.adus_retransmitted as f64, adus),
        "ADUs",
    ));
    out.push(metric(
        "transport.control_per_adu",
        per(tp.control as f64, adus),
        "msgs",
    ));
    out.push(metric(
        "transport.out_of_order_ratio",
        per(tp.out_of_order as f64, tp.delivered),
        "ratio",
    ));
    out.push(metric(
        "transport.bad_messages",
        tp.bad_messages as f64,
        "msgs",
    ));
    out.push(metric(
        "server.table.mem_bytes_per_assoc",
        m.inspection.mem_bytes_per_assoc,
        "B",
    ));
    out.push(metric(
        "server.table.shard_imbalance",
        m.inspection.shard_imbalance,
        "ratio",
    ));
    per_adu(Layer::AppPipeline, false, &mut out);
    per_adu(Layer::AppVerify, false, &mut out);

    let (memcpy, fused) = roofline;
    out.push(metric("roofline.memcpy_ns_per_adu", memcpy, "ns"));
    out.push(metric("roofline.copy_cksum_ns_per_adu", fused, "ns"));
    let stack = |f: &dyn Fn(Layer) -> f64| {
        Layer::ALL
            .into_iter()
            .filter(|l| l.is_stack())
            .map(f)
            .sum::<f64>()
    };
    let stack_ns = stack(&|l| ns(l, t.verified));
    out.push(metric("stack.ns_per_adu", stack_ns, "ns"));
    out.push(metric(
        "stack.allocs_per_adu",
        stack(&|l| allocs(l, adus)),
        "allocs",
    ));
    out.push(metric(
        "stack.ns_per_adu_over_floor",
        if fused > 0.0 { stack_ns / fused } else { 0.0 },
        "x",
    ));
    out.push(metric(
        "driver.self_ns_per_adu",
        ns(Layer::Driver, t.verified),
        "ns",
    ));
    let traced_wall: u64 = all.iter().map(|c| c.self_ns).sum();
    out.push(metric(
        "trace.wall_ns_per_adu",
        per(traced_wall as f64, t.verified),
        "ns",
    ));
    let (on_ns, on_adus) = m.traced_blocks;
    let (off_ns, off_adus) = m.untraced_blocks;
    let on = per(on_ns as f64, on_adus);
    let off = per(off_ns as f64, off_adus);
    out.push(metric(
        "trace.overhead_pct",
        if on > 0.0 && off > 0.0 {
            (on / off - 1.0) * 100.0
        } else {
            0.0
        },
        "%",
    ));
    let sim = &m.sim_latency_ns;
    out.push(metric("sim_latency_p50_us", us(sim.percentile(50.0)), "us"));
    out.push(metric("sim_latency_p99_us", us(sim.percentile(99.0)), "us"));
    out.push(metric(
        "adu_fail_ratio",
        per(
            (m.tally.offered - m.tally.verified.min(m.tally.offered)) as f64,
            m.tally.offered,
        ),
        "ratio",
    ));
    out
}

/// The result line: one JSON object. Non-finite values cannot be written
/// as JSON numbers; they make the run incorrect and print as 0.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        body.join(", ")
    )
}

/// A human-readable table of `metrics`, for standard error.
pub fn table(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("{:<44} {:>16.3} {}\n", m.name, m.value, m.unit))
        .collect()
}
