//! Turns rounds and spans into metrics, and prints them.

use crate::exec::Round;
use crate::trace::Tracer;
use std::collections::HashMap;
use std::io::Write;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_owned(),
        // 0/0 ratios (e.g. no shared-tier lookups at all) read as 0
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// Linearly interpolated quantile (NaN when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// An end-to-end metric with its per-round values.
pub struct EndToEnd {
    pub metric: Metric,
    pub per_round: Vec<f64>,
}

type RoundValue = fn(&Round) -> f64;

const END_TO_END: [(&str, &str, RoundValue); 7] = [
    ("setup_s", "s", |r| r.setup.as_secs_f64()),
    ("ops_per_s", "1/s", |r| {
        r.ops() as f64 / r.busy.as_secs_f64()
    }),
    ("write_p50_us", "us", |r| quantile(&r.writes, 0.5)),
    ("write_p90_us", "us", |r| quantile(&r.writes, 0.9)),
    ("read_p50_us", "us", |r| quantile(&r.reads, 0.5)),
    ("read_p90_us", "us", |r| quantile(&r.reads, 0.9)),
    ("mem_peak_mb", "MB", |r| r.mem_peak as f64 / 1e6),
];

/// The seven end-to-end metrics: each the median of its per-round values.
pub fn end_to_end(rounds: &[Round]) -> Vec<EndToEnd> {
    let writes: usize = rounds.iter().map(|r| r.writes.len()).sum();
    let reads: usize = rounds.iter().map(|r| r.reads.len()).sum();
    END_TO_END
        .iter()
        .map(|&(name, unit, f)| {
            let per_round: Vec<f64> = rounds.iter().map(f).collect();
            let samples = match name {
                "ops_per_s" => writes + reads,
                n if n.starts_with("write") => writes,
                n if n.starts_with("read") => reads,
                _ => rounds.len(),
            };
            EndToEnd {
                metric: metric(name, median(&per_round), unit, samples),
                per_round,
            }
        })
        .collect()
}

/// Prints the spread of every end-to-end metric across rounds.
pub fn print_spread(workload: &str, seed: u64, rounds: &[Round], e2e: &[EndToEnd]) {
    let fields: Vec<String> = e2e
        .iter()
        .map(|m| {
            let q = |p| num(quantile(&m.per_round, p));
            let rounds: Vec<String> = m.per_round.iter().map(|&v| num(v)).collect();
            format!(
                "\"{}\": {{\"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}, \"samples\": {}, \"per_round\": [{}]}}",
                m.metric.name,
                q(0.0),
                q(0.25),
                q(0.5),
                q(0.75),
                q(1.0),
                m.metric.samples,
                rounds.join(", ")
            )
        })
        .collect();
    println!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"rounds\": {}, \"spread\": {{{}}}}}",
        rounds.len(),
        fields.join(", ")
    );
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

const VERBS: [&str; 6] = ["open", "propagate", "commit", "close", "verify", "count"];

/// The direct-`Session` call(s) that do the engine work of each daemon
/// verb.
fn direct_calls(verb: &str) -> &'static [&'static str] {
    match verb {
        "open" => &["xvu_propagate.open"],
        "propagate" => &["xvu_propagate.propagate", "xvu_propagate.forest_count"],
        "commit" => &["xvu_propagate.commit"],
        "close" => &["xvu_tree.clone"],
        "verify" => &["xvu_propagate.verify"],
        _ => &["xvu_propagate.count"],
    }
}

/// The per-layer metrics of a traced run. `plain` and `traced` are the
/// untraced and traced rounds on the workload's own path.
pub fn per_layer(plain: &[Round], traced: &[Round], tracer: &Tracer) -> Vec<Metric> {
    let mut by_name: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut per_req: HashMap<(&str, u64), f64> = HashMap::new();
    for s in &tracer.spans {
        let us = s.dur_ns() as f64 / 1e3;
        by_name.entry(s.name).or_default().push(us);
        for verb in VERBS {
            if direct_calls(verb).contains(&s.name) {
                *per_req.entry((verb, s.req)).or_default() += us;
            }
        }
    }
    let spans = |name: &str| by_name.get(name).map_or(&[][..], |v| &v[..]);
    let med_us = |name: &str| (median(spans(name)), spans(name).len());
    let mut out = Vec::new();
    let push_ms = |out: &mut Vec<Metric>, name: &str, span: &str| {
        let (v, n) = med_us(span);
        out.push(metric(name, v / 1e3, "ms", n));
    };
    push_ms(&mut out, "tree.decode_ms", "xvu_tree.decode");
    let c = &tracer.counters;
    out.push(metric("tree.doc_nodes", c.doc_nodes as f64, "count", 1));
    push_ms(
        &mut out,
        "propagate.engine_build_ms",
        "xvu_propagate.engine_build",
    );
    push_ms(&mut out, "propagate.open_ms", "xvu_propagate.open");
    for call in ["instance", "propagate", "commit", "verify", "count"] {
        let (v, n) = med_us(&format!("xvu_propagate.{call}"));
        out.push(metric(&format!("propagate.{call}_us"), v, "us", n));
    }
    let ratio = |a: u64, b: u64| a as f64 / (a + b) as f64;
    out.push(metric(
        "propagate.cache_hit_ratio",
        ratio(c.cache_hits, c.cache_misses),
        "ratio",
        (c.cache_hits + c.cache_misses) as usize,
    ));
    out.push(metric(
        "propagate.shared_hit_ratio",
        ratio(c.shared_hits, c.shared_misses),
        "ratio",
        (c.shared_hits + c.shared_misses) as usize,
    ));
    out.push(metric(
        "propagate.invalidated_per_commit",
        c.invalidated as f64 / c.commits as f64,
        "count",
        c.commits as usize,
    ));
    out.push(metric(
        "edit.script_nodes",
        median(&c.script_nodes),
        "count",
        c.script_nodes.len(),
    ));
    out.push(metric(
        "edit.footprint_ratio",
        c.changed_nodes.iter().sum::<f64>() / c.script_nodes.iter().sum::<f64>(),
        "ratio",
        c.script_nodes.len(),
    ));
    out.push(metric(
        "alloc.per_edit",
        median(&c.edit_allocs),
        "count",
        c.edit_allocs.len(),
    ));
    out.push(metric(
        "alloc.bytes_per_edit",
        median(&c.edit_bytes),
        "B",
        c.edit_bytes.len(),
    ));

    let mut daemon_ops = 0usize;
    for verb in VERBS {
        let (rt, n) = med_us(&format!("xvu_server.{verb}"));
        daemon_ops += n;
        out.push(metric(&format!("server.{verb}_p50_us"), rt, "us", n));
    }
    for verb in VERBS {
        let direct: Vec<f64> = per_req
            .iter()
            .filter(|((v, _), _)| *v == verb)
            .map(|(_, &us)| us)
            .collect();
        let (rt, _) = med_us(&format!("xvu_server.{verb}"));
        out.push(metric(
            &format!("server.overhead_us.{verb}"),
            rt - median(&direct),
            "us",
            direct.len(),
        ));
    }
    push_ms(&mut out, "server.preload_ms", "xvu_server.preload");
    out.push(metric(
        "server.evictions_per_op",
        c.evictions as f64 / daemon_ops as f64,
        "1/op",
        daemon_ops,
    ));
    out.push(metric(
        "server.cache_hit_rate",
        ratio(c.server_cache_hits, c.server_cache_misses),
        "ratio",
        (c.server_cache_hits + c.server_cache_misses) as usize,
    ));
    out.push(metric(
        "server.shared_hit_rate",
        ratio(c.server_shared_hits, c.server_shared_misses),
        "ratio",
        (c.server_shared_hits + c.server_shared_misses) as usize,
    ));
    out.push(metric(
        "server.queue_max",
        c.queue_max as f64,
        "count",
        daemon_ops,
    ));
    out.push(metric(
        "server.retries",
        c.retries as f64,
        "count",
        daemon_ops,
    ));
    out.push(metric(
        "server.rejected_writes",
        c.rejected_writes as f64,
        "count",
        daemon_ops,
    ));

    let traced_ops: usize = traced.iter().map(Round::ops).sum();
    let cpu: f64 = traced.iter().map(|r| r.cpu_s).sum();
    let wall: f64 = traced.iter().map(|r| r.wall.as_secs_f64()).sum();
    let nv: u64 = traced.iter().map(|r| r.nonvoluntary).sum();
    out.push(metric("host.cpu_per_wall", cpu / wall, "s/s", traced.len()));
    out.push(metric(
        "host.nonvoluntary_switches_per_kop",
        nv as f64 * 1e3 / traced_ops as f64,
        "1/kop",
        traced_ops,
    ));

    let writes: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.writes.iter().copied())
        .collect();
    let reads: Vec<f64> = plain.iter().flat_map(|r| r.reads.iter().copied()).collect();
    out.push(metric(
        "tail.write_p99_us",
        quantile(&writes, 0.99),
        "us",
        writes.len(),
    ));
    out.push(metric(
        "tail.read_p99_us",
        quantile(&reads, 0.99),
        "us",
        reads.len(),
    ));
    out.push(metric(
        "tail.write_samples",
        writes.len() as f64,
        "count",
        writes.len(),
    ));
    out.push(metric(
        "tail.read_samples",
        reads.len() as f64,
        "count",
        reads.len(),
    ));

    // self time: a span's duration minus the part its children cover
    let mut self_ns: Vec<i64> = tracer.spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in &tracer.spans {
        if s.parent != 0 {
            self_ns[s.parent as usize - 1] -= s.dur_ns() as i64;
        }
    }
    let roots = spans("bench.op").len();
    for layer in [
        "bench",
        "xvu_tree",
        "xvu_edit",
        "xvu_propagate",
        "xvu_server",
    ] {
        let total: i64 = tracer
            .spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.layer() == layer)
            .map(|(_, &ns)| ns)
            .sum();
        out.push(metric(
            &format!("self.{layer}_us_per_op"),
            total as f64 / 1e3 / roots as f64,
            "us",
            roots,
        ));
    }

    let plain_e2e = end_to_end(plain);
    let traced_e2e = end_to_end(traced);
    let change = |i: usize| {
        let (p, t) = (plain_e2e[i].metric.value, traced_e2e[i].metric.value);
        (t - p) / p * 100.0
    };
    out.push(metric(
        "trace.ops_per_s_change_pct",
        change(1),
        "%",
        traced_ops,
    ));
    out.push(metric(
        "trace.write_p50_change_pct",
        change(2),
        "%",
        traced_ops,
    ));
    out
}

/// Prints every per-layer metric with its sample count.
pub fn print_per_layer(workload: &str, seed: u64, layers: &[Metric]) {
    let rows: Vec<String> = layers
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name,
                num(m.value),
                m.unit,
                m.samples
            )
        })
        .collect();
    println!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"per_layer\": {{{}}}}}",
        rows.join(", ")
    );
}

/// Writes the spans as JSON lines: a header naming the columns, then one
/// array per span. Span ids are line numbers after the header, from 1;
/// `parent` 0 marks a root.
pub fn write_spans(
    dir: &std::path::Path,
    workload: &str,
    seed: u64,
    tracer: &Tracer,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let file = std::fs::File::create(dir.join(format!("trace-{workload}-seed{seed}.jsonl")))?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(
        w,
        "[\"parent\", \"req\", \"name\", \"start_ns\", \"end_ns\"]"
    )?;
    for s in &tracer.spans {
        writeln!(
            w,
            "[{}, {}, \"{}\", {}, {}]",
            s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// The result line: the last line of stdout. A run with any failure
/// reports no metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = if correct {
        metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
