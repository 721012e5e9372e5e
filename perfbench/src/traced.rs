//! The traced run: per workload, an untraced pass (for the overhead
//! baseline, wire bytes and the server's own timings) and a traced pass
//! in which each op's client calls and an in-process replay of its
//! server path are recorded as spans.

use crate::replay::{anonymize_traced, OpCounts, Replica};
use crate::stats::{median, Tally};
use crate::trace::{self, Recorder, Span};
use crate::workloads::{
    self, anonymize_handle_request, connect, inline_anonymize_request, Calls, Env, Failure, OpSlot,
    Pass, Workload,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use trajdp_core::{anonymize, FreqDpConfig};
use trajdp_model::csv::{from_csv, to_csv};
use trajdp_server::api::Payload;
use trajdp_server::{anonymize_parallel, Json, Response};

/// A per-layer figure: name (without the workload prefix), value, unit.
pub type Figure = (&'static str, f64, &'static str);

/// The outcome of tracing one workload.
pub struct Traced {
    /// Per-layer figures.
    pub figures: Vec<Figure>,
    /// Outcome counts of every op run.
    pub tally: Tally,
    /// The first failures.
    pub errors: Vec<String>,
    /// Every span, per recording thread.
    pub spans: Vec<Vec<Span>>,
}

/// Traced ops per client; as many untraced ops are interleaved with
/// them.
fn traced_ops(w: Workload) -> usize {
    match w {
        Workload::Transfer | Workload::AnonymizeHandle => 8,
        Workload::SmallRequests => 60,
    }
}

/// Serial/parallel pairs timed for `executor.speedup`.
const SPEEDUP_PAIRS: u64 = 3;

/// Structural spans: they group layer spans and are no layer themselves.
const STRUCTURAL: [&str; 3] = ["op", "client", "replay"];

/// What one client thread of the traced run produced.
struct ClientTrace {
    spans: Vec<Span>,
    counts: BTreeMap<u64, OpCounts>,
    traced: Pass,
    untraced: Pass,
}

/// Traces one workload against a fresh server and replica.
pub fn trace_workload(
    w: Workload,
    seed: u64,
    bin: &Path,
    dir: &Path,
    origin: Instant,
) -> Result<Traced, String> {
    let mut env = workloads::setup(w, seed, bin, dir.join(format!("{}-server", w.name())))?;
    // A kept anonymize-handle release is downloaded inside the op and
    // would skew its wire bytes and client span; the replay's output is
    // checked against the serial pipeline instead (`executor_speedup`).
    env.sampling = w != Workload::AnonymizeHandle;
    let replica = Replica::open(&dir.join(format!("{}-replica", w.name())))?;
    let replica_input = match w {
        Workload::AnonymizeHandle => Some(replica.adopt(&env.inputs.csv)?),
        _ => None,
    };

    // The ops are bracketed by metrics snapshots; the first two
    // snapshots measure what one metrics exchange itself adds.
    let mut probe = connect(&env.server)?;
    let wire_total = |c: &mut trajdp_server::Client| {
        c.metrics().map(|m| m.bytes_in + m.bytes_out).map_err(|e| e.to_string())
    };
    let s0 = wire_total(&mut probe)?;
    let s1 = wire_total(&mut probe)?;
    let clients: Vec<ClientTrace> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.clients())
            .map(|c| {
                let (env, replica, input) = (&env, &replica, replica_input.as_deref());
                scope.spawn(move || traced_client(env, replica, input, c, origin))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("traced client panicked")).collect()
    });
    let s2 = wire_total(&mut probe)?;
    drop(probe);

    let mut untraced = Pass::default();
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let mut spans = Vec::new();
    let mut counts = BTreeMap::new();
    for mut c in clients {
        for pass in [&mut c.traced, &mut c.untraced] {
            workloads::check_releases(pass, &env.inputs.csv);
            tally.merge(pass.tally);
            errors.append(&mut pass.errors);
        }
        untraced.latencies_ms.extend(c.untraced.latencies_ms);
        untraced.server_total_secs.extend(c.untraced.server_total_secs);
        untraced.server_realize_secs.extend(c.untraced.server_realize_secs);
        untraced.op_minus_server_ms.extend(c.untraced.op_minus_server_ms);
        counts.extend(c.counts);
        spans.push(c.spans);
    }
    // Warm-up, traced and untraced ops all sent the same kind of lines.
    let wire_bytes_per_op = ((s2 - s1) as f64 - (s1 - s0) as f64) / tally.attempted() as f64;

    let all: Vec<Span> = spans.iter().flatten().cloned().collect();
    let mut figures = layer_figures(w, &all, &counts);
    figures.push(("wire.bytes_per_op", wire_bytes_per_op, "count"));
    if w != Workload::AnonymizeHandle {
        let payload = med(counts.values().map(|c| c.payload_bytes as f64));
        figures.push(("wire.bytes_per_payload_byte", wire_bytes_per_op / payload, "ratio"));
    }
    if w == Workload::SmallRequests {
        let rtt = all.iter().filter(|s| s.name == "client.health");
        figures.push(("reactor.health_rtt_us", med(rtt.map(|s| s.duration() as f64 / 1e3)), "us"));
    }
    if w == Workload::AnonymizeHandle {
        figures.push(("server.total_ms", med_secs_ms(&untraced.server_total_secs), "ms"));
        figures.push(("server.realize_ms", med_secs_ms(&untraced.server_realize_secs), "ms"));
        figures.push((
            "op_minus_server_ms",
            med(untraced.op_minus_server_ms.iter().copied()),
            "ms",
        ));
        let (speedup, mismatches) = executor_speedup(&env, seed)?;
        figures.push(("executor.speedup", speedup, "ratio"));
        for m in mismatches {
            tally.mismatched += 1;
            errors.push(m);
        }
    }
    let residual = trace::residual_by_op(&all, "op", &STRUCTURAL);
    figures.push(("trace.residual_frac", med(residual.values().copied()), "ratio"));
    let traced_latencies =
        all.iter().filter(|s| s.name == "client").map(|s| s.duration() as f64 / 1e6);
    let overhead = med(traced_latencies) / med(untraced.latencies_ms.into_iter()) - 1.0;
    figures.push(("trace.overhead_frac", overhead, "ratio"));
    Ok(Traced { figures, tally, errors, spans })
}

/// One client thread: warm-up ops, then untraced and traced ops in
/// alternation, so both kinds sample the same stretch of time.
fn traced_client(
    env: &Env,
    replica: &Replica,
    replica_input: Option<&str>,
    client_index: usize,
    origin: Instant,
) -> ClientTrace {
    let mut rec = Recorder::new(origin);
    let mut counts = BTreeMap::new();
    let (mut traced, mut untraced) = (Pass::default(), Pass::default());
    let mut client = match connect(&env.server) {
        Ok(c) => c,
        Err(e) => {
            traced.record_failure(Failure::Errored(e));
            return ClientTrace { spans: rec.into_spans(), counts, traced, untraced };
        }
    };
    let warmup = env.workload.warmup_ops();
    for index in 0..warmup {
        let outcome = env.run_op(&mut client, &env.slot(client_index, index), Calls(None));
        untraced.record(outcome, false);
    }
    for index in warmup..warmup + 2 * traced_ops(env.workload) {
        let slot = env.slot(client_index, index);
        if (index - warmup).is_multiple_of(2) {
            untraced.record(env.run_op(&mut client, &slot, Calls(None)), true);
            continue;
        }
        rec.set_op(slot.id);
        let root = rec.begin("op");
        let span = rec.begin("client");
        let outcome = env.run_op(&mut client, &slot, Calls(Some(&mut rec)));
        rec.end(span);
        let span = rec.begin("replay");
        let mut c = OpCounts::default();
        let replayed = replay_op(env, replica, replica_input, &slot, &mut rec, &mut c);
        rec.end(span);
        rec.end(root);
        counts.insert(slot.id, c);
        match replayed {
            Ok(()) => traced.record(outcome, true),
            Err(e) => traced.record_failure(Failure::Mismatch(e)),
        }
    }
    ClientTrace { spans: rec.into_spans(), counts, traced, untraced }
}

/// Replays one op's server path in process.
fn replay_op(
    env: &Env,
    replica: &Replica,
    replica_input: Option<&str>,
    slot: &OpSlot,
    rec: &mut Recorder,
    counts: &mut OpCounts,
) -> Result<(), String> {
    match env.workload {
        Workload::Transfer => replica.transfer(rec, counts, &env.inputs.csv, slot.id),
        Workload::AnonymizeHandle => {
            let input = replica_input.expect("the replica holds the input");
            let req = anonymize_handle_request(slot.id, input, slot.seed);
            replica.anonymize_handle(rec, counts, req, slot.id)
        }
        Workload::SmallRequests => {
            let req = inline_anonymize_request(slot.id, &env.inputs.csv, slot.seed);
            replica.small_requests(rec, counts, req, slot.id)
        }
    }
}

/// `executor.speedup`: serial `trajdp_core::anonymize` time over
/// `anonymize_parallel` time at the request's two workers, median of a
/// few seeds. Also checks that the parallel run and the traced replay
/// both reproduce the serial release byte for byte.
fn executor_speedup(env: &Env, seed: u64) -> Result<(f64, Vec<String>), String> {
    let mut ratios = Vec::new();
    let mut mismatches = Vec::new();
    for j in 0..SPEEDUP_PAIRS {
        let req = Json::Obj(anonymize_handle_request(j, "ds-0", seed.wrapping_add(1 << 30 | j)));
        let spec = workloads::inline_spec(&req, &env.inputs.csv)?;
        let ds = from_csv(&spec.csv).map_err(|e| e.to_string())?;
        let cfg = spec.config();
        let t = Instant::now();
        let serial = anonymize(&ds, spec.model, &FreqDpConfig { workers: 1, ..cfg })
            .map_err(|e| e.to_string())?;
        let serial_time = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let parallel =
            anonymize_parallel(&ds, spec.model, &cfg, spec.workers).map_err(|e| e.to_string())?;
        ratios.push(serial_time / t.elapsed().as_secs_f64());
        let expected = to_csv(&serial.dataset);
        if to_csv(&parallel.dataset) != expected {
            mismatches.push(format!("anonymize_parallel differs from serial (pair {j})"));
        }
        let mut scratch = Recorder::new(Instant::now());
        let replayed = anonymize_traced(&mut scratch, &mut OpCounts::default(), &spec)
            .map_err(|e| e.to_string())?;
        match replayed {
            Response::Anonymize { data: Payload::Inline(csv), .. } if csv == expected => {}
            _ => mismatches.push(format!("the traced replay differs from serial (pair {j})")),
        }
    }
    Ok((med(ratios.into_iter()), mismatches))
}

fn med(xs: impl Iterator<Item = f64>) -> f64 {
    median(&xs.collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

fn med_secs_ms(xs: &[f64]) -> f64 {
    med(xs.iter().map(|s| s * 1e3))
}

/// The span-derived figures of one workload: self times summed per op
/// by span name, medians over ops.
fn layer_figures(w: Workload, spans: &[Span], counts: &BTreeMap<u64, OpCounts>) -> Vec<Figure> {
    let by_op = trace::self_time_by_op(spans);
    let ms = |names: &[&str]| {
        med(by_op.values().map(|t| names.iter().filter_map(|n| t.get(n)).sum::<u64>() as f64 / 1e6))
    };
    let count = |f: fn(&OpCounts) -> u64| med(counts.values().map(|c| f(c) as f64));
    let per_byte = |names: &[&str], bytes: fn(&OpCounts) -> u64| {
        med(by_op.iter().filter_map(|(op, t)| {
            let b = bytes(counts.get(op)?);
            let ns: u64 = names.iter().filter_map(|n| t.get(n)).sum();
            (b > 0).then(|| ns as f64 / b as f64)
        }))
    };
    let protocol_self = med(by_op.values().map(|t| {
        let get = |n| t.get(n).copied().unwrap_or(0) as f64;
        (get("protocol.parse") - get("json.parse_request")) / 1e6
    }));
    let mut f: Vec<Figure> = vec![
        ("json.parse_request_ms", ms(&["json.parse_request"]), "ms"),
        ("json.parse_response_ms", ms(&["json.parse_response"]), "ms"),
        ("json.render_ms", ms(&["json.render"]), "ms"),
        (
            "json.parse_ns_per_byte",
            per_byte(&["json.parse_request", "json.parse_response"], |c| c.json_bytes),
            "ns/B",
        ),
        ("protocol.parse_ms", protocol_self, "ms"),
        ("api.render_ms", ms(&["api.render"]), "ms"),
    ];
    match w {
        Workload::Transfer => f.extend([
            ("store.append_ms", ms(&["store.append"]), "ms"),
            ("store.commit_ms", ms(&["store.commit"]), "ms"),
            ("store.read_chunk_ms", ms(&["store.read_chunk"]), "ms"),
            ("store.delete_ms", ms(&["store.delete"]), "ms"),
            ("store.pieces_per_op", count(|c| c.pieces), "count"),
        ]),
        Workload::AnonymizeHandle => {
            let edits = |c: &OpCounts| c.global_insertions + c.global_deletions + c.local_edits;
            f.extend([
                ("store.insert_ms", ms(&["store.insert"]), "ms"),
                ("store.delete_ms", ms(&["store.delete"]), "ms"),
                ("jobs.charge_ms", ms(&["jobs.charge"]), "ms"),
                ("csv.parse_ms", ms(&["csv.parse"]), "ms"),
                ("csv.render_ms", ms(&["csv.render"]), "ms"),
                ("csv.parse_ns_per_byte", per_byte(&["csv.parse"], |c| c.csv_bytes), "ns/B"),
                ("freq.compute_ms", ms(&["freq.compute"]), "ms"),
                ("global.perturb_ms", ms(&["global.perturb"]), "ms"),
                ("global.build_ms", ms(&["global.build"]), "ms"),
                ("global.increase_ms", ms(&["global.increase"]), "ms"),
                ("global.decrease_ms", ms(&["global.decrease"]), "ms"),
                ("global.realize_ms", ms(&["global.realize"]), "ms"),
                ("global.insertions", count(|c| c.global_insertions), "count"),
                ("global.deletions", count(|c| c.global_deletions), "count"),
                ("local.ms", ms(&["local"]), "ms"),
                ("local.edits", count(|c| c.local_edits), "count"),
                ("index.cells_visited", count(|c| c.cells_visited), "count"),
                ("index.segments_checked", count(|c| c.segments_checked), "count"),
                (
                    "index.segments_per_edit",
                    med(counts.values().map(|c| c.segments_checked as f64 / edits(c) as f64)),
                    "ratio",
                ),
            ]);
        }
        Workload::SmallRequests => f.extend([
            ("obs.metrics_render_ms", ms(&["obs.metrics_render"]), "ms"),
            ("csv.parse_ms", ms(&["csv.parse"]), "ms"),
            ("csv.render_ms", ms(&["csv.render"]), "ms"),
            ("csv.parse_ns_per_byte", per_byte(&["csv.parse"], |c| c.csv_bytes), "ns/B"),
            ("freq.compute_ms", ms(&["freq.compute"]), "ms"),
            ("local.ms", ms(&["local"]), "ms"),
            ("local.edits", count(|c| c.local_edits), "count"),
        ]),
    }
    f
}
