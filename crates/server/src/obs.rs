//! Observability: a lock-light metrics registry and structured logging.
//!
//! ## Metrics
//!
//! [`Metrics`] is a fixed-shape registry of atomic counters, gauges,
//! and fixed-bucket latency histograms. Almost every cell is a plain
//! [`AtomicU64`]; recording and snapshotting never take a lock shared
//! with request handling, so the instrumentation can sit inside the
//! request hot path (and inside code that *does* hold the
//! store/queue/journal locks) without adding contention — asserted by
//! a no-stall test in `jobs`. The label-keyed tenancy/ε families are
//! the one exception: they sit behind a private mutex that writers
//! only touch outside the store/queue/journal critical sections.
//!
//! The registry instruments every layer of the server: per-verb
//! request counts and latencies, per-[`ErrorCode`] rejection counts,
//! job queue depth and queue-wait/run-time histograms, store
//! bytes/handles/evictions/TTL-sweeps, journal append + fsync latency
//! and compaction counts, connection-pool occupancy, and bytes in/out.
//!
//! [`Metrics::snapshot`] freezes the registry into a plain
//! [`MetricsSnapshot`], which serializes to the typed JSON shape of the
//! `metrics` verb ([`MetricsSnapshot::to_json`]), parses back on the
//! client ([`MetricsSnapshot::from_json`]), and renders a
//! Prometheus-style text exposition ([`MetricsSnapshot::to_prometheus`])
//! for scraping.
//!
//! ## Logging
//!
//! [`init_logger`] arms a process-wide leveled logger writing one line
//! per event to stderr — structured JSON lines with `--log-json`,
//! `key=value` text otherwise. It is off until armed (the CLI's
//! `serve --log-level` arms it), so embedded servers and tests stay
//! silent. Events carry the v2 envelope's request `id` as a
//! correlation id from the service through the job queue into the
//! pipeline's phase-timing report.

use crate::api::{ErrorCode, WIRE_ERROR_CODES};
use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Wire names of every request verb the service dispatches, plus the
/// `"invalid"` bucket for lines whose verb never parsed (bad JSON, an
/// unknown `cmd`, a malformed envelope). Indexed by [`verb_index`].
pub const VERBS: [&str; 16] = [
    "health",
    "info",
    "metrics",
    "gen",
    "anonymize",
    "evaluate",
    "stats",
    "status",
    "cancel",
    "upload",
    "chunk",
    "commit",
    "download",
    "delete",
    "list",
    "invalid",
];

/// Position of a verb name in [`VERBS`]; unknown names land in the
/// trailing `"invalid"` bucket.
pub fn verb_index(verb: &str) -> usize {
    VERBS.iter().position(|v| *v == verb).unwrap_or(VERBS.len() - 1)
}

/// Upper bounds (µs) of the latency histogram buckets, shared by every
/// histogram in the registry. Spans 100 µs – 10 s: below the floor a
/// request is effectively free, above the ceiling it is effectively
/// stuck; either way the overflow buckets still count it.
pub const LATENCY_BOUNDS_US: [u64; 14] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    2_500_000, 10_000_000,
];

/// A fixed-bucket latency histogram made only of atomics. `counts` has
/// one cell per bound plus a trailing overflow cell; `observe` touches
/// exactly three atomics, so it is safe inside any hot path.
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// Records one duration.
    pub fn observe(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let idx =
            LATENCY_BOUNDS_US.iter().position(|&b| us <= b).unwrap_or(LATENCY_BOUNDS_US.len());
        // PANIC: `counts` has `LATENCY_BOUNDS_US.len() + 1` cells and
        // `idx` is at most `LATENCY_BOUNDS_US.len()`.
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// A frozen [`Histogram`]: per-bucket counts (one per
/// [`LATENCY_BOUNDS_US`] bound plus overflow), total count, and total
/// sum in microseconds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; `counts[i]` counts observations ≤
    /// `LATENCY_BOUNDS_US[i]`, the last cell counts the overflow.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, microseconds.
    pub sum_us: u64,
}

impl HistogramSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum_us", Json::from(self.sum_us)),
            ("bounds_us", Json::Arr(LATENCY_BOUNDS_US.iter().map(|&b| Json::from(b)).collect())),
            ("counts", Json::Arr(self.counts.iter().map(|&c| Json::from(c)).collect())),
        ])
    }

    fn from_json(v: &Json) -> Result<HistogramSnapshot, String> {
        let count = v.get("count").and_then(Json::as_u64).ok_or("histogram missing count")?;
        let sum_us = v.get("sum_us").and_then(Json::as_u64).ok_or("histogram missing sum_us")?;
        let counts = match v.get("counts") {
            Some(Json::Arr(a)) => a
                .iter()
                .map(|c| c.as_u64().ok_or_else(|| "histogram count not an integer".to_string()))
                .collect::<Result<Vec<u64>, String>>()?,
            _ => return Err("histogram missing counts".to_string()),
        };
        Ok(HistogramSnapshot { counts, count, sum_us })
    }

    /// Appends this histogram as Prometheus `_bucket`/`_sum`/`_count`
    /// lines for metric `name` with `labels` (e.g. `verb="health"`).
    /// Bucket `le` labels are in **seconds**, formatted so they parse
    /// back to the exact microsecond bound (asserted by a round-trip
    /// test).
    fn write_prometheus(&self, out: &mut String, name: &str, labels: &str) {
        use std::fmt::Write;
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, bound) in LATENCY_BOUNDS_US.iter().enumerate() {
            cumulative += self.counts.get(i).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
                bound_secs(*bound)
            );
        }
        cumulative += self.counts.last().copied().unwrap_or(0);
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", self.sum_us as f64 / 1e6);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", self.count);
    }
}

/// A microsecond bound rendered as seconds for a Prometheus `le`
/// label. `f64` division by 1e6 round-trips: parsing the printed value
/// back and multiplying by 1e6 recovers the bound after rounding.
fn bound_secs(bound_us: u64) -> f64 {
    bound_us as f64 / 1e6
}

/// Per-verb request statistics: a counter and a latency histogram.
#[derive(Debug, Default)]
pub struct VerbStats {
    /// Requests dispatched under this verb.
    pub count: AtomicU64,
    /// End-to-end handling latency (parse → rendered response).
    pub latency: Histogram,
}

/// The process-wide metrics registry. Every cell is an atomic; there
/// is no interior lock, so recording from inside the store/queue/
/// journal critical sections and snapshotting from the `metrics` verb
/// can never contend.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Per-verb request stats, indexed by [`verb_index`].
    pub requests: [VerbStats; VERBS.len()],
    /// Per-code rejection counts, indexed by position in
    /// [`WIRE_ERROR_CODES`].
    pub errors: [AtomicU64; WIRE_ERROR_CODES.len()],
    /// Request bytes read off sockets.
    pub bytes_in: AtomicU64,
    /// Response bytes written to sockets.
    pub bytes_out: AtomicU64,
    /// Currently served connections (gauge).
    pub connections_active: AtomicU64,
    /// Connections accepted over the process lifetime.
    pub connections_total: AtomicU64,
    /// Connections shed at accept because the server was at
    /// `--max-conn` (answered `overloaded`, never served).
    pub connections_shed: AtomicU64,
    /// Connections closed because a partial request line outlived the
    /// read deadline (slowloris / half-open peers).
    pub deadline_closes: AtomicU64,
    /// Wall-clock of each readiness-loop iteration's event handling,
    /// timed from when the poll wait returns (the wait itself is
    /// excluded) — the reactor's heartbeat.
    pub reactor_iterations: Histogram,
    /// Jobs accepted by `submit`.
    pub jobs_submitted: AtomicU64,
    /// Jobs that reached `done`.
    pub jobs_completed: AtomicU64,
    /// Jobs queued or running right now (gauge).
    pub queue_depth: AtomicU64,
    /// Submit → worker pickup.
    pub queue_wait: Histogram,
    /// Worker pickup → done.
    pub run_time: Histogram,
    /// Bytes held by the dataset store (gauge).
    pub store_bytes: AtomicU64,
    /// Handles held by the dataset store (gauge).
    pub store_handles: AtomicU64,
    /// Handles evicted (LRU pressure or TTL expiry).
    pub store_evictions: AtomicU64,
    /// TTL sweep passes run.
    pub store_ttl_sweeps: AtomicU64,
    /// Journal events appended.
    pub journal_appends: AtomicU64,
    /// Durable append latency (write + fsync).
    pub journal_fsync: Histogram,
    /// Journal compactions (rewrites) completed.
    pub journal_compactions: AtomicU64,
    /// Submits refused because the queue was at `--max-queue`
    /// (answered `overloaded`, never enqueued).
    pub jobs_shed: AtomicU64,
    /// Label-keyed families (per-tenant counters, per-dataset ε). These
    /// are the one exception to the atomics-only rule: the key sets are
    /// dynamic, so they live behind a private mutex. Writers only touch
    /// it *outside* the store/queue/journal locks, and the `metrics`
    /// read path takes it alone — it can never participate in a lock
    /// cycle.
    tenancy: Mutex<TenancyMetrics>,
}

/// The label-keyed half of the registry: per-tenant request/rejection
/// counters and the per-dataset settled + in-flight ε gauge.
#[derive(Debug, Default)]
struct TenancyMetrics {
    requests: BTreeMap<String, u64>,
    rejections: BTreeMap<String, u64>,
    eps_spent: BTreeMap<String, f64>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            requests: Default::default(),
            errors: Default::default(),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            connections_shed: AtomicU64::new(0),
            deadline_closes: AtomicU64::new(0),
            reactor_iterations: Histogram::default(),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_wait: Histogram::default(),
            run_time: Histogram::default(),
            store_bytes: AtomicU64::new(0),
            store_handles: AtomicU64::new(0),
            store_evictions: AtomicU64::new(0),
            store_ttl_sweeps: AtomicU64::new(0),
            journal_appends: AtomicU64::new(0),
            journal_fsync: Histogram::default(),
            journal_compactions: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            tenancy: Mutex::default(),
        }
    }
}

impl Metrics {
    /// A fresh registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one handled request: its verb bucket and latency.
    pub fn record_request(&self, verb: &str, elapsed: Duration) {
        // PANIC: `verb_index` returns a position into `VERBS` (falling
        // back to the `invalid` bucket) and `requests` has one cell per
        // verb by construction.
        let stats = &self.requests[verb_index(verb)];
        stats.count.fetch_add(1, Ordering::Relaxed);
        stats.latency.observe(elapsed);
    }

    /// Records one rejection under its stable code.
    pub fn record_error(&self, code: ErrorCode) {
        if let Some(idx) = WIRE_ERROR_CODES.iter().position(|&c| c == code) {
            // PANIC: `idx` is a position into `WIRE_ERROR_CODES` and
            // `errors` has one cell per code by construction.
            self.errors[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes the store gauges (called by the store after mutating
    /// operations, under the store's own lock — the gauge cells are
    /// atomics, so readers never touch that lock).
    pub fn set_store_gauges(&self, bytes: u64, handles: u64) {
        self.store_bytes.store(bytes, Ordering::Relaxed);
        self.store_handles.store(handles, Ordering::Relaxed);
    }

    /// Publishes the job-queue depth gauge.
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// The label-keyed section, recovered from poisoning — dropping
    /// observability forever because one panicking writer held this
    /// lock would be worse than any half-written counter (all values
    /// here are plain numbers, never invariants).
    fn tenancy(&self) -> std::sync::MutexGuard<'_, TenancyMetrics> {
        self.tenancy.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Counts one authenticated request for `tenant`.
    pub fn record_tenant_request(&self, tenant: &str) {
        *self.tenancy().requests.entry(tenant.to_string()).or_insert(0) += 1;
    }

    /// Counts one request refused for `tenant` with `quota-exceeded` or
    /// `budget-exhausted`; other errors (bad tokens included) are only
    /// in the per-code error counters.
    pub fn record_tenant_rejection(&self, tenant: &str) {
        *self.tenancy().rejections.entry(tenant.to_string()).or_insert(0) += 1;
    }

    /// Publishes one dataset's ε-spent gauge (settled + in-flight).
    /// Callers must not hold the queue/journal/store locks — compute
    /// the value inside the critical section, publish after it.
    pub fn set_eps_spent(&self, dataset: &str, eps: f64) {
        self.tenancy().eps_spent.insert(dataset.to_string(), eps);
    }

    /// Drops a deleted dataset's ε gauge row.
    pub fn clear_eps_spent(&self, dataset: &str) {
        self.tenancy().eps_spent.remove(dataset);
    }

    /// Freezes the registry. Reads atomics plus the private label-keyed
    /// mutex — never a lock shared with request handling.
    ///
    /// Verbs and error codes are sorted by name — the order the JSON
    /// wire shape (an object with sorted keys) imposes anyway, so a
    /// snapshot round-trips through [`MetricsSnapshot::from_json`]
    /// unchanged.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut requests: Vec<VerbSnapshot> = VERBS
            .iter()
            .zip(self.requests.iter())
            .map(|(verb, stats)| VerbSnapshot {
                verb: verb.to_string(),
                count: stats.count.load(Ordering::Relaxed),
                latency: stats.latency.snapshot(),
            })
            .collect();
        requests.sort_by(|a, b| a.verb.cmp(&b.verb));
        let mut errors: Vec<(String, u64)> = WIRE_ERROR_CODES
            .iter()
            .zip(self.errors.iter())
            .map(|(code, cell)| (code.as_str().to_string(), cell.load(Ordering::Relaxed)))
            .collect();
        errors.sort();
        let (tenant_requests, tenant_rejections, eps_spent) = {
            let t = self.tenancy();
            (
                t.requests.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                t.rejections.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                t.eps_spent.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            )
        };
        MetricsSnapshot {
            uptime_secs: self.started.elapsed().as_secs(),
            requests,
            errors,
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            connections_total: self.connections_total.load(Ordering::Relaxed),
            connections_shed: self.connections_shed.load(Ordering::Relaxed),
            deadline_closes: self.deadline_closes.load(Ordering::Relaxed),
            reactor_iterations: self.reactor_iterations.snapshot(),
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.snapshot(),
            run_time: self.run_time.snapshot(),
            store_bytes: self.store_bytes.load(Ordering::Relaxed),
            store_handles: self.store_handles.load(Ordering::Relaxed),
            store_evictions: self.store_evictions.load(Ordering::Relaxed),
            store_ttl_sweeps: self.store_ttl_sweeps.load(Ordering::Relaxed),
            journal_appends: self.journal_appends.load(Ordering::Relaxed),
            journal_fsync: self.journal_fsync.snapshot(),
            journal_compactions: self.journal_compactions.load(Ordering::Relaxed),
            jobs_shed: self.jobs_shed.load(Ordering::Relaxed),
            tenant_requests,
            tenant_rejections,
            eps_spent,
        }
    }
}

/// One verb's frozen stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerbSnapshot {
    /// The verb name (one of [`VERBS`]).
    pub verb: String,
    /// Requests dispatched.
    pub count: u64,
    /// Handling latency.
    pub latency: HistogramSnapshot,
}

/// A frozen [`Metrics`] registry — the payload of the `metrics` verb.
/// (`Eq` would be wrong here: the ε gauge values are `f64`.)
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Seconds since the registry (≈ the server) started.
    pub uptime_secs: u64,
    /// Per-verb request stats, in [`VERBS`] order.
    pub requests: Vec<VerbSnapshot>,
    /// `(code, count)` per wire error code, in documentation order.
    pub errors: Vec<(String, u64)>,
    /// Request bytes read.
    pub bytes_in: u64,
    /// Response bytes written.
    pub bytes_out: u64,
    /// Currently served connections.
    pub connections_active: u64,
    /// Connections accepted over the lifetime.
    pub connections_total: u64,
    /// Connections shed at accept (`overloaded`).
    pub connections_shed: u64,
    /// Connections closed at the read deadline.
    pub deadline_closes: u64,
    /// Readiness-loop iteration wall-clock.
    pub reactor_iterations: HistogramSnapshot,
    /// Jobs accepted.
    pub jobs_submitted: u64,
    /// Jobs finished.
    pub jobs_completed: u64,
    /// Jobs queued or running now.
    pub queue_depth: u64,
    /// Submit → pickup latency.
    pub queue_wait: HistogramSnapshot,
    /// Pickup → done latency.
    pub run_time: HistogramSnapshot,
    /// Bytes held by the store.
    pub store_bytes: u64,
    /// Handles held by the store.
    pub store_handles: u64,
    /// Evictions performed.
    pub store_evictions: u64,
    /// TTL sweep passes.
    pub store_ttl_sweeps: u64,
    /// Journal events appended.
    pub journal_appends: u64,
    /// Durable append latency.
    pub journal_fsync: HistogramSnapshot,
    /// Journal compactions.
    pub journal_compactions: u64,
    /// Submits refused at `--max-queue`.
    pub jobs_shed: u64,
    /// `(tenant, count)` of authenticated requests, sorted by tenant.
    pub tenant_requests: Vec<(String, u64)>,
    /// `(tenant, count)` of rejected requests, sorted by tenant.
    pub tenant_rejections: Vec<(String, u64)>,
    /// `(dataset, ε)` settled + in-flight spend, sorted by handle.
    pub eps_spent: Vec<(String, f64)>,
}

impl MetricsSnapshot {
    /// The typed wire shape of the `metrics` verb (identical across
    /// protocol versions — the verb is new, nothing is frozen).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("uptime_secs", Json::from(self.uptime_secs)),
            (
                "requests",
                Json::Obj(
                    self.requests
                        .iter()
                        .map(|r| {
                            (
                                r.verb.clone(),
                                Json::obj([
                                    ("count", Json::from(r.count)),
                                    ("latency", r.latency.to_json()),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "errors",
                Json::Obj(
                    self.errors.iter().map(|(code, n)| (code.clone(), Json::from(*n))).collect(),
                ),
            ),
            (
                "jobs",
                Json::obj([
                    ("submitted", Json::from(self.jobs_submitted)),
                    ("completed", Json::from(self.jobs_completed)),
                    ("shed", Json::from(self.jobs_shed)),
                    ("queue_depth", Json::from(self.queue_depth)),
                    ("queue_wait", self.queue_wait.to_json()),
                    ("run_time", self.run_time.to_json()),
                ]),
            ),
            (
                "tenants",
                Json::obj([
                    (
                        "requests",
                        Json::Obj(
                            self.tenant_requests
                                .iter()
                                .map(|(t, n)| (t.clone(), Json::from(*n)))
                                .collect(),
                        ),
                    ),
                    (
                        "rejections",
                        Json::Obj(
                            self.tenant_rejections
                                .iter()
                                .map(|(t, n)| (t.clone(), Json::from(*n)))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "eps_spent",
                Json::Obj(
                    self.eps_spent.iter().map(|(ds, e)| (ds.clone(), Json::from(*e))).collect(),
                ),
            ),
            (
                "store",
                Json::obj([
                    ("bytes", Json::from(self.store_bytes)),
                    ("handles", Json::from(self.store_handles)),
                    ("evictions", Json::from(self.store_evictions)),
                    ("ttl_sweeps", Json::from(self.store_ttl_sweeps)),
                ]),
            ),
            (
                "journal",
                Json::obj([
                    ("appends", Json::from(self.journal_appends)),
                    ("fsync", self.journal_fsync.to_json()),
                    ("compactions", Json::from(self.journal_compactions)),
                ]),
            ),
            (
                "connections",
                Json::obj([
                    ("active", Json::from(self.connections_active)),
                    ("total", Json::from(self.connections_total)),
                ]),
            ),
            (
                "reactor",
                Json::obj([
                    ("shed", Json::from(self.connections_shed)),
                    ("deadline_closes", Json::from(self.deadline_closes)),
                    ("iterations", self.reactor_iterations.to_json()),
                ]),
            ),
            (
                "bytes",
                Json::obj([("in", Json::from(self.bytes_in)), ("out", Json::from(self.bytes_out))]),
            ),
        ])
    }

    /// Parses the wire shape back — the client half of the `metrics`
    /// verb. Strict: a missing section is a protocol violation.
    pub fn from_json(v: &Json) -> Result<MetricsSnapshot, String> {
        let section =
            |key: &str| v.get(key).ok_or_else(|| format!("metrics missing section {key:?}"));
        let num = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("metrics missing integer member {key:?}"))
        };
        let requests = match section("requests")? {
            Json::Obj(map) => map
                .iter()
                .map(|(verb, stats)| {
                    Ok(VerbSnapshot {
                        verb: verb.clone(),
                        count: num(stats, "count")?,
                        latency: HistogramSnapshot::from_json(
                            stats.get("latency").ok_or("verb stats missing latency")?,
                        )?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("requests must be an object".to_string()),
        };
        let errors = match section("errors")? {
            Json::Obj(map) => map
                .iter()
                .map(|(code, n)| {
                    n.as_u64()
                        .map(|n| (code.clone(), n))
                        .ok_or_else(|| format!("error count for {code:?} not an integer"))
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("errors must be an object".to_string()),
        };
        let jobs = section("jobs")?;
        let store = section("store")?;
        let journal = section("journal")?;
        let connections = section("connections")?;
        let reactor = section("reactor")?;
        let bytes = section("bytes")?;
        let tenants = section("tenants")?;
        let counter_map = |obj: Option<&Json>, what: &str| match obj {
            Some(Json::Obj(map)) => map
                .iter()
                .map(|(k, n)| {
                    n.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("{what} count for {k:?} not an integer"))
                })
                .collect::<Result<Vec<_>, String>>(),
            _ => Err(format!("{what} must be an object")),
        };
        let eps_spent = match section("eps_spent")? {
            Json::Obj(map) => map
                .iter()
                .map(|(ds, e)| {
                    e.as_f64()
                        .map(|e| (ds.clone(), e))
                        .ok_or_else(|| format!("eps_spent for {ds:?} not a number"))
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("eps_spent must be an object".to_string()),
        };
        Ok(MetricsSnapshot {
            uptime_secs: num(v, "uptime_secs")?,
            requests,
            errors,
            bytes_in: num(bytes, "in")?,
            bytes_out: num(bytes, "out")?,
            connections_active: num(connections, "active")?,
            connections_total: num(connections, "total")?,
            connections_shed: num(reactor, "shed")?,
            deadline_closes: num(reactor, "deadline_closes")?,
            reactor_iterations: HistogramSnapshot::from_json(
                reactor.get("iterations").ok_or("reactor missing iterations")?,
            )?,
            jobs_submitted: num(jobs, "submitted")?,
            jobs_completed: num(jobs, "completed")?,
            queue_depth: num(jobs, "queue_depth")?,
            queue_wait: HistogramSnapshot::from_json(
                jobs.get("queue_wait").ok_or("jobs missing queue_wait")?,
            )?,
            run_time: HistogramSnapshot::from_json(
                jobs.get("run_time").ok_or("jobs missing run_time")?,
            )?,
            store_bytes: num(store, "bytes")?,
            store_handles: num(store, "handles")?,
            store_evictions: num(store, "evictions")?,
            store_ttl_sweeps: num(store, "ttl_sweeps")?,
            journal_appends: num(journal, "appends")?,
            journal_fsync: HistogramSnapshot::from_json(
                journal.get("fsync").ok_or("journal missing fsync")?,
            )?,
            journal_compactions: num(journal, "compactions")?,
            jobs_shed: num(jobs, "shed")?,
            tenant_requests: counter_map(tenants.get("requests"), "tenant request")?,
            tenant_rejections: counter_map(tenants.get("rejections"), "tenant rejection")?,
            eps_spent,
        })
    }

    /// Renders a Prometheus-style text exposition of the snapshot.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "trajdp_uptime_seconds {}", self.uptime_secs);
        for r in &self.requests {
            let _ = writeln!(out, "trajdp_requests_total{{verb=\"{}\"}} {}", r.verb, r.count);
        }
        for r in &self.requests {
            r.latency.write_prometheus(
                &mut out,
                "trajdp_request_latency_seconds",
                &format!("verb=\"{}\"", r.verb),
            );
        }
        for (code, n) in &self.errors {
            let _ = writeln!(out, "trajdp_errors_total{{code=\"{code}\"}} {n}");
        }
        let _ = writeln!(out, "trajdp_jobs_submitted_total {}", self.jobs_submitted);
        let _ = writeln!(out, "trajdp_jobs_completed_total {}", self.jobs_completed);
        let _ = writeln!(out, "trajdp_jobs_shed_total {}", self.jobs_shed);
        let _ = writeln!(out, "trajdp_job_queue_depth {}", self.queue_depth);
        for (tenant, n) in &self.tenant_requests {
            let _ = writeln!(out, "trajdp_tenant_requests_total{{tenant=\"{tenant}\"}} {n}");
        }
        for (tenant, n) in &self.tenant_rejections {
            let _ = writeln!(out, "trajdp_tenant_rejections_total{{tenant=\"{tenant}\"}} {n}");
        }
        for (dataset, eps) in &self.eps_spent {
            let _ = writeln!(out, "trajdp_eps_spent{{dataset=\"{dataset}\"}} {eps}");
        }
        self.queue_wait.write_prometheus(&mut out, "trajdp_job_queue_wait_seconds", "");
        self.run_time.write_prometheus(&mut out, "trajdp_job_run_seconds", "");
        let _ = writeln!(out, "trajdp_store_bytes {}", self.store_bytes);
        let _ = writeln!(out, "trajdp_store_handles {}", self.store_handles);
        let _ = writeln!(out, "trajdp_store_evictions_total {}", self.store_evictions);
        let _ = writeln!(out, "trajdp_store_ttl_sweeps_total {}", self.store_ttl_sweeps);
        let _ = writeln!(out, "trajdp_journal_appends_total {}", self.journal_appends);
        self.journal_fsync.write_prometheus(&mut out, "trajdp_journal_fsync_seconds", "");
        let _ = writeln!(out, "trajdp_journal_compactions_total {}", self.journal_compactions);
        let _ = writeln!(out, "trajdp_connections_active {}", self.connections_active);
        let _ = writeln!(out, "trajdp_connections_total {}", self.connections_total);
        let _ = writeln!(out, "trajdp_connections_shed_total {}", self.connections_shed);
        let _ = writeln!(out, "trajdp_deadline_closes_total {}", self.deadline_closes);
        self.reactor_iterations.write_prometheus(&mut out, "trajdp_reactor_iteration_seconds", "");
        let _ = writeln!(out, "trajdp_bytes_in_total {}", self.bytes_in);
        let _ = writeln!(out, "trajdp_bytes_out_total {}", self.bytes_out);
        out
    }
}

/// Wall-clock phase timings of one anonymize run, in seconds. The
/// build/increase/decrease/realize stages come from the core's
/// modification phase ([`trajdp_core::global::StageTimings`]); `global`
/// and `local` are the mechanism-level walls the pipeline driver
/// already measures; `parse` and `render` are the CSV codec's two
/// ends; `total` is the end-to-end request wall.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimings {
    /// End-to-end anonymize wall (parse → released dataset).
    pub total_secs: f64,
    /// CSV parse of the input dataset (the first part of `total`).
    pub parse_secs: f64,
    /// Global mechanism wall (perturbation + modification).
    pub global_secs: f64,
    /// Local mechanism wall.
    pub local_secs: f64,
    /// Modification planning: editor construction + edit-step planning.
    pub build_secs: f64,
    /// TF-increase edits.
    pub increase_secs: f64,
    /// TF-decrease edits.
    pub decrease_secs: f64,
    /// Total modification (realize) wall.
    pub realize_secs: f64,
    /// CSV render of the released dataset (after `total` ends).
    pub render_secs: f64,
}

impl PhaseTimings {
    /// The wire shape (`"timings"` member of v2 anonymize/status
    /// responses).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("total_secs", Json::from(self.total_secs)),
            ("parse_secs", Json::from(self.parse_secs)),
            ("global_secs", Json::from(self.global_secs)),
            ("local_secs", Json::from(self.local_secs)),
            ("build_secs", Json::from(self.build_secs)),
            ("increase_secs", Json::from(self.increase_secs)),
            ("decrease_secs", Json::from(self.decrease_secs)),
            ("realize_secs", Json::from(self.realize_secs)),
            ("render_secs", Json::from(self.render_secs)),
        ])
    }
}

// ---------------------------------------------------------------------
// Structured logging
// ---------------------------------------------------------------------

/// Log severity. Ordered: a logger at level `Info` emits
/// `Error`/`Warn`/`Info` and drops `Debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Nothing is emitted (the un-armed default).
    Off,
    /// Unexpected failures only.
    Error,
    /// Rejections and degraded operation.
    Warn,
    /// One line per request / job transition.
    Info,
    /// Everything, including internal transitions.
    Debug,
}

impl LogLevel {
    /// Parses a CLI level name.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "off" => Some(LogLevel::Off),
            "error" => Some(LogLevel::Error),
            "warn" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

struct Logger {
    level: LogLevel,
    json: bool,
}

static LOGGER: OnceLock<Logger> = OnceLock::new();

/// Arms the process-wide logger. First call wins; returns `false` if a
/// logger was already armed (the settings keep their first value —
/// re-arming mid-flight would tear half-written configuration).
pub fn init_logger(level: LogLevel, json: bool) -> bool {
    LOGGER.set(Logger { level, json }).is_ok()
}

/// Whether an event at `level` would be emitted — lets callers skip
/// building field lists when logging is off (the common case for
/// embedded servers and tests).
pub fn log_enabled(level: LogLevel) -> bool {
    match LOGGER.get() {
        Some(logger) => level <= logger.level && logger.level != LogLevel::Off,
        None => false,
    }
}

/// Emits one structured event to stderr: JSON lines when the logger
/// was armed with `json`, `key=value` text otherwise. Fields are
/// `(name, value)` pairs; the correlation id travels as a `cid` field.
pub fn log_event(level: LogLevel, msg: &str, fields: &[(&str, Json)]) {
    let Some(logger) = LOGGER.get() else { return };
    if level > logger.level || logger.level == LogLevel::Off {
        return;
    }
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    if logger.json {
        let mut obj: std::collections::BTreeMap<String, Json> = std::collections::BTreeMap::new();
        obj.insert("ts_ms".to_string(), Json::from(ts));
        obj.insert("level".to_string(), Json::from(level.as_str()));
        obj.insert("msg".to_string(), Json::from(msg));
        for (k, v) in fields {
            obj.insert((*k).to_string(), v.clone());
        }
        eprintln!("{}", Json::Obj(obj));
    } else {
        use std::fmt::Write;
        let mut line = format!("{ts} {} {msg}", level.as_str());
        for (k, v) in fields {
            match v {
                Json::Str(s) => {
                    let _ = write!(line, " {k}={s}");
                }
                other => {
                    let _ = write!(line, " {k}={other}");
                }
            }
        }
        eprintln!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_latencies_and_sums() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(50)); // ≤ 100 → bucket 0
        h.observe(Duration::from_micros(100)); // ≤ 100 → bucket 0
        h.observe(Duration::from_micros(101)); // ≤ 250 → bucket 1
        h.observe(Duration::from_secs(60)); // overflow
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_us, 50 + 100 + 101 + 60_000_000);
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[1], 1);
        assert_eq!(*s.counts.last().unwrap(), 1);
        assert_eq!(s.counts.len(), LATENCY_BOUNDS_US.len() + 1);
    }

    #[test]
    fn histogram_bounds_round_trip_through_the_text_exposition() {
        // Every `le` label printed by the exposition must parse back to
        // the exact microsecond bucket bound — a scraper and this
        // server must agree on the boundaries.
        let h = Histogram::default();
        h.observe(Duration::from_millis(3));
        let mut text = String::new();
        h.snapshot().write_prometheus(&mut text, "t", "verb=\"x\"");
        let mut seen = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("t_bucket{verb=\"x\",le=\"") {
                let le = rest.split('"').next().unwrap();
                if le == "+Inf" {
                    continue;
                }
                let secs: f64 = le.parse().expect("le label must parse as f64");
                seen.push((secs * 1e6).round() as u64);
            }
        }
        assert_eq!(seen, LATENCY_BOUNDS_US.to_vec(), "bounds must round-trip exactly");
        // And the cumulative +Inf bucket equals the total count.
        assert!(text.contains("le=\"+Inf\"} 1"));
        assert!(text.contains("t_count{verb=\"x\"} 1"));
    }

    #[test]
    fn every_error_code_increments_its_counter_exactly_once() {
        let m = Metrics::new();
        for code in WIRE_ERROR_CODES {
            m.record_error(code);
        }
        let snap = m.snapshot();
        assert_eq!(snap.errors.len(), WIRE_ERROR_CODES.len());
        for code in WIRE_ERROR_CODES {
            let n = snap.errors.iter().find(|(name, _)| name == code.as_str()).map(|(_, n)| *n);
            assert_eq!(n, Some(1), "{} must have been incremented exactly once", code.as_str());
        }
        // The client-side-only code has no wire counter and must not
        // disturb the registry.
        m.record_error(ErrorCode::Transport);
        let snap = m.snapshot();
        assert!(snap.errors.iter().all(|(_, n)| *n == 1));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = Metrics::new();
        m.record_request("health", Duration::from_micros(120));
        m.record_request("anonymize", Duration::from_millis(80));
        m.record_request("nonsense", Duration::from_micros(5)); // → invalid
        m.record_error(ErrorCode::BadRequest);
        m.bytes_in.fetch_add(100, Ordering::Relaxed);
        m.bytes_out.fetch_add(250, Ordering::Relaxed);
        m.jobs_submitted.fetch_add(2, Ordering::Relaxed);
        m.jobs_completed.fetch_add(1, Ordering::Relaxed);
        m.set_queue_depth(1);
        m.queue_wait.observe(Duration::from_micros(900));
        m.run_time.observe(Duration::from_millis(12));
        m.set_store_gauges(4096, 3);
        m.store_evictions.fetch_add(1, Ordering::Relaxed);
        m.journal_appends.fetch_add(3, Ordering::Relaxed);
        m.journal_fsync.observe(Duration::from_micros(400));
        m.journal_compactions.fetch_add(1, Ordering::Relaxed);
        m.connections_shed.fetch_add(2, Ordering::Relaxed);
        m.deadline_closes.fetch_add(1, Ordering::Relaxed);
        m.reactor_iterations.observe(Duration::from_micros(30));
        m.jobs_shed.fetch_add(4, Ordering::Relaxed);
        m.record_tenant_request("acme");
        m.record_tenant_request("acme");
        m.record_tenant_rejection("acme");
        m.record_tenant_request("default");
        m.set_eps_spent("ds-1", 1.25);
        m.set_eps_spent("ds-2", 0.1 + 0.2); // deliberately non-representable
        let snap = m.snapshot();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        // Spot checks on the typed content.
        let health = parsed.requests.iter().find(|r| r.verb == "health").unwrap();
        assert_eq!(health.count, 1);
        let invalid = parsed.requests.iter().find(|r| r.verb == "invalid").unwrap();
        assert_eq!(invalid.count, 1, "unknown verbs land in the invalid bucket");
        assert_eq!(parsed.errors.iter().find(|(c, _)| c == "bad-request").unwrap().1, 1);
        assert_eq!(parsed.store_bytes, 4096);
        assert_eq!(parsed.store_handles, 3);
        assert_eq!(parsed.connections_shed, 2);
        assert_eq!(parsed.deadline_closes, 1);
        assert_eq!(parsed.reactor_iterations.count, 1);
        assert_eq!(parsed.jobs_shed, 4);
        assert_eq!(
            parsed.tenant_requests,
            vec![("acme".to_string(), 2), ("default".to_string(), 1)]
        );
        assert_eq!(parsed.tenant_rejections, vec![("acme".to_string(), 1)]);
        // ε survives the JSON round trip bit-exactly (shortest
        // round-trip float formatting), including sums that are not
        // exactly representable.
        assert_eq!(
            parsed.eps_spent,
            vec![("ds-1".to_string(), 1.25), ("ds-2".to_string(), 0.1 + 0.2)]
        );
    }

    #[test]
    fn eps_gauge_rows_can_be_cleared() {
        let m = Metrics::new();
        m.set_eps_spent("ds-1", 0.5);
        m.set_eps_spent("ds-1", 0.75); // a gauge: set replaces
        assert_eq!(m.snapshot().eps_spent, vec![("ds-1".to_string(), 0.75)]);
        m.clear_eps_spent("ds-1");
        assert!(m.snapshot().eps_spent.is_empty());
    }

    #[test]
    fn prometheus_exposition_covers_every_family() {
        let m = Metrics::new();
        m.record_request("health", Duration::from_micros(10));
        m.record_error(ErrorCode::JobNotFound);
        m.record_tenant_request("acme");
        m.record_tenant_rejection("acme");
        m.set_eps_spent("ds-1", 0.5);
        let text = m.snapshot().to_prometheus();
        for family in [
            "trajdp_uptime_seconds",
            "trajdp_requests_total{verb=\"health\"} 1",
            "trajdp_request_latency_seconds_bucket{verb=\"health\",le=\"+Inf\"} 1",
            "trajdp_errors_total{code=\"job-not-found\"} 1",
            "trajdp_jobs_submitted_total",
            "trajdp_jobs_shed_total",
            "trajdp_job_queue_depth",
            "trajdp_job_queue_wait_seconds_count",
            "trajdp_store_bytes",
            "trajdp_journal_fsync_seconds_count",
            "trajdp_connections_active",
            "trajdp_connections_shed_total",
            "trajdp_deadline_closes_total",
            "trajdp_reactor_iteration_seconds_count",
            "trajdp_bytes_in_total",
            "trajdp_tenant_requests_total{tenant=\"acme\"} 1",
            "trajdp_tenant_rejections_total{tenant=\"acme\"} 1",
            "trajdp_eps_spent{dataset=\"ds-1\"} 0.5",
        ] {
            assert!(text.contains(family), "exposition must contain {family}:\n{text}");
        }
    }

    #[test]
    fn verb_index_maps_known_and_unknown() {
        assert_eq!(VERBS[verb_index("health")], "health");
        assert_eq!(VERBS[verb_index("metrics")], "metrics");
        assert_eq!(VERBS[verb_index("no-such-verb")], "invalid");
    }

    #[test]
    fn log_levels_order_and_parse() {
        assert!(LogLevel::Error < LogLevel::Debug);
        assert_eq!(LogLevel::parse("info"), Some(LogLevel::Info));
        assert_eq!(LogLevel::parse("bogus"), None);
        // Un-armed logger: nothing enabled (tests stay silent).
        // (init_logger is process-global; arming it here would leak
        // into sibling tests, so only the un-armed path is asserted.)
        if LOGGER.get().is_none() {
            assert!(!log_enabled(LogLevel::Error));
        }
        log_event(LogLevel::Info, "noop", &[("k", Json::from("v"))]);
    }

    #[test]
    fn phase_timings_serialize() {
        let t = PhaseTimings {
            total_secs: 1.5,
            parse_secs: 0.05,
            global_secs: 1.0,
            local_secs: 0.25,
            build_secs: 0.1,
            increase_secs: 0.4,
            decrease_secs: 0.3,
            realize_secs: 0.9,
            render_secs: 0.125,
        };
        let v = t.to_json();
        assert_eq!(v.get("total_secs").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("parse_secs").and_then(Json::as_f64), Some(0.05));
        assert_eq!(v.get("realize_secs").and_then(Json::as_f64), Some(0.9));
        assert_eq!(v.get("render_secs").and_then(Json::as_f64), Some(0.125));
    }
}
