//! In-process replay of the server's path for one op, with a span
//! around every call into a layer's public functions.
//!
//! The replica owns its own store (mirrored to disk, as under
//! `--state-dir`) and journaled job queue, and handles each request the
//! way the server's dispatch does: client-side request render, JSON
//! parse, protocol parse, the verb's handler, response render, and the
//! client-side response parse. The core pipeline runs phase by phase at
//! one worker so its work counts repeat exactly.

use crate::trace::Recorder;
use crate::workloads::{request, PIECE_BYTES};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use trajdp_core::freq::FrequencyAnalysis;
use trajdp_core::global::{perturb_tf_shard, realize_tf, GlobalReport};
use trajdp_core::local::{local_unit_streamed, merge_local_units, LocalReport};
use trajdp_core::{FreqDpConfig, Model};
use trajdp_model::csv::{from_csv, to_csv};
use trajdp_model::Dataset;
use trajdp_server::api::{self, DatasetRow, Payload, Response};
use trajdp_server::jobs::JobQueue;
use trajdp_server::protocol::{self, AnonymizeSpec, Request};
use trajdp_server::store::StoreConfig;
use trajdp_server::{json, ApiError, DatasetStore, Json, Metrics, PhaseTimings, DEFAULT_TENANT};

/// Work counted while replaying one op.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    /// Bytes handed to `json::parse` (requests and responses).
    pub json_bytes: u64,
    /// Bytes handed to `from_csv`.
    pub csv_bytes: u64,
    /// CSV bytes carried in request or response payloads.
    pub payload_bytes: u64,
    /// Chunk and download pieces.
    pub pieces: u64,
    /// Global-phase point insertions.
    pub global_insertions: u64,
    /// Global-phase point deletions.
    pub global_deletions: u64,
    /// Local-phase insertions plus deletions.
    pub local_edits: u64,
    /// Grid cells visited by the modification searches.
    pub cells_visited: u64,
    /// Segments whose exact distance the searches computed.
    pub segments_checked: u64,
}

/// The server's state for replays: store, job queue, metrics registry.
pub struct Replica {
    store: DatasetStore,
    jobs: JobQueue,
    metrics: Arc<Metrics>,
}

impl Replica {
    /// A replica persisting under `dir`, like a server with
    /// `--state-dir dir`.
    pub fn open(dir: &Path) -> Result<Replica, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let metrics = Arc::new(Metrics::new());
        let store = DatasetStore::with_config(StoreConfig {
            dir: Some(dir.join("datasets")),
            ..StoreConfig::default()
        })
        .map_err(|e| format!("cannot open the replica store: {e}"))?
        .with_metrics(Arc::clone(&metrics));
        let jobs = JobQueue::with_journal(store.clone(), &dir.join("jobs.jsonl"))?
            .with_metrics(Arc::clone(&metrics));
        Ok(Replica { store, jobs, metrics })
    }

    /// Stores `csv` as a committed input handle, outside any op.
    pub fn adopt(&self, csv: &str) -> Result<String, String> {
        self.store.insert(csv.to_string()).map(|(id, _)| id).map_err(|e| e.to_string())
    }

    /// One request/response exchange, replayed: returns the parsed
    /// response, or an error when it is not `ok:true`.
    pub fn exchange(
        &self,
        rec: &mut Recorder,
        counts: &mut OpCounts,
        req: BTreeMap<String, Json>,
    ) -> Result<Json, String> {
        let req = Json::Obj(req);
        let line = rec.time("json.render", || req.to_string());
        counts.json_bytes += line.len() as u64;
        // `parse_request_line` parses the JSON itself; this separate
        // parse of the same line measures that part, so the protocol
        // layer's own share is the difference.
        let _ = rec.time("json.parse_request", || json::parse(&line));
        let (envelope, parsed) = rec.time("protocol.parse", || protocol::parse_request_line(&line));
        let is_metrics = matches!(parsed, Ok(Request::Metrics));
        let result = parsed.and_then(|r| self.dispatch(rec, counts, r));
        let render_span = if is_metrics { "obs.metrics_render" } else { "api.render" };
        let response = rec.time(render_span, || api::render(&envelope, result));
        let out = rec.time("json.render", || response.to_string());
        drop(response);
        counts.json_bytes += out.len() as u64;
        let parsed = rec
            .time("json.parse_response", || json::parse(&out))
            .map_err(|e| format!("replayed response does not parse: {e}"))?;
        match parsed.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(parsed),
            _ => Err(format!("replayed request failed: {:?}", parsed.get("error"))),
        }
    }

    /// The verb handlers, as the server's dispatch runs them for the
    /// default tenant of an open server.
    fn dispatch(
        &self,
        rec: &mut Recorder,
        counts: &mut OpCounts,
        req: Request,
    ) -> Result<Response, ApiError> {
        match req {
            Request::Health => rec.time("service.dispatch", || {
                Ok(Response::Health {
                    outstanding_jobs: self.jobs.outstanding(),
                    stored_datasets: self.store.count(),
                })
            }),
            Request::Info => rec.time("service.dispatch", || {
                Ok(Response::Info {
                    workers: crate::server::SERVER_WORKERS,
                    max_datasets: trajdp_server::store::MAX_STORED_DATASETS,
                    max_connections: 1024,
                    read_timeout_secs: 10,
                    uptime_secs: 0,
                    started_at: 0,
                    state_dir: true,
                    tenants: 0,
                    eps_budget: None,
                })
            }),
            Request::Metrics => rec.time("obs.metrics_render", || {
                Ok(Response::Metrics { snapshot: Box::new(self.metrics.snapshot()) })
            }),
            Request::List => rec.time("service.dispatch", || {
                let mut eps = self.jobs.eps_overview();
                let default_budget = self.jobs.default_eps_budget();
                let datasets = self
                    .store
                    .list()
                    .into_iter()
                    .map(|(dataset, bytes, state, pins)| {
                        let (eps_spent, eps_budget) =
                            eps.remove(&dataset).unwrap_or((0.0, default_budget));
                        DatasetRow { dataset, bytes, state, pins, eps_spent, eps_budget }
                    })
                    .collect();
                Ok(Response::List { jobs: self.jobs.list(), datasets })
            }),
            Request::Upload { .. } => rec.time("store.begin", || {
                self.store
                    .begin_for(Some(DEFAULT_TENANT))
                    .map(|dataset| Response::Upload { dataset })
            }),
            Request::Chunk { dataset, data } => {
                counts.pieces += 1;
                counts.payload_bytes += data.len() as u64;
                rec.time("store.append", || protocol::run_chunk(&self.store, &dataset, &data))
            }
            Request::Commit { dataset } => {
                rec.time("store.commit", || protocol::run_commit(&self.store, &dataset))
            }
            Request::Download { dataset, offset, max_bytes } => {
                let piece = rec.time("store.read_chunk", || {
                    protocol::run_download(&self.store, &dataset, offset, max_bytes)
                })?;
                counts.pieces += 1;
                if let Response::Download { data, .. } = &piece {
                    counts.payload_bytes += data.len() as u64;
                }
                Ok(piece)
            }
            Request::Delete { dataset } => rec.time("store.delete", || {
                let response = protocol::run_delete(&self.store, &dataset)?;
                self.jobs.reset_eps(&dataset);
                Ok(response)
            }),
            Request::Anonymize { params, asynchronous: false } => {
                let spec = rec.time("store.resolve", || params.resolve(&self.store))?;
                if let Some(handle) = &spec.source {
                    rec.time("jobs.charge", || self.jobs.charge_sync(handle, spec.epsilon))?;
                } else {
                    counts.payload_bytes += spec.csv.len() as u64;
                }
                let response = anonymize_traced(rec, counts, &spec)?;
                if spec.store_result {
                    rec.time("store.insert", || {
                        protocol::store_result(response, &self.store, false)
                    })
                } else {
                    if let Response::Anonymize { data: Payload::Inline(csv), .. } = &response {
                        counts.payload_bytes += csv.len() as u64;
                    }
                    Ok(response)
                }
            }
            _ => Err(ApiError::bad_request("verb outside the benchmark's workloads")),
        }
    }

    /// The `transfer` op: upload in pieces, commit, download in pieces,
    /// compare, delete.
    pub fn transfer(
        &self,
        rec: &mut Recorder,
        counts: &mut OpCounts,
        csv: &str,
        id: u64,
    ) -> Result<(), String> {
        let opened = self.exchange(rec, counts, request("upload", id, []))?;
        let handle = member_str(&opened, "dataset")?;
        let mut offset = 0;
        while offset < csv.len() {
            let end = (offset + PIECE_BYTES).min(csv.len());
            let data = csv.get(offset..end).ok_or("input is not ASCII")?;
            let req = request(
                "chunk",
                id,
                [("dataset", Json::from(handle.as_str())), ("data", data.into())],
            );
            self.exchange(rec, counts, req)?;
            offset = end;
        }
        let committed = self.exchange(
            rec,
            counts,
            request("commit", id, [("dataset", Json::from(handle.as_str()))]),
        )?;
        if committed.get("bytes").and_then(Json::as_u64) != Some(csv.len() as u64) {
            return Err("replayed commit does not account for every byte".to_string());
        }
        let mut back = String::new();
        loop {
            let req = request(
                "download",
                id,
                [
                    ("dataset", Json::from(handle.as_str())),
                    ("offset", Json::from(back.len())),
                    ("max_bytes", Json::from(PIECE_BYTES)),
                ],
            );
            let piece = self.exchange(rec, counts, req)?;
            back.push_str(&member_str(&piece, "data")?);
            if piece.get("eof").and_then(Json::as_bool) == Some(true) {
                break;
            }
        }
        self.exchange(
            rec,
            counts,
            request("delete", id, [("dataset", Json::from(handle.as_str()))]),
        )?;
        if back != csv {
            return Err("replayed download differs from the upload".to_string());
        }
        Ok(())
    }

    /// The `anonymize-handle` op: anonymize by handle with the result
    /// stored, then delete the result.
    pub fn anonymize_handle(
        &self,
        rec: &mut Recorder,
        counts: &mut OpCounts,
        req: BTreeMap<String, Json>,
        id: u64,
    ) -> Result<(), String> {
        let reply = self.exchange(rec, counts, req)?;
        let result = member_str(&reply, "dataset")?;
        self.exchange(rec, counts, request("delete", id, [("dataset", Json::from(result))]))?;
        Ok(())
    }

    /// The `small-requests` op: health, info, inline anonymize, list,
    /// metrics.
    pub fn small_requests(
        &self,
        rec: &mut Recorder,
        counts: &mut OpCounts,
        anonymize: BTreeMap<String, Json>,
        id: u64,
    ) -> Result<(), String> {
        self.exchange(rec, counts, request("health", id, []))?;
        self.exchange(rec, counts, request("info", id, []))?;
        self.exchange(rec, counts, anonymize)?;
        self.exchange(rec, counts, request("list", id, []))?;
        self.exchange(rec, counts, request("metrics", id, []))?;
        Ok(())
    }
}

fn member_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("replayed response lacks {key:?}"))
}

/// `protocol::run_anonymize`, phase by phase at one worker: CSV parse,
/// frequency analysis, the model's mechanisms in order (as
/// `trajdp_core::run_model` runs them), CSV render.
pub fn anonymize_traced(
    rec: &mut Recorder,
    counts: &mut OpCounts,
    spec: &AnonymizeSpec,
) -> Result<Response, ApiError> {
    let started = rec.now();
    counts.csv_bytes += spec.csv.len() as u64;
    let ds = rec
        .time("csv.parse", || from_csv(&spec.csv))
        .map_err(|e| ApiError::invalid_dataset(format!("cannot parse csv: {e}")))?;
    let cfg = FreqDpConfig { workers: 1, ..spec.config() };
    let analysis = rec.time("freq.compute", || FrequencyAnalysis::compute(&ds, cfg.m));
    let (out, global, local) = match spec.model {
        Model::PureGlobal => {
            let (out, g) = global_phase(rec, &ds, &analysis, &cfg)?;
            (out, Some(g), None)
        }
        Model::PureLocal => {
            let (out, l) = local_phase(rec, &ds, &analysis, &cfg)?;
            (out, None, Some(l))
        }
        Model::Combined => {
            let (mid, g) = global_phase(rec, &ds, &analysis, &cfg)?;
            let (out, l) = local_phase(rec, &mid, &analysis, &cfg)?;
            (out, Some(g), Some(l))
        }
        Model::CombinedLocalFirst => {
            let (mid, l) = local_phase(rec, &ds, &analysis, &cfg)?;
            let (out, g) = global_phase(rec, &mid, &analysis, &cfg)?;
            (out, Some(g), Some(l))
        }
    };
    let csv = rec.time("csv.render", || to_csv(&out));
    let mut epsilon_spent = 0.0;
    let mut utility_loss = 0.0;
    let mut timings = PhaseTimings::default();
    if let Some(g) = &global {
        epsilon_spent += cfg.eps_global;
        utility_loss += g.utility_loss;
        counts.global_insertions += g.insertions as u64;
        counts.global_deletions += g.deletions as u64;
        counts.cells_visited += g.search_stats.cells_visited as u64;
        counts.segments_checked += g.search_stats.segments_checked as u64;
        timings.build_secs = g.timings.build.as_secs_f64();
        timings.increase_secs = g.timings.increase.as_secs_f64();
        timings.decrease_secs = g.timings.decrease.as_secs_f64();
        timings.realize_secs = g.timings.realize.as_secs_f64();
    }
    if let Some(l) = &local {
        epsilon_spent += cfg.eps_local;
        utility_loss += l.utility_loss;
        counts.local_edits += (l.insertions + l.deletions) as u64;
        counts.cells_visited += l.search_stats.cells_visited as u64;
        counts.segments_checked += l.search_stats.segments_checked as u64;
    }
    timings.total_secs = (rec.now() - started) as f64 / 1e9;
    let edits = counts.global_insertions + counts.global_deletions + counts.local_edits;
    Ok(Response::Anonymize {
        data: Payload::Inline(csv),
        epsilon_spent,
        edits,
        utility_loss,
        workers: spec.workers,
        timings: Some(timings),
    })
}

/// Global mechanism: sharded-path perturbation as one shard, then the
/// modification phase. Its build/increase/decrease stages are recorded
/// from the program's own `StageTimings`, laid end to end from the start
/// of the `global.realize` span.
fn global_phase(
    rec: &mut Recorder,
    input: &Dataset,
    analysis: &FrequencyAnalysis,
    cfg: &FreqDpConfig,
) -> Result<(Dataset, GlobalReport), ApiError> {
    let perturbed = rec
        .time("global.perturb", || {
            let candidates = analysis.candidate_points();
            perturb_tf_shard(analysis, &candidates, 0, cfg.eps_global, cfg.seed)
                .map(|shard| shard.into_iter().collect::<HashMap<_, _>>())
        })
        .map_err(|e| ApiError::internal(e.to_string()))?;
    let span = rec.begin("global.realize");
    let start = rec.now();
    let (out, report) =
        realize_tf(input, analysis, &perturbed, cfg.index, cfg.bbox_pruning, cfg.workers);
    let t = report.timings;
    let mut at = start;
    for (name, d) in [
        ("global.build", t.build),
        ("global.increase", t.increase),
        ("global.decrease", t.decrease),
    ] {
        let end = at + d.as_nanos() as u64;
        rec.record(name, at, end);
        at = end;
    }
    rec.end(span);
    Ok((out, report))
}

/// Local mechanism: one streamed unit per trajectory, merged in order.
fn local_phase(
    rec: &mut Recorder,
    input: &Dataset,
    analysis: &FrequencyAnalysis,
    cfg: &FreqDpConfig,
) -> Result<(Dataset, LocalReport), ApiError> {
    rec.time("local", || {
        let units = input
            .trajectories
            .iter()
            .enumerate()
            .map(|(slot, traj)| {
                local_unit_streamed(
                    traj,
                    analysis,
                    slot,
                    cfg.eps_local,
                    cfg.index,
                    cfg.local_opts,
                    input.domain,
                    cfg.seed,
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| ApiError::internal(e.to_string()))?;
        Ok(merge_local_units(input.domain, units))
    })
}
