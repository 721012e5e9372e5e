//! The three wire workloads: their inputs, set-up, one op each, and the
//! correctness gates on their outputs.

use crate::server::ServerProc;
use crate::stats::Tally;
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use trajdp_core::FreqDpConfig;
use trajdp_model::csv::{from_csv, to_csv};
use trajdp_server::api::ErrorCode;
use trajdp_server::protocol::{self, AnonymizeParams, AnonymizeSpec, DataRef, Request};
use trajdp_server::{ApiError, Client, DatasetStore, Json};

/// Piece size of every chunked upload and download (the CLI default is
/// 1 MiB; see the benchmark note for why the benchmark uses less).
pub const PIECE_BYTES: usize = 64 * 1024;

/// Piece size of the untimed download of a sampled release. Smaller
/// than [`PIECE_BYTES`] only to keep the check short: the client's JSON
/// parse of a piece grows with its square.
const CHECK_PIECE_BYTES: usize = 8 * 1024;

/// Timed ops a run must complete before it may stop, so that p90 has
/// ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Timed-region cap, so a run ends within its time limit even when
/// [`MIN_OPS`] is out of reach; the percentile rule then rejects it.
const MAX_TIMED: Duration = Duration::from_secs(130);

/// A benchmark workload. Names are stable: later changes cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bulk wire traffic and the store: chunked upload, chunked
    /// download, compare, delete.
    Transfer,
    /// The paper's GL mechanism on a stored 40 000-point dataset, by
    /// handle, with the result stored and then deleted.
    AnonymizeHandle,
    /// Per-request fixed cost: five small requests from two clients.
    SmallRequests,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::Transfer, Workload::AnonymizeHandle, Workload::SmallRequests];

    /// The workload's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Transfer => "transfer",
            Workload::AnonymizeHandle => "anonymize-handle",
            Workload::SmallRequests => "small-requests",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(trajectories, points per trajectory)` of the generated input.
    pub fn world_shape(self) -> (usize, usize) {
        match self {
            Workload::Transfer => (40, 120),
            Workload::AnonymizeHandle => (200, 200),
            Workload::SmallRequests => (5, 30),
        }
    }

    /// Concurrent closed-loop clients, one connection each.
    pub fn clients(self) -> usize {
        match self {
            Workload::SmallRequests => 2,
            _ => 1,
        }
    }

    /// Untimed ops per client before the timed region.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::SmallRequests => 20,
            _ => 1,
        }
    }
}

/// How one op failed.
#[derive(Debug)]
pub enum Failure {
    /// The server answered `ok:false`.
    Refused(String),
    /// The exchange failed or the reply broke the protocol.
    Errored(String),
    /// The reply was well-formed but wrong.
    Mismatch(String),
}

impl From<ApiError> for Failure {
    fn from(e: ApiError) -> Failure {
        if e.code == ErrorCode::Transport {
            Failure::Errored(e.to_string())
        } else {
            Failure::Refused(e.to_string())
        }
    }
}

impl Failure {
    /// Counts this failure in `tally`.
    pub fn count(&self, tally: &mut Tally) {
        match self {
            Failure::Refused(_) => tally.refused += 1,
            Failure::Errored(_) => tally.errored += 1,
            Failure::Mismatch(_) => tally.mismatched += 1,
        }
    }

    /// The failure's description.
    pub fn message(&self) -> &str {
        match self {
            Failure::Refused(m) | Failure::Errored(m) | Failure::Mismatch(m) => m,
        }
    }
}

/// The generated input of a workload.
pub struct Inputs {
    /// The dataset as CSV, exactly as sent.
    pub csv: String,
    /// Trajectories in it.
    pub trajectories: usize,
    /// Points in it.
    pub points: usize,
}

/// Generates a workload's input from the seed, as CSV.
pub fn generate_inputs(w: Workload, seed: u64) -> Inputs {
    let (size, len) = w.world_shape();
    let world = trajdp_bench::standard_world(size, len, seed);
    Inputs {
        csv: to_csv(&world.dataset),
        trajectories: world.dataset.len(),
        points: world.dataset.trajectories.iter().map(|t| t.samples.len()).sum(),
    }
}

/// Seeds carried in requests must be exact in a JSON (f64) number.
fn wire_seed(seed: u64) -> u64 {
    seed & ((1 << 40) - 1)
}

/// A started workload: the server, the inputs, and (for
/// `anonymize-handle`) the uploaded dataset's handle.
pub struct Env {
    /// The server under test.
    pub server: ServerProc,
    /// The generated input.
    pub inputs: Inputs,
    /// The committed input handle, when the workload works by handle.
    pub handle: Option<String>,
    /// The workload.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// Keep sampled ops' releases for checking (see [`Env::slot`]).
    pub sampling: bool,
}

/// Set-up as `setup_s` times it: spawn the server, wait until it is
/// ready, generate the inputs, and upload what the workload keeps
/// server-side.
pub fn setup(w: Workload, seed: u64, bin: &Path, state_dir: PathBuf) -> Result<Env, String> {
    let server = ServerProc::spawn(bin, state_dir)?;
    let inputs = generate_inputs(w, seed);
    let handle = match w {
        Workload::AnonymizeHandle => {
            let mut client = connect(&server)?;
            let info = client
                .upload_dataset(&inputs.csv, PIECE_BYTES)
                .map_err(|e| format!("uploading the input failed: {e}"))?;
            Some(info.dataset)
        }
        _ => None,
    };
    Ok(Env { server, inputs, handle, workload: w, seed, sampling: true })
}

/// A fresh connection to the server.
pub fn connect(server: &ServerProc) -> Result<Client, String> {
    Client::connect(server.addr).map_err(|e| format!("cannot connect: {e}"))
}

/// Builds one v2 request object. The benchmark's own calls use ids
/// `b-<n>`; the typed client methods number theirs `c-<n>`.
pub fn request(
    cmd: &str,
    id: u64,
    members: impl IntoIterator<Item = (&'static str, Json)>,
) -> BTreeMap<String, Json> {
    let mut obj = BTreeMap::new();
    obj.insert("cmd".to_string(), Json::from(cmd));
    obj.insert("v".to_string(), Json::from(2u64));
    obj.insert("id".to_string(), Json::from(format!("b-{id}")));
    for (k, v) in members {
        obj.insert(k.to_string(), v);
    }
    obj
}

/// ε of every anonymize request the benchmark sends.
pub const EPSILON: f64 = 1.0;

/// The `anonymize-handle` op's request: GL by handle, result stored.
pub fn anonymize_handle_request(id: u64, handle: &str, seed: u64) -> BTreeMap<String, Json> {
    request(
        "anonymize",
        id,
        [
            ("dataset", Json::from(handle)),
            ("model", Json::from("gl")),
            ("m", Json::from(10u64)),
            ("epsilon", Json::from(EPSILON)),
            ("workers", Json::from(2u64)),
            ("store", Json::Bool(true)),
            ("seed", Json::from(wire_seed(seed))),
        ],
    )
}

/// The `small-requests` inline anonymize: PureL on inline CSV.
pub fn inline_anonymize_request(id: u64, csv: &str, seed: u64) -> BTreeMap<String, Json> {
    request(
        "anonymize",
        id,
        [
            ("csv", Json::from(csv)),
            ("model", Json::from("purel")),
            ("m", Json::from(10u64)),
            ("epsilon", Json::from(EPSILON)),
            ("seed", Json::from(wire_seed(seed))),
        ],
    )
}

/// Sends a benchmark-built request; `ok:false` is a refusal and a
/// missing or wrong id echo a protocol error.
pub fn call(client: &mut Client, obj: BTreeMap<String, Json>) -> Result<Json, Failure> {
    let id = obj.get("id").cloned();
    let response = client.request(&Json::Obj(obj))?;
    match response.get("ok").and_then(Json::as_bool) {
        Some(true) if response.get("id") == id.as_ref() => Ok(response),
        Some(true) => Err(Failure::Errored(format!("reply does not echo id {id:?}"))),
        Some(false) => Err(Failure::Refused(format!("{:?}", response.get("error")))),
        None => Err(Failure::Errored("reply carries no boolean ok".to_string())),
    }
}

fn want_str(v: &Json, key: &str) -> Result<String, Failure> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| Failure::Errored(format!("reply lacks string member {key:?}")))
}

fn want_num(v: &Json, key: &str) -> Result<f64, Failure> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| Failure::Errored(format!("reply lacks numeric member {key:?}")))
}

/// An anonymize reply kept for checking after the timed region.
pub struct Release {
    /// The request as sent.
    pub request: Json,
    /// The released CSV (downloaded, for a stored result).
    pub csv: String,
    /// The reply's `edits`.
    pub edits: f64,
    /// The reply's `epsilon_spent`.
    pub epsilon_spent: f64,
}

/// What one completed op hands back.
#[derive(Default)]
pub struct OpDone {
    /// Client-measured op latency (checks made outside the timed region
    /// excluded).
    pub latency: Duration,
    /// Time the op spent on checks outside the timed region.
    pub untimed: Duration,
    /// The server's `timings.total_secs` for the op's anonymize.
    pub server_total_secs: Option<f64>,
    /// The server's `timings.realize_secs` for the op's anonymize.
    pub server_realize_secs: Option<f64>,
    /// A release kept for a correctness check.
    pub release: Option<Release>,
    /// ε the op charged to the input handle's ledger.
    pub eps_charged: f64,
}

/// Spans around the client's calls in the traced pass; a no-op in
/// untraced passes.
pub struct Calls<'a>(pub Option<&'a mut Recorder>);

impl Calls<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.0 {
            Some(rec) => rec.time(name, f),
            None => f(),
        }
    }
}

/// `transfer`: upload in pieces, download in pieces, compare, delete.
pub fn transfer_op(client: &mut Client, csv: &str, mut t: Calls) -> Result<OpDone, Failure> {
    let started = Instant::now();
    let info = t.time("client.upload", || client.upload_dataset(csv, PIECE_BYTES))?;
    if info.bytes != csv.len() as u64 {
        return Err(Failure::Mismatch(format!(
            "commit acknowledged {} bytes of {}",
            info.bytes,
            csv.len()
        )));
    }
    let back = t.time("client.download", || {
        client.download_dataset_chunked(&info.dataset, Some(PIECE_BYTES))
    })?;
    let deleted = t.time("client.delete", || client.delete_dataset(&info.dataset))?;
    let latency = started.elapsed();
    if back != csv {
        return Err(Failure::Mismatch("downloaded bytes differ from the upload".to_string()));
    }
    if deleted.bytes != csv.len() as u64 {
        return Err(Failure::Mismatch(format!("delete freed {} bytes", deleted.bytes)));
    }
    Ok(OpDone { latency, ..OpDone::default() })
}

/// `anonymize-handle`: a synchronous GL anonymize by handle with the
/// result stored, then the result handle's delete. With `keep`, the
/// stored result is downloaded between the two, outside the timing.
pub fn anonymize_handle_op(
    client: &mut Client,
    slot: &OpSlot,
    handle: &str,
    mut t: Calls,
) -> Result<OpDone, Failure> {
    let req = anonymize_handle_request(slot.id, handle, slot.seed);
    let sent = Json::Obj(req.clone());
    let started = Instant::now();
    let reply = t.time("client.anonymize", || call(client, req))?;
    let anonymize_time = started.elapsed();
    let result = want_str(&reply, "dataset")?;
    let timings = reply.get("timings");
    let paused = Instant::now();
    let release = if slot.keep {
        Some(Release {
            request: sent,
            csv: client.download_dataset_chunked(&result, Some(CHECK_PIECE_BYTES))?,
            edits: want_num(&reply, "edits")?,
            epsilon_spent: want_num(&reply, "epsilon_spent")?,
        })
    } else {
        None
    };
    let untimed = paused.elapsed();
    let started = Instant::now();
    t.time("client.delete", || client.delete_dataset(&result))?;
    Ok(OpDone {
        latency: anonymize_time + started.elapsed(),
        untimed,
        server_total_secs: timings.and_then(|t| t.get("total_secs")).and_then(Json::as_f64),
        server_realize_secs: timings.and_then(|t| t.get("realize_secs")).and_then(Json::as_f64),
        release,
        eps_charged: EPSILON,
    })
}

/// `small-requests`: health, info, an inline PureL anonymize, list,
/// metrics. With `keep`, the anonymize reply is kept for checking.
pub fn small_requests_op(
    client: &mut Client,
    slot: &OpSlot,
    csv: &str,
    mut t: Calls,
) -> Result<OpDone, Failure> {
    let req = inline_anonymize_request(slot.id, csv, slot.seed);
    let sent = slot.keep.then(|| Json::Obj(req.clone()));
    let started = Instant::now();
    t.time("client.health", || client.health())?;
    t.time("client.info", || client.info())?;
    let reply = t.time("client.anonymize", || call(client, req))?;
    t.time("client.list", || call(client, request("list", slot.id, [])))?;
    t.time("client.metrics", || client.metrics())?;
    let latency = started.elapsed();
    let timings = reply.get("timings");
    let release = match sent {
        Some(request) => Some(Release {
            request,
            csv: want_str(&reply, "csv")?,
            edits: want_num(&reply, "edits")?,
            epsilon_spent: want_num(&reply, "epsilon_spent")?,
        }),
        None => None,
    };
    Ok(OpDone {
        latency,
        untimed: Duration::ZERO,
        server_total_secs: timings.and_then(|t| t.get("total_secs")).and_then(Json::as_f64),
        server_realize_secs: None,
        release,
        eps_charged: 0.0,
    })
}

/// Op `index` of a client: its seed, its request id, and whether its
/// output is kept for checking.
pub struct OpSlot {
    /// Request id of the benchmark's own calls.
    pub id: u64,
    /// Anonymize seed of the op.
    pub seed: u64,
    /// Keep the op's release for a check after the timed region.
    pub keep: bool,
}

impl Env {
    /// The seed, id, and sampling decision of op `index` of `client`.
    pub fn slot(&self, client: usize, index: usize) -> OpSlot {
        let id = (client as u64) << 32 | index as u64;
        let keep = self.sampling
            && match self.workload {
                Workload::Transfer => false,
                // One sampled op per run, chosen by the seed among the
                // first timed ops (index 0 is the warm-up op).
                Workload::AnonymizeHandle => index == 1 + (self.seed % 8) as usize,
                Workload::SmallRequests => index.is_multiple_of(64),
            };
        OpSlot { id, seed: self.seed.wrapping_add(id), keep }
    }

    /// Runs one op on `client`, with spans around its calls when `t`
    /// carries a recorder.
    pub fn run_op(&self, client: &mut Client, slot: &OpSlot, t: Calls) -> Result<OpDone, Failure> {
        match self.workload {
            Workload::Transfer => transfer_op(client, &self.inputs.csv, t),
            Workload::AnonymizeHandle => {
                let handle = self.handle.as_deref().expect("anonymize-handle uploads at set-up");
                anonymize_handle_op(client, slot, handle, t)
            }
            Workload::SmallRequests => small_requests_op(client, slot, &self.inputs.csv, t),
        }
    }
}

/// Everything a measured pass produced.
#[derive(Default)]
pub struct Pass {
    /// Latency of each timed op that succeeded, ms.
    pub latencies_ms: Vec<f64>,
    /// Server-reported `total_secs` of each timed op, when reported.
    pub server_total_secs: Vec<f64>,
    /// Server-reported `realize_secs` of each timed op, when reported.
    pub server_realize_secs: Vec<f64>,
    /// Client latency minus server `total_secs`, per timed op, ms.
    pub op_minus_server_ms: Vec<f64>,
    /// Outcome counts of all ops, warm-up included.
    pub tally: Tally,
    /// Wall time of the timed region, from its start to the last op's
    /// completion, minus the time ops spent on untimed checks.
    pub wall: Duration,
    /// Releases kept for checking.
    pub releases: Vec<Release>,
    /// ε charged to the input handle over all ops.
    pub eps_charged: f64,
    /// The first failures, for the report.
    pub errors: Vec<String>,
    /// Time timed ops spent on checks outside their timing.
    untimed: Duration,
}

impl Pass {
    fn absorb(&mut self, other: Pass) {
        self.latencies_ms.extend(other.latencies_ms);
        self.server_total_secs.extend(other.server_total_secs);
        self.server_realize_secs.extend(other.server_realize_secs);
        self.op_minus_server_ms.extend(other.op_minus_server_ms);
        self.tally.merge(other.tally);
        self.wall = self.wall.max(other.wall);
        self.releases.extend(other.releases);
        self.eps_charged += other.eps_charged;
        self.errors.extend(other.errors);
    }

    /// Counts an op failure that happened outside the op itself.
    pub fn record_failure(&mut self, f: Failure) {
        self.record(Err(f), false);
    }

    /// Counts one op; a timed one also contributes its latency.
    pub fn record(&mut self, outcome: Result<OpDone, Failure>, timed: bool) {
        match outcome {
            Ok(done) => {
                self.tally.ok += 1;
                self.eps_charged += done.eps_charged;
                if timed {
                    let ms = done.latency.as_secs_f64() * 1e3;
                    self.latencies_ms.push(ms);
                    if let Some(total) = done.server_total_secs {
                        self.server_total_secs.push(total);
                        self.op_minus_server_ms.push(ms - total * 1e3);
                    }
                    self.server_realize_secs.extend(done.server_realize_secs);
                    self.untimed += done.untimed;
                }
                self.releases.extend(done.release);
            }
            Err(f) => {
                f.count(&mut self.tally);
                if self.errors.len() < 5 {
                    self.errors.push(f.message().to_string());
                }
            }
        }
    }
}

/// Runs the workload's closed loop: each client sends its next op only
/// after the previous one completed. After the warm-up ops, the timed
/// region lasts at least `min_time` and until [`MIN_OPS`] timed ops
/// completed over all clients, or until [`MAX_TIMED`].
pub fn run_pass(env: &Env, min_time: Duration) -> Pass {
    let done = AtomicUsize::new(0);
    let passes: Vec<Pass> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..env.workload.clients())
            .map(|c| {
                let done = &done;
                scope.spawn(move || {
                    let mut pass = Pass::default();
                    let mut client = match connect(&env.server) {
                        Ok(client) => client,
                        Err(e) => {
                            pass.record_failure(Failure::Errored(e));
                            return pass;
                        }
                    };
                    let warmup = env.workload.warmup_ops();
                    for index in 0..warmup {
                        let outcome = env.run_op(&mut client, &env.slot(c, index), Calls(None));
                        pass.record(outcome, false);
                    }
                    let begin = Instant::now();
                    for index in warmup.. {
                        let t = begin.elapsed();
                        if t >= MAX_TIMED
                            || (t >= min_time && done.load(Ordering::Relaxed) >= MIN_OPS)
                        {
                            break;
                        }
                        let outcome = env.run_op(&mut client, &env.slot(c, index), Calls(None));
                        pass.record(outcome, true);
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    pass.wall = begin.elapsed().saturating_sub(pass.untimed);
                    pass
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut total = Pass::default();
    for p in passes {
        total.absorb(p);
    }
    total
}

/// The serial pipeline's release for an anonymize request on `csv`:
/// the request is parsed by the server's own parser (so defaults match)
/// and run by `trajdp_core::anonymize` at one worker.
pub fn serial_release(request: &Json, csv: &str) -> Result<(String, u64, f64), String> {
    let spec = inline_spec(request, csv)?;
    let cfg = FreqDpConfig { workers: 1, ..spec.config() };
    let ds = from_csv(&spec.csv).map_err(|e| e.to_string())?;
    let out = trajdp_core::anonymize(&ds, spec.model, &cfg).map_err(|e| e.to_string())?;
    Ok((to_csv(&out.dataset), out.total_edits() as u64, out.epsilon_spent))
}

/// The spec the server runs for an anonymize `request`, with `csv` as
/// its dataset whatever the request names.
pub fn inline_spec(request: &Json, csv: &str) -> Result<AnonymizeSpec, String> {
    let Request::Anonymize { params, .. } = protocol::parse_request(&request.to_string())
        .map_err(|e| format!("request does not parse: {e}"))?
    else {
        return Err("not an anonymize request".to_string());
    };
    let params = AnonymizeParams { data: DataRef::Inline(csv.to_string()), ..params };
    params.resolve(&DatasetStore::new()).map_err(|e| e.to_string())
}

/// Checks kept releases against the serial pipeline; each mismatch
/// moves its op from ok to mismatched.
pub fn check_releases(pass: &mut Pass, input_csv: &str) {
    for release in std::mem::take(&mut pass.releases) {
        let verdict = match serial_release(&release.request, input_csv) {
            Ok((csv, ..)) if csv != release.csv => {
                Err("release differs from the serial pipeline's bytes".to_string())
            }
            Ok((_, edits, eps))
                if edits as f64 != release.edits || eps != release.epsilon_spent =>
            {
                Err(format!(
                    "reply reports edits={} epsilon_spent={}, the serial run {edits} and {eps}",
                    release.edits, release.epsilon_spent
                ))
            }
            Ok(_) => Ok(()),
            Err(e) => Err(e),
        };
        if let Err(e) = verdict {
            pass.tally.demote_to_mismatch();
            pass.errors.push(e);
        }
    }
}

/// Checks that the input handle's ledger row in v2 `list` shows exactly
/// the ε the run's ops charged.
pub fn check_ledger(env: &Env, pass: &mut Pass) {
    let Some(handle) = &env.handle else { return };
    let verdict = connect(&env.server)
        .map_err(Failure::Errored)
        .and_then(|mut c| call(&mut c, request("list", 0, [])))
        .map_err(|f| f.message().to_string())
        .and_then(|list| {
            let rows = match list.get("datasets") {
                Some(Json::Arr(rows)) => rows.clone(),
                _ => return Err("list reply lacks datasets".to_string()),
            };
            let row = rows
                .iter()
                .find(|r| r.get("dataset").and_then(Json::as_str) == Some(handle))
                .ok_or_else(|| format!("list does not show {handle}"))?;
            match row.get("eps_spent").and_then(Json::as_f64) {
                Some(spent) if spent == pass.eps_charged => Ok(()),
                other => Err(format!(
                    "ledger shows eps_spent {other:?} for {handle}, ops charged {}",
                    pass.eps_charged
                )),
            }
        });
    if let Err(e) = verdict {
        // The ledger is one check over the whole run: count it as one
        // mismatched op.
        pass.tally.demote_to_mismatch();
        pass.errors.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_land_in_their_tally_bucket() {
        let mut pass = Pass::default();
        pass.record(Ok(OpDone::default()), true);
        pass.record(Err(ApiError::transport("connection reset").into()), true);
        pass.record(Err(ApiError::overloaded("queue full").into()), true);
        pass.record(Err(ApiError::budget_exhausted("no budget").into()), true);
        pass.record(Err(Failure::Mismatch("bytes differ".to_string())), true);
        assert_eq!(pass.tally, Tally { ok: 1, refused: 2, errored: 1, mismatched: 1 });
        assert_eq!(pass.latencies_ms.len(), 1, "failed ops carry no latency sample");
        assert!((pass.tally.failed_frac() - 0.8).abs() < 1e-12);
        // A check after the timed region demotes an ok op.
        pass.tally.demote_to_mismatch();
        assert_eq!(pass.tally.attempted(), 5);
        assert_eq!(pass.tally.failed(), 5);
    }
}
