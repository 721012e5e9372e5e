//! # trajdp-server
//!
//! The serving subsystem: a JSON-lines TCP service exposing the
//! anonymization pipeline (`trajdp_core::anonymize`) as a long-lived
//! process.
//!
//! | module | contents |
//! |---|---|
//! | [`api`] | stable error codes ([`api::ErrorCode`]/[`api::ApiError`]), the typed [`api::Response`] model, and the versioned wire envelope with centralized serialization |
//! | [`json`] | serde-free JSON value, parser, single-line writer |
//! | [`protocol`] | request parsing, the one reader and validator of the anonymize parameters (wire, journal replay and the `trajdp` CLI), and the handlers behind each verb, which the CLI's `anonymize`/`evaluate` also run |
//! | [`store`] | chunked-transfer dataset handles (`ds-<id>`), optionally persisted, with delete/LRU/TTL lifecycle and job pinning |
//! | [`jobs`] | job queue with ids, per-job status, and a durable, compacting JSON-lines journal |
//! | [`ledger`] | tenancy + privacy budget: the tenant registry (`--tenants`), per-tenant quotas, and the per-dataset ε accumulator |
//! | [`reactor`] | non-blocking connection plane: `epoll`/`poll` readiness loop, per-connection state machines, read deadlines, load shedding, drain-window shutdown |
//! | [`service`] | server configuration, request dispatch, lifecycle around the reactor |
//! | [`client`] | blocking JSON-lines client for tests and `trajdp submit` |
//! | [`obs`] | observability: atomics-only metrics registry (the `metrics` verb), leveled JSON-lines logging, per-job phase timings |
//!
//! ## Determinism
//!
//! A request's `workers` becomes `FreqDpConfig::workers`, which shards
//! only the local mechanism over threads. The core pipeline derives an
//! independent RNG stream per trajectory (and per candidate point of the
//! global mechanism) from the root seed — see `trajdp_core::stream` — so
//! the release is byte-identical at every worker count.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod api;
pub mod client;
pub mod jobs;
pub mod json;
pub mod ledger;
pub mod obs;
pub mod protocol;
pub mod reactor;
pub mod service;
pub mod store;

pub use api::{ApiError, Envelope, ErrorCode, ProtocolVersion, Response};
pub use client::Client;
pub use json::Json;
pub use ledger::{EpsLedger, TenantLimits, TenantRegistry, DEFAULT_TENANT};
pub use obs::{init_logger, LogLevel, Metrics, MetricsSnapshot, PhaseTimings};
pub use service::{Server, ServerConfig};
pub use store::{DatasetStore, StoreConfig};

use trajdp_core::{AnonymizedOutput, FreqDpConfig, Model};
use trajdp_mech::MechError;
use trajdp_model::Dataset;

/// [`trajdp_core::anonymize`] with `cfg.workers` replaced by `workers`.
/// Kept so existing callers compile; new code calls
/// `trajdp_core::anonymize` directly.
pub fn anonymize_parallel(
    ds: &Dataset,
    model: Model,
    cfg: &FreqDpConfig,
    workers: usize,
) -> Result<AnonymizedOutput, MechError> {
    trajdp_core::anonymize(ds, model, &FreqDpConfig { workers, ..*cfg })
}
