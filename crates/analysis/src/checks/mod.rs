//! The eight invariant checks. Each exposes a pure `check_source`/
//! `check_sources`-style function (so the fixture tests can drive it on
//! literal sources) and a `run` entry point that walks the relevant
//! part of the workspace. `unsafe_audit`, `determinism`, `drift` and
//! `rng_discipline` are per-line token scans; `lock_io`, `lock_order`,
//! `panic_path` and `reactor_blocking` consume the [`crate::model`]
//! dataflow layer, so guard liveness has one definition — `lock_io`
//! sees `let`-else guards because the model does.

pub mod determinism;
pub mod drift;
pub mod lock_io;
pub mod lock_order;
pub mod panic_path;
pub mod reactor_blocking;
pub mod rng_discipline;
pub mod unsafe_audit;
