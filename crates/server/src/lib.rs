//! `gdpr-server` — the wire-protocol network front-end for the GDPR
//! compliance engine.
//!
//! The paper benchmarks *networked* database servers; this crate closes the
//! gap between the reproduction's in-process engine calls and that setting
//! by exposing any [`gdpr_core::EngineHandle`] — `redis`, `redis-mi`,
//! `redis-sharded --shards N`, `postgres`, `postgres-mi` — over TCP:
//!
//! * [`codec`] — panic-free, bounds-checked byte primitives;
//! * [`wire`] — framing plus a complete codec for every [`gdpr_core::GdprQuery`],
//!   [`gdpr_core::GdprResponse`], and [`gdpr_core::GdprError`] variant
//!   (audit-log payloads included), so remote semantics are byte-equivalent
//!   to in-process execution;
//! * [`sys`] — a thin level-triggered epoll shim over raw syscalls (the
//!   offline build has no I/O crate);
//! * [`conn`] — per-connection state: an incremental [`conn::FrameDecoder`]
//!   tolerating arbitrarily fragmented input, plus outbound buffering;
//! * [`server`] — `workers` readiness-driven event loops: loop 0 accepts
//!   and places each connection on the least-loaded loop, which runs its
//!   pipelined bursts to completion as single engine batches; responses
//!   stay strictly ordered, shutdown is graceful.
//!
//! The client side (`GdprClient`, `RemoteConnector`) lives in the
//! `connectors` crate, next to the other connector variants, so the
//! conformance suite and the bench layer drive loopback TCP through the
//! same `GdprConnector` interface they already use. The wire format is
//! documented for external implementations in `crates/server/README.md`.

pub mod codec;
pub mod conn;
mod event_loop;
pub mod metrics;
pub mod secure;
pub mod server;
pub mod sys;
pub mod wire;

pub use codec::{WireError, WireResult};
pub use conn::FrameDecoder;
pub use metrics::render_prometheus;
pub use server::{GdprServer, ServerConfig, ServerStats};
pub use wire::{MetricsReport, RequestBody, ResponseBody, StageMetrics, StatsSnapshot, MAX_FRAME};
