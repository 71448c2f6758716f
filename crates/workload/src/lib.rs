//! The benchmark engine: YCSB core re-implemented, plus the four GDPRbench
//! workloads layered on it — the architecture of the paper's Figure 2b.
//!
//! * [`generator`] — the YCSB request-distribution family (uniform,
//!   zipfian, scrambled-zipfian, latest, hotspot, exponential, sequential,
//!   discrete weighted choice).
//! * [`ycsb`] — the six core workloads A–F plus Load (Table 2 of the
//!   paper's YCSB summary) against a minimal [`ycsb::KvInterface`], with
//!   adapters for both stores.
//! * [`gdpr`] — the Controller / Customer / Processor / Regulator workloads
//!   with the paper's default operation weights and distributions
//!   (Table 2a), generating [`gdpr_core::GdprQuery`] streams.
//! * [`datagen`] — deterministic personal-record corpus generation.
//! * [`oracle`] — a shadow model that computes expected responses, backing
//!   the benchmark's *correctness* metric (§4.2.3).
//! * [`stats`] — per-query ok / error counts and latency histograms
//!   (gdpr-core's telemetry buckets).
//! * [`runner`] — multi-threaded execution harness reporting the three
//!   GDPRbench metrics: correctness, completion time, space overhead.

pub mod datagen;
pub mod gdpr;
pub mod generator;
pub mod oracle;
pub mod runner;
pub mod stats;
pub mod ycsb;

pub use gdpr::{GdprWorkload, GdprWorkloadKind};
pub use runner::{
    run_gdpr_workload, run_gdpr_workload_open_loop, run_gdpr_workload_open_loop_with,
    run_gdpr_workload_with, run_ycsb_workload, GdprRunOptions, GdprRunReport, OpenLoopReport,
    YcsbRunReport,
};
pub use stats::OpStats;
