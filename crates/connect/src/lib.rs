//! Real-engine connectivity for StreamTune: the bridge between the
//! backend abstraction and production systems.
//!
//! Two halves:
//!
//! * **[`FlinkBackend`]** ([`flink`]) — an [`ExecutionBackend`] speaking
//!   the Flink REST surface over a minimal in-repo HTTP/1.1 client
//!   ([`http`]): job-vertex discovery, busy-time/records-in-per-second
//!   gauges assembled into validated observations, rescaling via the
//!   parallelism-overrides endpoint. Transport faults, 5xx bursts and
//!   rescale races classify as *transient* `BackendError`s, so retry
//!   policies, degrade states and `ChaosBackend` wrapping from the fault
//!   layer compose unchanged. [`MockFlinkServer`] ([`mock`]) serves the
//!   same surface from a `SimCluster` with scripted fault scenarios —
//!   and, because the vendored JSON layer round-trips `f64`s bit-exactly,
//!   tuning over the connector is *bitwise* identical to tuning over the
//!   simulator it fronts.
//!
//! * **Streaming trace ingestion** ([`ingest`](mod@ingest)) —
//!   multi-million-row JSONL metric dumps become replayable [`TraceLog`]s
//!   and monitor-ready rate schedules in bounded memory (line-at-a-time
//!   reading, per-operator accumulators for one window at a time). Together with
//!   `ReplayBackend` and `streamtune monitor`, this turns production
//!   traffic into an offline "what would the tuner have done" analysis.
//!   [`dump`] generates deterministic dumps (seeded jitter, embedded
//!   drift) for tests and examples.
//!
//! [`ExecutionBackend`]: streamtune_backend::ExecutionBackend
//! [`TraceLog`]: streamtune_backend::TraceLog

pub mod dump;
pub mod flink;
pub mod http;
pub mod ingest;
pub mod mock;

pub use dump::{write_dump, write_dump_file, DumpOp, DumpSpec};
pub use flink::FlinkBackend;
pub use http::{HttpClient, HttpReply, HttpResponse, MiniHttpServer};
pub use ingest::{ingest, ingest_file, IngestConfig, IngestReport, IngestStats};
pub use mock::MockFlinkServer;
