//! Snapshot-backed labeling service.
//!
//! The batch pipeline (cluster → merge → label) rebuilds every artifact
//! from scratch on each invocation. This crate turns the pipeline into a
//! long-lived process in two layers:
//!
//! * [`snapshot`] — a versioned, std-only binary store (magic + format
//!   version + section table + per-section checksums) persisting the
//!   fully built per-domain artifacts: source schemas, clusters,
//!   normalized labels with their interned symbol table, the merged and
//!   labeled integrated tree, and the naming report digest. A server
//!   cold-starts by loading a snapshot instead of re-running the
//!   pipeline.
//! * [`server`] — a zero-dependency HTTP/1.1 server on
//!   `std::net::TcpListener` with a bounded acceptor/worker pool
//!   ([`qi_runtime::JobQueue`] + scoped workers), read endpoints over
//!   the snapshot and one write endpoint that re-clusters, re-merges
//!   and re-labels *only the affected domain* behind a copy-on-write
//!   swap — readers keep serving the old artifact, no global stall.
//!
//! [`artifact`] defines the unit both layers exchange: one domain's
//! fully built serving state, and [`store`] holds the live corpus (every
//! artifact plus the responses rendered from it) as one immutable value
//! swapped whole. [`client`] is the matching response reader that
//! `qi fetch`, `qi top` and the socket tests share.

pub mod artifact;
pub mod client;
pub mod http;
pub mod queryapi;
pub mod server;
pub mod snapshot;
pub mod store;

pub use artifact::{
    build_artifact, build_corpus_artifacts, ingest_interface, ingest_interface_full, DeltaState,
    DomainArtifact,
};
pub use queryapi::{page_json, run_query, view_of, PageParams, QueryError, QueryPage};
pub use server::{Server, ServerConfig, ServerHandle};
pub use snapshot::{load_snapshot, write_snapshot, Snapshot, SnapshotError, FORMAT_VERSION};
pub use store::Store;
