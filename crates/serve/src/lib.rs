//! # fume-serve
//!
//! A persistent, multi-request FUME explain engine.
//!
//! The one-shot pipeline (train a DaRE forest, warm a scratch pool, run
//! one lattice search, exit) wastes its two expensive assets — the
//! trained forest and the warm unlearning pool — after a single
//! question. This crate keeps them alive across requests:
//!
//! * [`Engine`] loads the data and trains (or adopts) the forest
//!   **once**, then serves any number of explain jobs against it;
//! * a fixed worker pool drains a bounded job queue — a full queue
//!   rejects immediately with a typed `busy` error, never a hang;
//! * every `ρ` an unlearn-eval produces is memoised in a
//!   cross-request [`EvalCache`], so a repeated request performs
//!   **zero** unlearning operations;
//! * requests arrive as newline-delimited JSON over stdio
//!   ([`serve_lines`]) or a Unix-domain socket
//!   ([`transport::unix::serve_unix`]), and every job executes through
//!   the same [`fume_core::Fume::run`] entrypoint as the library and
//!   the CLI — one code path, byte-identical reports.
//!
//! ```
//! use fume_core::FumeConfig;
//! use fume_forest::DareConfig;
//! use fume_lattice::SupportRange;
//! use fume_serve::{Engine, EngineOptions, ExplainOverrides, JobReply};
//! use fume_tabular::datasets::planted_toy;
//! use fume_tabular::split::train_test_split;
//!
//! let (data, group) = planted_toy().generate_scaled(0.5, 3).unwrap();
//! let (train, test) = train_test_split(&data, 0.3, 3).unwrap();
//! let config = FumeConfig::default()
//!     .with_forest(DareConfig::small(3))
//!     .with_support(SupportRange::new(0.02, 0.25).unwrap());
//! let engine = Engine::new(config, train, test, group, EngineOptions::default()).unwrap();
//! let reply = engine
//!     .serve(|handle| handle.explain(ExplainOverrides::default()).unwrap().wait())
//!     .unwrap();
//! let JobReply::Report(report) = reply else { panic!("expected a report") };
//! assert!(!report.top_k.is_empty());
//! ```
//!
//! See `docs/serving.md` for the wire protocol and operational notes.

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod protocol;
pub mod transport;

pub use cache::{rho_scope, CacheStats, EvalCache, ScopedMemo};
pub use engine::{
    Engine, EngineHandle, EngineOptions, EngineStats, ExplainOverrides, JobOutcome, JobReply,
    JobSpec, ServeError, Ticket,
};
pub use protocol::{Request, RequestError, PROTOCOL_SCHEMA};
pub use transport::{serve_lines, ServeExit, MAX_REQUEST_LINE_BYTES};
