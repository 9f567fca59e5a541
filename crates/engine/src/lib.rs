//! Concurrent batch timing and incremental re-analysis for RLC trees.
//!
//! The crates below this one answer "what is the delay of *this* tree?"
//! (see `eed::TreeAnalysis`). This crate scales that answer along three
//! axes that the paper's O(n) algorithm leaves open:
//!
//! * **Corpus scale** — [`Engine`] fans a [`Batch`] of independent nets
//!   (in-memory trees, netlist decks, or `.sp` files) across a `std::thread`
//!   worker pool. Each net's failure is isolated into a typed
//!   [`EngineError`] slot, and results always come back in submission
//!   order: the [`BatchReport`] for a corpus is **byte-identical** for any
//!   worker count.
//!
//! * **Service scale** — [`EngineService`] keeps the worker pool alive
//!   behind a **bounded** submission queue: jobs are admitted one at a
//!   time from any number of producers, overload is rejected at admission
//!   with a typed [`EngineError::Overloaded`] instead of piling up, and
//!   [`drain`](EngineService::drain)/[`shutdown`](EngineService::shutdown)
//!   finish accepted work before stopping. This is the substrate of the
//!   `rlc-serve` network front end.
//!
//! * **Edit scale** — [`IncrementalAnalysis`] keeps the paper's two tree
//!   summations (`T_RC`, `T_LC`) in a factored per-section form so that a
//!   single [`set_section`](IncrementalAnalysis::set_section) edit costs
//!   O(depth) instead of an O(n) re-pass, while staying *bit-identical* to
//!   a from-scratch [`rlc_moments::tree_sums`]. Checkpoint/rollback and
//!   [`scoped_edit`](IncrementalAnalysis::scoped_edit) make it a
//!   what-if probing substrate; its flat factored sums
//!   (`rlc_moments::FlatIncrementalSums`) also back `rlc-synth`'s
//!   wire-sizing probes.
//!
//! # Examples
//!
//! Probe a what-if edit and roll it back losslessly:
//!
//! ```
//! use rlc_engine::IncrementalAnalysis;
//! use rlc_tree::{topology, RlcSection};
//! use rlc_units::{Capacitance, Inductance, Resistance};
//!
//! let s = RlcSection::new(
//!     Resistance::from_ohms(25.0),
//!     Inductance::from_nanohenries(5.0),
//!     Capacitance::from_picofarads(0.5),
//! );
//! let (line, sink) = topology::single_line(8, s);
//! let mut probe = IncrementalAnalysis::new(line);
//! let baseline = probe.delay_50(sink);
//!
//! // Halving the first section's series impedance must speed the sink up.
//! let faster = probe.scoped_edit(|p| {
//!     let first = p.tree().roots()[0];
//!     let slimmer = p.tree().section(first).series_scaled(0.5);
//!     p.set_section(first, slimmer);
//!     p.delay_50(sink)
//! });
//! assert!(faster < baseline);
//! assert_eq!(probe.delay_50(sink), baseline); // rolled back exactly
//! ```
//!
//! Run a small corpus through the batch engine:
//!
//! ```
//! use rlc_engine::{Batch, Engine};
//!
//! let mut batch = Batch::new();
//! batch.push_deck("good", "R1 in n1 25\nC1 n1 0 0.5p\n");
//! batch.push_deck("bad", "R1 in n1 oops\n");
//! let report = Engine::with_workers(2).run(&batch);
//! assert!(report.nets[0].is_ok());
//! assert!(report.nets[1].is_err()); // isolated, order preserved
//! ```

//!
//! Run a long-lived service with bounded admission and graceful drain:
//!
//! ```
//! use rlc_engine::{EngineService, ServiceConfig};
//!
//! let service = EngineService::start(ServiceConfig {
//!     workers: 2,
//!     capacity: 8,
//!     ..ServiceConfig::default()
//! });
//! let ticket = service.submit("line", "R1 in n1 25\nC1 n1 0 0.5p\n").unwrap();
//! assert!(ticket.wait().is_ok());
//! let stats = service.shutdown(); // drains in-flight jobs first
//! assert_eq!(stats.completed, 1);
//! ```

mod batch;
mod couple;
mod error;
mod incremental;
mod service;
mod synth;

pub use batch::{
    net_json, Batch, BatchReport, BatchTelemetry, Engine, NetTiming, SinkSummary, TimingModel,
};
pub use couple::{group_json, CoupleBatch, CoupleReport};
pub use error::EngineError;
pub use incremental::{EditCheckpoint, IncrementalAnalysis};
pub use service::{
    CoupleSpec, CoupleTicket, EngineService, EngineTelemetrySnapshot, JobSpec, JobTicket,
    JobTiming, ServiceConfig, ServiceStats, SynthSpec, SynthTicket,
};
pub use synth::{synth_json, SynthBatch, SynthReport};
