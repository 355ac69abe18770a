//! # h2priv-core — the HTTP/2 multiplexing serialization attack
//!
//! The primary contribution of *"Depending on HTTP/2 for Privacy? Good
//! Luck!"* (DSN 2020), as a library. The adversary is a compromised
//! on-path gateway that defeats the privacy attributed to HTTP/2
//! multiplexing by *serializing* the server's object transmissions:
//!
//! 1. [`TrafficMonitor`] (the paper's `tshark`) passively follows the
//!    client→server TCP stream, parses TLS record headers (never payload),
//!    and counts GET requests via the `content_type == 23` filter.
//! 2. [`NetworkController`] (the paper's `tc`/bash scripts) spaces
//!    GET-carrying packets (§IV-B jitter), caps bandwidth (§IV-C), and
//!    drops server→client application packets to force an HTTP/2
//!    `RST_STREAM` (§IV-D).
//! 3. [`SizeMap`] (the paper's Python predictor) matches the summed record
//!    sizes of serialized response bursts against a pre-compiled
//!    object-size map.
//! 4. [`Adversary`] composes the three into the §V phase machine; its
//!    [`AttackConfig`] fields map one-to-one onto the paper's knobs, so
//!    the §IV single-lever experiments are just partial configurations.
//!
//! The [`experiment`] module exposes trial runners and scoring used by the
//! benches that regenerate every table and figure (see `EXPERIMENTS.md`).
//!
//! # Examples
//!
//! ```no_run
//! use h2priv_core::{experiment, AttackConfig};
//!
//! // One full §V attack trial with the paper's parameters.
//! let attack = AttackConfig::paper_attack();
//! let trial = experiment::run_paper_trial(42, Some(&attack), |_| {});
//! let map = experiment::calibrate_size_map(&experiment::objects_of_interest(&trial.iw));
//! let analysis = experiment::analyze_trial(
//!     &trial,
//!     &map,
//!     &experiment::objects_of_interest(&trial.iw),
//!     trial.adversary.as_ref().and_then(|a| a.drop_window_end),
//! );
//! println!("HTML recovered: {}", analysis.objects[0].success);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adversary;
mod controller;
pub mod experiment;
mod monitor;
mod predictor;

/// The byte-sharing primitives of the stack ([`h2priv_bytes`]), re-exported
/// so experiment code can name `h2priv_core::bytes::SharedBytes` without a
/// separate dependency on the leaf crate.
pub mod bytes {
    pub use h2priv_bytes::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher, SharedBytes};
}

pub use adversary::{Adversary, AttackConfig, AttackPhase};
pub use controller::{ControllerStats, DropWindow, NetworkController};
pub use monitor::{MonitorConfig, PacketInsight, TrafficMonitor};
pub use predictor::{
    identify_bursts, identify_bursts_with_pairs, match_pair, predicted_order, Identification,
    SizeMap,
};
