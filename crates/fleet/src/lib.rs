//! Multi-node serving fleet for the ISPASS'21 DBMS ML scoring study.
//!
//! This crate composes N independent [`mlscore_serve::ServeEngine`] nodes
//! — each with its own artifact cache, device roster, admission queue, and
//! journal — under a front-end router tier, a deterministic autoscaler,
//! and a library of traffic scenarios (diurnal curves, flash crowds,
//! model-release storms, node failures, stragglers). The question it asks
//! is the paper's question at fleet scale: accelerator-backed scoring only
//! pays off when the *fleet* keeps compiled artifacts warm, so routing
//! policy (cache affinity vs. load spread) and scaling policy (cold nodes
//! pay compile storms) move SLO attainment and device-seconds as much as
//! any per-node kernel speed.
//!
//! Everything runs on the shared simulated clock: one
//! [`run_fleet`] call is a pure function of `(FleetConfig,
//! ScenarioSpec)`, byte-identical across runs, and exports per-node
//! Perfetto lanes plus cross-node flow arrows for every re-routed
//! request.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod router;
pub mod scale;
pub mod scenario;
pub mod sim;

pub use report::{FleetReport, NodeSummary, ScaleEvent};
pub use router::{NodeView, Router, RouterKind};
pub use scale::{Autoscaler, FleetSnapshot, ScaleDecision, ScalePolicy};
pub use scenario::{Fault, ScenarioKind, ScenarioSpec};
pub use sim::{run_fleet, FleetConfig, NodeSpec};
