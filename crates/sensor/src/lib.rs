//! # aspen-sensor
//!
//! ASPEN's **distributed sensor engine** — the in-network query runtime
//! the paper deploys on motes (§3, detailed in ref \[13\], DMSN'08). It
//! runs as per-node programs over the [`aspen_netsim`] simulator and
//! supports:
//!
//! * **routing-tree formation** (beacon flood from the base station),
//! * **selection pushdown** (threshold predicates evaluated at the
//!   sampling mote),
//! * **TAG-style in-network aggregation** (mergeable partials combined
//!   up the tree, one message per node per epoch),
//! * **in-network pairwise joins** between co-located device streams —
//!   the paper's temperature ⋈ seat-light example — with the join
//!   placement chosen **per sensor** by [`placement`]: ship the light
//!   reading to the temperature mote, the reverse, or both to the base
//!   station, whichever minimizes expected radio messages given each
//!   desk's rates, occupancy selectivity, and tree depth.
//!
//! The engine exposes the Garlic-style interface the federated optimizer
//! needs: [`subquery::admit`] answers *"can the sensor engine run this
//! query fragment?"* and [`subquery::estimate_messages`] prices it in the
//! engine's native currency (radio messages per epoch).

pub mod app;
pub mod config;
pub mod deploy;
pub mod engine;
pub mod message;
pub mod placement;
pub mod subquery;

pub use config::{DeviceAttr, JoinStrategy, NodeRole, QuerySpec};
pub use deploy::{Deployment, DeskBinding};
pub use engine::{SensorEngine, SensorRunResult};
pub use message::SensorMsg;
pub use placement::{choose_placement, DeskStats, PlacementDecision};
