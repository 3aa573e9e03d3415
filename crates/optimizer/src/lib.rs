//! # aspen-optimizer
//!
//! ASPEN's **federated query optimizer** (§3 of the paper, modeled on
//! Garlic \[7\]): it takes a bound query over heterogeneous sources,
//! enumerates candidate partitionings of the plan between the **sensor
//! engine** (on motes) and the **stream engine** (on PCs), asks each
//! engine's sub-optimizer *"can you execute this fragment, and at what
//! cost?"*, converts the engines' incommensurable native costs — radio
//! messages vs. answer latency — into one normalized currency using
//! catalog statistics (network diameter, sampling rates, loss), and
//! picks the cheapest combination.
//!
//! The chosen partitioning can be rendered exactly the way the paper's
//! Figure 1 shows it: a `CREATE VIEW` for the pushed-down fragment plus
//! the rewritten residual query (see [`FederatedPlan::view_sql`] /
//! [`FederatedPlan::rewritten_sql`]) — which is what the F1 harness
//! prints.

pub mod federated;
pub mod join_order;
pub mod plan_cache;
pub mod stream_cost;

pub use federated::{optimize, optimize_named, CandidateSummary, FederatedPlan, SensorPart};
pub use join_order::OrderPrices;
pub use plan_cache::{CachedQuery, PlanCache, PlanCacheStats};
pub use stream_cost::{
    choose_knobs, delivery_overhead_ops, estimate_cardinality, estimate_output_rate, estimate_plan,
    estimate_plan_with_delivery, DeliverySpec, StreamCost,
};
