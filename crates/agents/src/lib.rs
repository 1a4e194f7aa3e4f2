//! # sqlb-agents
//!
//! The autonomous participants of the SQLB system: consumer and provider
//! agents, together with the machinery they need to act autonomously —
//! preference tables, private (preference-based) satisfaction tracking,
//! sliding-window utilization, bid computation, departure rules, and the
//! population generators that reproduce the class mix of the paper's
//! evaluation (Table 2 and Section 6.1).
//!
//! Agents own their *private* information (preferences, preference-based
//! satisfaction) and expose only *intentions*: "The way in which
//! participants compute their intentions is considered as private
//! information and not revealed to others" (Section 2).

#![warn(missing_docs)]

pub mod active;
pub mod consumer;
pub mod departure;
pub mod population;
mod preference_window;
pub mod provider;
pub mod utilization;

pub use active::ActiveSet;
pub use consumer::{ConsumerAgent, ConsumerConfig};
pub use departure::{
    ConsumerDepartureRule, DepartureReason, EnabledReasons, ProviderDepartureRule,
};
pub use population::{
    AdaptationClass, CapacityClass, InterestClass, Population, PopulationConfig, ProviderProfile,
};
pub use provider::{ProviderAgent, ProviderConfig};
pub use utilization::UtilizationWindow;

/// Stable-identifier participant state table (defined in `sqlb-types` so
/// lower layers such as the mediator state can use it too; re-exported
/// here because agent populations are its primary producer).
pub use sqlb_types::table::{ParticipantTable, StableId};
