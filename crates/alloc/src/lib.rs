//! The primary contribution of Hung & Chen (ICDCS 2005): channel
//! allocation for **diverse data broadcasting** via
//!
//! * **DRP** — *Dimension Reduction Partitioning*, a top-down
//!   group-splitting heuristic over the benefit-ratio order
//!   ([`Drp`]), and
//! * **CDS** — *Cost-Diminishing Selection*, a steepest-descent
//!   single-item-move refinement to a local optimum ([`Cds`]),
//!
//! combined as the paper's two-step scheme **DRP-CDS** ([`DrpCds`]).
//!
//! All three implement
//! [`ChannelAllocator`](dbcast_model::ChannelAllocator), so they drop
//! into the same harnesses as the baselines in `dbcast-baselines`.
//!
//! # Example
//!
//! ```
//! use dbcast_alloc::DrpCds;
//! use dbcast_model::{ChannelAllocator, Database, ItemSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let db = Database::try_from_specs(vec![
//!     ItemSpec::new(0.55, 1.0),
//!     ItemSpec::new(0.25, 8.0),
//!     ItemSpec::new(0.12, 2.0),
//!     ItemSpec::new(0.08, 16.0),
//! ])?;
//! let alloc = DrpCds::default().allocate(&db, 2)?;
//! assert_eq!(alloc.channels(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cds;
mod drp;
mod dynamic;
pub mod engine;
mod partition;
mod pipeline;

pub use cds::{Cds, CdsOutcome, CdsStep, ReferenceCds};
pub use drp::{Drp, DrpOutcome, SplitPriority};
pub use dynamic::{DynamicBroadcast, DynamicError, ItemHandle, RepairOutcome, RepairStats};
pub use engine::{BestMoveEngine, EngineMove};
pub use partition::{best_split, SplitPoint};
pub use pipeline::{DrpCds, DrpCdsOutcome};
