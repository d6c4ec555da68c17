//! Engine components: the domain logic of the simulation, split by
//! ownership and registered against the [`crate::kernel::SimKernel`].
//!
//! Each engine owns exactly one slice of mutable state and exposes the
//! handlers for the event kinds in its domain. Handlers take the kernel
//! and any *other* engines they need as explicit `&mut` parameters —
//! disjoint struct fields of `Cluster`, so the borrows always split:
//!
//! | component          | owns                                                           |
//! |--------------------|----------------------------------------------------------------|
//! | [`DispatchEngine`] | nodes and ready entries (job demand), job slab, chain metadata |
//! | [`NetEngine`]      | shared bus and its message slab, retx slab, dedup gates        |
//! | [`FaultEngine`]    | node death, crash teardown, restart re-arm                     |
//! | [`LoadEngine`]     | background generators and their dormancy                       |
//! | [`TaskTable`]      | task runtimes, instances, period bookkeeping                   |
//!
//! `Cluster` (the composition root) owns one of each plus the kernel and
//! the controller, and routes every popped event to the right handler.
//! A job's remaining demand rides in its node's ready-queue entry; the
//! job slab is written at admission and read only when the job completes
//! or its node dies. See `docs/ARCHITECTURE.md` for the full map.

pub(crate) mod dispatch;
pub(crate) mod fault;
pub(crate) mod load;
pub(crate) mod net;
pub(crate) mod tasks;

pub(crate) use dispatch::DispatchEngine;
pub(crate) use fault::FaultEngine;
pub(crate) use load::LoadEngine;
pub(crate) use net::NetEngine;
pub(crate) use tasks::TaskTable;
