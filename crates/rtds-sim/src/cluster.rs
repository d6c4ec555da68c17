//! The simulated distributed system: a thin composition root.
//!
//! [`Cluster`] binds the simulation kernel (`SimKernel`: event queue,
//! RNG, virtual lanes, metrics, observability hooks) to the engine
//! components that implement the domain behavior — dispatch
//! (`DispatchEngine`), network (`NetEngine`), faults (`FaultEngine`),
//! background load (`LoadEngine`), and the task table (`TaskTable`) — the
//! execution environment of paper §3.
//! What remains here is composition: construction, the event loop, the
//! period-boundary controller epoch, and finalization.
//!
//! Callers drive a cluster through the [`ClusterApi`] trait (in the
//! prelude), which is the narrow seam between the resource-management
//! layer and the simulator: controllers and experiment harnesses cannot
//! reach simulator internals, only the API.
//!
//! The engine is deterministic: given the same [`ClusterConfig`] (including
//! the seed), the same task specs, workload functions, and controller
//! decisions, two runs produce identical event sequences and metrics.

use std::sync::Arc;

use crate::clock::ClockConfig;
use crate::control::{ControlAction, ControlContext, Controller, PeriodObservation};
use crate::engine::dispatch::Next;
use crate::engine::{DispatchEngine, FaultEngine, LoadEngine, NetEngine, TaskTable};
use crate::ids::{NodeId, StageId, SubtaskIdx, TaskId};
use crate::kernel::{Ev, SimKernel};
use crate::lane::LaneRef;
use crate::load::LoadGenerator;
use crate::metrics::{PeriodRecord, RunMetrics};
use crate::net::BusConfig;
use crate::perf::{PerfReport, PerfState};
use crate::pipeline::TaskSpec;
use crate::sched::SchedulerKind;
use crate::sink::BoundedSink;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;

pub use crate::engine::tasks::WorkloadFn;

/// Static configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of homogeneous processors (Table 1: 6).
    pub n_nodes: usize,
    /// CPU scheduling policy on every node (Table 1: round-robin, 1 ms).
    pub scheduler: SchedulerKind,
    /// Shared-segment parameters (Table 1: 100 Mbps Ethernet).
    pub bus: BusConfig,
    /// Clock-skew parameters; only their RNG draws reach a run (see
    /// [`crate::clock`]).
    pub clock: ClockConfig,
    /// Master seed; all stochastic components derive from it.
    pub seed: u64,
    /// Utilization sampling interval.
    pub sample_interval: SimDuration,
    /// Maximum simultaneously in-flight instances per task before newly
    /// released instances are shed (counted as missed).
    pub max_in_flight: usize,
    /// Maximum release jitter, microseconds: each period's data arrival is
    /// delayed by a uniform draw in `[0, max]` past its nominal grid point
    /// — the paper's "event arrivals have nondeterministic distributions"
    /// (§1). 0 = perfectly periodic arrivals.
    pub release_jitter_us: u64,
    /// Total simulated time.
    pub horizon: SimDuration,
}

impl ClusterConfig {
    /// The paper's Table 1 environment with a caller-chosen seed/horizon.
    pub fn paper_baseline(seed: u64, horizon: SimDuration) -> Self {
        ClusterConfig {
            n_nodes: 6,
            scheduler: SchedulerKind::paper_baseline(),
            bus: BusConfig::paper_baseline(),
            clock: ClockConfig::lan_default(),
            seed,
            sample_interval: SimDuration::from_millis(100),
            max_in_flight: 4,
            release_jitter_us: 0,
            horizon,
        }
    }
}

/// Outcome of a completed run.
pub struct RunOutcome {
    /// Everything measured.
    pub metrics: RunMetrics,
    /// Controller name, for reports.
    pub controller: &'static str,
    /// The event trace, if tracing was enabled.
    pub trace: Option<BoundedSink<TraceEvent>>,
    /// Performance counters, if `enable_perf` was called before the run.
    pub perf: Option<PerfReport>,
}

/// The narrow driving seam of the simulator: everything the
/// resource-management layer, experiment harnesses, and examples are
/// allowed to do to a cluster. Implemented by [`Cluster`]; re-exported in
/// the prelude.
///
/// Keeping the driving surface behind a trait (rather than inherent
/// methods) makes the boundary auditable: a controller or harness that
/// wants more than this has to change the trait, not quietly reach into
/// simulator internals.
pub trait ClusterApi {
    /// The configuration in force.
    fn config(&self) -> &ClusterConfig;

    /// Adds a periodic task with its workload source. The task's id must
    /// equal its insertion order.
    ///
    /// # Panics
    /// Panics if the spec is invalid for this cluster.
    fn add_task(&mut self, spec: TaskSpec, workload: WorkloadFn);

    /// Attaches a background load generator.
    ///
    /// # Panics
    /// Panics if the generator targets a nonexistent node or its
    /// configuration fails [`LoadGenerator::validate`] (non-finite or
    /// out-of-range utilization, degenerate intervals — anything that
    /// could spin the event loop or silently skew the ambient load).
    fn add_load(&mut self, gen: Box<dyn LoadGenerator>);

    /// Installs the resource-management policy.
    fn set_controller(&mut self, controller: Box<dyn Controller>);

    /// Enables structured tracing with the given event capacity.
    /// Failure-class events ([`TraceEvent::is_failure_class`]) are kept
    /// even past it.
    fn enable_trace(&mut self, capacity: usize);

    /// Enables performance instrumentation for the coming run. The
    /// optional `alloc_probe` is a monotone allocation counter (installed
    /// by the embedding binary; the simulator itself forbids `unsafe` and
    /// cannot count allocations) sampled around each control epoch.
    fn enable_perf(&mut self, alloc_probe: Option<fn() -> u64>);

    /// Schedules a node failure at the given instant (fault injection).
    /// The node's running and queued jobs are lost; instances that lose a
    /// job are failed and counted as missed; the node never dispatches
    /// again. The paper motivates adaptive management partly by
    /// survivability (§1) — this is the survivability stressor.
    ///
    /// # Panics
    /// Panics if the node does not exist or the failure is scheduled after
    /// the horizon.
    fn fail_node_at(&mut self, node: NodeId, at: SimTime);

    /// Schedules a node *crash* at `at`: like [`Self::fail_node_at`]
    /// (running and queued jobs lost, affected instances failed) but the
    /// node's in-flight bus traffic is also torn down — its queued
    /// messages are purged and a frame it was mid-transmitting never
    /// completes — and, if `restart_after` is given, the node rejoins that
    /// much later with cold caches and empty queues (see
    /// [`crate::node::Node::restart`] and the `cold` flag in
    /// [`ControlContext`]). A restart scheduled past the horizon never
    /// happens.
    ///
    /// # Panics
    /// Panics if the node does not exist, the crash is scheduled after the
    /// horizon, or `restart_after` is zero.
    fn crash_node_at(&mut self, node: NodeId, at: SimTime, restart_after: Option<SimDuration>);

    /// Runs the simulation to the horizon and returns the metrics.
    fn run(self) -> RunOutcome
    where
        Self: Sized;
}

/// The simulated distributed system: kernel + engines + controller.
pub struct Cluster {
    /// Pure mechanics: queue, RNG, lanes, metrics, observability.
    kernel: SimKernel,
    /// Nodes (their ready queues carry each job's remaining demand), the
    /// job slab read at completions and node deaths, quantum-chain
    /// metadata.
    dispatch: DispatchEngine,
    /// Shared bus (its slab holds every message copy), retransmit
    /// records, dedup gates.
    net: NetEngine,
    /// Node death, crash teardown, restart re-arm.
    fault: FaultEngine,
    /// Background generators and their dormancy.
    load: LoadEngine,
    /// Task runtimes, instances, period bookkeeping.
    tasks: TaskTable,
    /// The resource-management policy under test.
    controller: Box<dyn Controller>,
    /// Reusable controller snapshot: static fields are built once, dynamic
    /// fields are refreshed in place each control epoch.
    ctx_scratch: Option<ControlContext>,
    /// Retired observation buffer, swapped with `tasks.pending_obs` each
    /// control epoch so both keep their capacity.
    obs_scratch: Vec<PeriodObservation>,
}

impl Cluster {
    /// Builds an empty cluster (no tasks, no load, null controller).
    pub fn new(config: ClusterConfig) -> Self {
        Self::build(config, true)
    }

    /// Equivalence oracle only: a cluster that runs ambient load on the
    /// reference heap-event path (every background poll and background
    /// slice boundary a real `BgPoll`/`Dispatch` event) instead of on
    /// virtual lanes. Outputs are byte-identical to [`Cluster::new`];
    /// `tests/bg_fastpath_equivalence.rs` checks exactly that. Not a
    /// configuration choice — nothing else should call it.
    #[doc(hidden)]
    pub fn reference(config: ClusterConfig) -> Self {
        Self::build(config, false)
    }

    fn build(config: ClusterConfig, bg_ff: bool) -> Self {
        assert!(config.n_nodes > 0, "cluster needs at least one node");
        assert!(!config.horizon.is_zero(), "zero horizon");
        assert!(!config.sample_interval.is_zero(), "zero sample interval");
        assert!(config.max_in_flight >= 1, "max_in_flight must be >= 1");
        // Construction order is part of the byte-identity contract: the
        // kernel seeds the RNG and makes the clock draws first (the only
        // construction-time draws).
        let dispatch = DispatchEngine::new(config.n_nodes, &config.scheduler, bg_ff);
        let net = NetEngine::new(config.bus);
        let kernel = SimKernel::new(config);
        Cluster {
            kernel,
            dispatch,
            net,
            fault: FaultEngine,
            load: LoadEngine::default(),
            tasks: TaskTable::default(),
            controller: Box::new(crate::control::NullController),
            ctx_scratch: None,
            obs_scratch: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    fn run_to_horizon(&mut self) {
        // Seed the initial event population in one reserved burst.
        self.kernel
            .queue
            .reserve(self.tasks.tasks.len() + self.load.gens.len() + 2);
        for t in 0..self.tasks.tasks.len() {
            self.kernel.queue.schedule(
                SimTime::ZERO,
                Ev::PeriodRelease {
                    task: TaskId::from_index(t),
                    index: 0,
                },
            );
        }
        for g in 0..self.load.gens.len() {
            let at = self.load.gens[g].first_at(&mut self.kernel.rng);
            self.load.arm_poll(&mut self.kernel, &self.dispatch, at, g);
        }
        // The first sample and sync round obey the same horizon rule as
        // every re-arm: nothing is scheduled that could never fire.
        let horizon = self.kernel.horizon();
        let first_sample = SimTime::ZERO + self.kernel.config.sample_interval;
        if first_sample <= horizon {
            self.kernel.queue.schedule(first_sample, Ev::Sample);
        }
        let first_sync = SimTime::ZERO + self.kernel.config.clock.sync_interval;
        if first_sync <= horizon {
            self.kernel.queue.schedule(first_sync, Ev::ClockSync);
        }

        self.dispatch.start_run();
        if let Some(p) = self.kernel.perf.as_mut() {
            p.run_started = Some(std::time::Instant::now());
        }
        // The queue's min key is re-read only when the queue has actually
        // changed (its version ticks on every schedule/pop/cancel); long
        // lane-only stretches — background-heavy phases — skip the heap
        // peek entirely.
        let mut queue_key: Option<(SimTime, u64)> = None;
        let mut queue_ver = u64::MAX;
        loop {
            // The earliest pending work is the min over the real queue
            // and the virtual lanes; both carry a total `(time, seq)`
            // order key.
            if self.kernel.queue.version() != queue_ver {
                queue_key = self.kernel.queue.peek_key();
                queue_ver = self.kernel.queue.version();
            }
            let lane = self
                .kernel
                .lanes
                .peek()
                .filter(|e| queue_key.is_none_or(|q| (e.at, e.seq) <= q));
            // A chain completion's lane key is provisional; against an
            // event at its own µs it is made exact first, and events that
            // share a tie slot are ranked (only a completion's key can
            // equal the queue head's).
            let lane = match lane {
                Some(e) if matches!(e.lane, LaneRef::Dispatch(_)) => {
                    match self.dispatch.contend(&mut self.kernel, e, queue_key) {
                        Next::Lane(e) => Some(e),
                        Next::Queue => None,
                        Next::Again => continue,
                    }
                }
                lane => lane,
            };
            let t = match (lane, queue_key) {
                (Some(e), _) => e.at,
                (None, Some((qt, _))) => qt,
                (None, None) => break,
            };
            if t > horizon {
                break;
            }
            // While some node holds a node-local boundary, every global
            // event is logged with the tie slot current as it fires.
            let log = self.dispatch.lazy_nodes > 0;
            let tie = self.kernel.queue.tie_seq();
            let (now, ev, timed) = match lane {
                None => {
                    let (now, mut ev) = self.kernel.queue.pop().expect("peeked event exists");
                    let (_, seq) = queue_key.expect("peeked event exists");
                    if let Ev::Dispatch { node } = ev {
                        let k = &mut self.kernel;
                        ev = Ev::Dispatch { node: self.dispatch.fire_heap_dispatch(k, node.index(), (now, seq)) };
                    }
                    self.kernel.event = (now, seq);
                    if log {
                        self.log_fired(now, seq, tie);
                    }
                    (now, ev, true)
                }
                Some(e) => {
                    // Polls have no external observer: counted as lane
                    // fires, untimed. A node lane carries a stage job's
                    // chain completion, an ordinary timed dispatch once
                    // the chain's node-local links are counted.
                    let (ev, seq) = match e.lane {
                        LaneRef::Dispatch(i) => {
                            let seq = self.dispatch.fire_completion(&mut self.kernel, i as usize, e);
                            (Ev::Dispatch { node: NodeId(i) }, seq)
                        }
                        LaneRef::BgPoll(g) => (Ev::BgPoll { gen: g as usize }, e.seq),
                    };
                    self.kernel.event = (t, seq);
                    if log {
                        self.log_fired(t, seq, tie);
                    }
                    // Fire: the lane's event goes through `handle()`.
                    // Its entry stays at the heap top — everything the
                    // handler can arm keys strictly after it — so a
                    // handler re-arming the same lane rewrites it in
                    // place; otherwise it is discarded as stale.
                    self.kernel.lanes.disarm(e.lane);
                    self.kernel.queue.advance_now(t);
                    let poll = matches!(ev, Ev::BgPoll { .. });
                    if let Some(p) = self.kernel.perf.as_mut().filter(|_| poll) {
                        p.report.elided_bg_polls += 1;
                    }
                    (t, ev, !poll)
                }
            };
            let kind = ev.kind_index();
            let t0 = (timed && self.kernel.perf.is_some()).then(std::time::Instant::now);
            self.handle(now, ev);
            if let Some(t0) = t0 {
                let dt = t0.elapsed().as_nanos() as u64;
                let p = self.kernel.perf.as_mut().expect("perf enabled");
                p.report.events[kind] += 1;
                p.report.ns[kind] += dt;
            }
        }
        self.dispatch.finish(&mut self.kernel, horizon);
        self.finalize(horizon);
    }

    /// Logs a global event fired at `(at, seq)` with tie slot `tie`,
    /// compacting the log first rather than letting it grow.
    #[inline]
    fn log_fired(&mut self, at: SimTime, seq: u64, tie: u64) {
        if self.kernel.fired.would_grow() {
            self.dispatch.compact_log(&mut self.kernel);
        }
        self.kernel.fired.push(at, seq, tie);
    }

    /// Routes one popped event to the engine that owns its domain. The
    /// composition-root events (period release, clock sync, sampling) are
    /// handled here; everything else is dispatched on split borrows of
    /// the kernel and the engines — disjoint fields, so they all coexist.
    /// Inlined into its one call site, so a lane fire costs no more than
    /// a direct handler call.
    #[inline(always)]
    fn handle(&mut self, now: SimTime, ev: Ev) {
        #[cfg(test)]
        {
            self.kernel.handling = crate::perf::PHASE_NAMES[ev.kind_index()];
        }
        match ev {
            Ev::PeriodRelease { task, index } => return self.on_period_release(now, task, index),
            Ev::ClockSync => return self.on_clock_sync(now),
            Ev::Sample => return self.on_sample(now),
            _ => {}
        }
        let Cluster { kernel, dispatch, net, fault, load, tasks, .. } = self;
        match ev {
            Ev::Dispatch { node } => dispatch.on_dispatch(kernel, tasks, net, now, node),
            Ev::BgPoll { gen } => load.on_bg_poll(kernel, dispatch, tasks, now, gen),
            Ev::TxComplete => net.on_tx_complete(kernel, tasks, now),
            Ev::Deliver { msg } => net.on_deliver(kernel, dispatch, tasks, now, msg),
            Ev::NodeFail { node } => fault.on_node_fail(kernel, dispatch, tasks, now, node),
            Ev::NodeCrash { node } => fault.on_node_crash(kernel, dispatch, net, tasks, now, node),
            Ev::NodeRestart { node } => fault.on_node_restart(kernel, dispatch, load, now, node),
            Ev::RetxTimeout { retx } => net.on_retx_timeout(kernel, dispatch, tasks, now, retx),
            Ev::PeriodRelease { .. } | Ev::ClockSync | Ev::Sample => unreachable!("handled above"),
        }
    }

    // ------------------------------------------------------------------
    // Period boundary: the one event the composition root handles itself,
    // because it is where the controller meets the engines.
    // ------------------------------------------------------------------

    fn on_period_release(&mut self, now: SimTime, task: TaskId, index: u64) {
        // 1. Let the controller react to everything that completed.
        self.run_controller(now);

        // 2. Draw this period's workload.
        let tracks = (self.tasks.workloads[task.index()])(index);
        self.tasks.tasks[task.index()].last_tracks = tracks;

        // 3. Admission: shed if too many instances are still in flight.
        let rt = &self.tasks.tasks[task.index()];
        let in_flight = rt.instances.len();
        let rec = PeriodRecord {
            instance: index,
            released: now,
            tracks,
            replicas_per_stage: rt.replica_counts(),
            end_to_end: None,
            missed: None,
            shed: false,
        };
        let rec_i = self.kernel.metrics.periods.len();
        self.kernel.metrics.periods.push(rec);

        if in_flight >= self.kernel.config.max_in_flight {
            self.kernel
                .record_trace(now, TraceEvent::Shed { instance: index });
            let rec = &mut self.kernel.metrics.periods[rec_i];
            rec.shed = true;
            rec.missed = Some(true);
            self.tasks.pending_obs.push(PeriodObservation {
                task,
                instance: index,
                released: now,
                tracks,
                end_to_end: None,
                missed: true,
                stages: Vec::new(),
            });
        } else {
            // 4. Release: instantiate and start the first stage.
            self.kernel
                .record_trace(now, TraceEvent::Release { instance: index, tracks });
            self.tasks.tasks[task.index()].release(index, now, tracks, rec_i);
            self.tasks.start_stage(
                &mut self.kernel,
                &mut self.dispatch,
                now,
                task,
                index,
                SubtaskIdx(0),
            );
        }

        // 5. Schedule the next release on the nominal grid plus jitter
        // (jitter never accumulates: it is applied to the grid point, not
        // to the previous jittered release).
        let nominal = SimTime::ZERO + self.tasks.tasks[task.index()].spec.period * (index + 1);
        let jitter = if self.kernel.config.release_jitter_us > 0 {
            SimDuration::from_micros(self.kernel.rng.below(self.kernel.config.release_jitter_us + 1))
        } else {
            SimDuration::ZERO
        };
        let next = nominal + jitter;
        if next <= self.kernel.horizon() {
            // max(now): a jittered previous release can never push the
            // next one into the simulated past.
            self.kernel
                .queue
                .schedule(next.max(now), Ev::PeriodRelease { task, index: index + 1 });
        }
    }

    fn on_clock_sync(&mut self, now: SimTime) {
        let k = &mut self.kernel;
        k.config.clock.draw_sync_round(k.config.n_nodes, &mut k.rng);
        let next = now + k.config.clock.sync_interval;
        if next <= SimTime::ZERO + k.config.horizon {
            k.queue.schedule(next, Ev::ClockSync);
        }
    }

    fn on_sample(&mut self, now: SimTime) {
        self.dispatch.settle(&mut self.kernel, now);
        let row: Vec<f64> = self
            .dispatch
            .nodes
            .iter_mut()
            .map(|n| n.sample_utilization(now))
            .collect();
        self.kernel.metrics.cpu_samples.push(row);
        let bus_busy = self.net.bus.busy_total(now);
        let interval = now.saturating_since(self.net.sampled_at);
        if !interval.is_zero() {
            let u = bus_busy.saturating_sub(self.net.sampled_bus_busy).as_secs_f64()
                / interval.as_secs_f64();
            self.kernel.metrics.net_samples.push(u);
        }
        self.net.sampled_bus_busy = bus_busy;
        self.net.sampled_at = now;
        let next = now + self.kernel.config.sample_interval;
        if next <= self.kernel.horizon() {
            self.kernel.queue.schedule(next, Ev::Sample);
        }
    }

    fn run_controller(&mut self, now: SimTime) {
        // Swap the pending observations out through the retired scratch
        // buffer: both vectors keep their capacity across control epochs,
        // and the retired observations' stage lists go back to the task
        // table for the next completed instances.
        let mut obs = std::mem::take(&mut self.obs_scratch);
        for o in obs.drain(..) {
            let mut stages = o.stages;
            if stages.capacity() > 0 {
                stages.clear();
                self.tasks.spare_stage_obs.push(stages);
            }
        }
        std::mem::swap(&mut obs, &mut self.tasks.pending_obs);

        // Reuse one ControlContext for the whole run. The per-task static
        // fields (replicability, periods, deadlines) are built exactly
        // once; the dynamic fields are refreshed in place. Placements are
        // Arc clones of the runtimes' current placement — no deep copy.
        let mut ctx = self.ctx_scratch.take().unwrap_or_else(|| ControlContext {
            now,
            node_util_pct: Vec::with_capacity(self.dispatch.nodes.len()),
            alive: Vec::with_capacity(self.dispatch.nodes.len()),
            cold: Vec::with_capacity(self.dispatch.nodes.len()),
            placements: Vec::with_capacity(self.tasks.tasks.len()),
            replicable: self
                .tasks
                .tasks
                .iter()
                .map(|t| t.spec.stages.iter().map(|s| s.replicable).collect())
                .collect(),
            periods: self.tasks.tasks.iter().map(|t| t.spec.period).collect(),
            deadlines: self.tasks.tasks.iter().map(|t| t.spec.deadline).collect(),
            last_tracks: Vec::with_capacity(self.tasks.tasks.len()),
        });
        ctx.now = now;
        ctx.node_util_pct.clear();
        ctx.node_util_pct
            .extend(self.dispatch.nodes.iter().map(|n| n.observed_utilization_pct()));
        ctx.alive.clear();
        ctx.alive.extend(self.dispatch.nodes.iter().map(|n| n.alive));
        ctx.cold.clear();
        ctx.cold.extend(self.dispatch.nodes.iter().map(|n| n.is_cold()));
        ctx.placements.clear();
        ctx.placements
            .extend(self.tasks.tasks.iter().map(|t| Arc::clone(&t.placement)));
        ctx.last_tracks.clear();
        ctx.last_tracks
            .extend(self.tasks.tasks.iter().map(|t| t.last_tracks));

        let actions = match self.kernel.perf.as_ref().map(|p| p.alloc_probe) {
            None => self.controller.on_period_boundary(&obs, &ctx),
            Some(probe) => {
                let alloc0 = probe.map(|f| f());
                let t0 = std::time::Instant::now();
                let actions = self.controller.on_period_boundary(&obs, &ctx);
                let dt = t0.elapsed().as_nanos() as u64;
                if let Some(p) = self.kernel.perf.as_mut() {
                    p.report.control_epochs += 1;
                    p.report.controller_ns += dt;
                    if let (Some(a0), Some(f)) = (alloc0, probe) {
                        *p.report.epoch_allocs.get_or_insert(0) += f().saturating_sub(a0);
                    }
                }
                actions
            }
        };
        for a in actions {
            match a {
                ControlAction::SetPlacement { task, subtask, nodes } => {
                    if task.index() >= self.tasks.tasks.len()
                        || nodes.iter().any(|n| {
                            n.index() >= self.kernel.config.n_nodes
                                || !self.dispatch.nodes[n.index()].alive
                        })
                    {
                        self.kernel.metrics.rejected_actions += 1;
                        continue;
                    }
                    let rt = &mut self.tasks.tasks[task.index()];
                    // An accepted placement is exactly `nodes`, so it changed
                    // the stage iff it differs from the current one.
                    let changed = rt.placement.get(subtask.index()) != Some(&nodes);
                    match rt.set_placement(subtask, nodes, self.kernel.config.n_nodes) {
                        Ok(()) if changed => {
                            self.kernel.metrics.placement_changes += 1;
                            if self.kernel.trace.is_some() {
                                let nodes = rt.placement[subtask.index()].clone();
                                let stage = StageId::new(task, subtask);
                                self.kernel.record_trace(now, TraceEvent::Placement { stage, nodes });
                            }
                        }
                        Ok(()) => {}
                        Err(_) => self.kernel.metrics.rejected_actions += 1,
                    }
                }
            }
        }
        self.ctx_scratch = Some(ctx);
        self.obs_scratch = obs;
    }

    fn finalize(&mut self, horizon: SimTime) {
        self.kernel.metrics.horizon = horizon.since(SimTime::ZERO);
        self.kernel.metrics.forecast_residuals = self.controller.forecast_residuals();
        self.kernel.metrics.cpu_lifetime_util = self
            .dispatch
            .nodes
            .iter()
            .map(|n| n.lifetime_utilization(horizon))
            .collect();
        self.kernel.metrics.net_lifetime_util = self.net.bus.lifetime_utilization(horizon);
        self.kernel.metrics.bytes_offered = self.net.bus.bytes_offered;
        self.kernel.metrics.messages_offered = self.net.bus.messages_offered;
        // Decide instances that were still running: if their deadline has
        // already passed at the horizon, they have certainly missed.
        for rt in &self.tasks.tasks {
            for inst in &rt.instances {
                if horizon > inst.released + rt.spec.deadline {
                    self.kernel.metrics.periods[inst.record].missed = Some(true);
                }
            }
        }
    }
}

impl ClusterApi for Cluster {
    fn config(&self) -> &ClusterConfig {
        &self.kernel.config
    }

    fn add_task(&mut self, spec: TaskSpec, workload: WorkloadFn) {
        assert_eq!(
            spec.id.index(),
            self.tasks.tasks.len(),
            "task id must equal insertion index"
        );
        if let Err(e) = spec.validate(self.kernel.config.n_nodes) {
            panic!("invalid task spec: {e}");
        }
        self.tasks.tasks.push(crate::pipeline::TaskRuntime::new(spec));
        self.tasks.workloads.push(workload);
    }

    fn add_load(&mut self, gen: Box<dyn LoadGenerator>) {
        assert!(
            gen.node().index() < self.kernel.config.n_nodes,
            "load generator targets nonexistent node"
        );
        if let Err(e) = gen.validate() {
            panic!("invalid load generator config: {e}");
        }
        self.load.add(gen);
    }

    fn set_controller(&mut self, controller: Box<dyn Controller>) {
        self.controller = controller;
    }

    fn enable_trace(&mut self, capacity: usize) {
        self.kernel.trace = Some(BoundedSink::retaining(capacity, TraceEvent::is_failure_class));
    }

    fn enable_perf(&mut self, alloc_probe: Option<fn() -> u64>) {
        self.kernel.perf = Some(Box::new(PerfState::new(alloc_probe)));
    }

    fn fail_node_at(&mut self, node: NodeId, at: SimTime) {
        assert!(
            node.index() < self.kernel.config.n_nodes,
            "no such node {node}"
        );
        assert!(at <= self.kernel.horizon(), "failure beyond horizon");
        self.kernel.queue.schedule(at, Ev::NodeFail { node });
    }

    fn crash_node_at(&mut self, node: NodeId, at: SimTime, restart_after: Option<SimDuration>) {
        assert!(
            node.index() < self.kernel.config.n_nodes,
            "no such node {node}"
        );
        assert!(at <= self.kernel.horizon(), "crash beyond horizon");
        self.kernel.queue.schedule(at, Ev::NodeCrash { node });
        if let Some(d) = restart_after {
            assert!(!d.is_zero(), "zero restart delay");
            let back = at + d;
            if back <= self.kernel.horizon() {
                self.kernel.queue.schedule(back, Ev::NodeRestart { node });
            }
        }
    }

    fn run(mut self) -> RunOutcome {
        self.run_to_horizon();
        let perf = self.kernel.perf.take().map(|mut p| {
            p.report.queue = self.kernel.queue.stats();
            p.report.rng_draws = self.kernel.rng.draws();
            p.report.wall_ns = p
                .run_started
                .map(|s| s.elapsed().as_nanos() as u64)
                .unwrap_or(0);
            p.report
        });
        RunOutcome {
            metrics: self.kernel.metrics,
            controller: self.controller.name(),
            trace: self.kernel.trace,
            perf,
        }
    }
}

#[cfg(test)]
#[path = "cluster_tests.rs"]
mod tests;

#[cfg(test)]
#[path = "tie_tests.rs"]
mod tie_tests;
