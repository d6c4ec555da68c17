//! Shared-medium network model.
//!
//! The paper's hardware is "a set of distributed processors that share a
//! common communication medium such as an Ethernet segment (IEEE 802.3)"
//! at 100 Mbps (Table 1). [`SharedBus`] models that segment: one message
//! transmits at a time; others wait in a FIFO queue. The waiting time is
//! the paper's **buffer delay** `Dbuf` (Eq. 5) — it grows with the total
//! periodic workload because all inter-subtask messages contend for the one
//! segment — and the time on the wire is the **transmission delay**
//! `Dtrans = d / ls` (Eq. 6), plus per-frame Ethernet overhead.
//!
//! Beyond the paper's idealized lossless segment, the bus can model a
//! *degraded* medium: per-message drop and duplication probabilities and
//! transient bandwidth-degradation ("jamming") windows, all configured on
//! [`BusConfig`] and **off by default** so the headline experiments are
//! bit-for-bit unchanged. The engine layers sender-side timeout +
//! retransmit with exponential backoff on top (see `cluster.rs`);
//! retransmissions are ordinary messages that contend for the medium, so
//! Eq. (5) buffer delay degrades realistically under loss.
//!
//! Each message copy is one record in the bus's slab from send until it
//! is taken on delivery or drop, or purged by a crash; the queue, the wire
//! and the `Deliver` event carry its [`Slot`]. [`MsgId`] stays the
//! sequential id that traces print and receivers de-duplicate by.

use std::collections::VecDeque;

use crate::ids::{MsgId, NodeId, StageId};
use crate::slab::Slab;
pub use crate::slab::Slot;
use crate::time::{SimDuration, SimTime};

/// Payload routing information for a delivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgPayload {
    /// Inter-subtask data: the share of the data stream destined for one
    /// replica of one stage of one period instance.
    StageData {
        /// Destination stage.
        stage: StageId,
        /// Destination replica index within the stage's placement.
        replica: u32,
        /// Period instance number.
        instance: u64,
        /// Number of data items (tracks) carried.
        tracks: u64,
    },
}

/// A message either queued, on the wire, or awaiting delivery.
#[derive(Debug, Clone, Copy)]
pub struct Message {
    /// Unique id within the run.
    pub id: MsgId,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Application payload size in bytes (before framing overhead).
    pub size_bytes: u64,
    /// Routing payload.
    pub payload: MsgPayload,
    /// When the sender handed the message to the network layer.
    pub enqueued: SimTime,
    /// When transmission onto the medium began.
    pub tx_start: Option<SimTime>,
    /// Id of the *original* send this message carries data for. Equal to
    /// `id` for first transmissions; retransmissions and bus-injected
    /// duplicates keep the original's id here so receivers can
    /// de-duplicate.
    pub origin: MsgId,
    /// The sender's retransmit record for `origin`, carried by every copy
    /// (`None` without retransmission and for local sends).
    pub retx: Option<Slot>,
}

impl Message {
    /// Buffer (queueing) delay experienced so far: Eq. (5)'s measured
    /// quantity.
    #[cfg(test)]
    pub(crate) fn buffer_delay(&self) -> Option<SimDuration> {
        self.tx_start.map(|t| t.since(self.enqueued))
    }
}

/// Configuration of the shared segment.
#[derive(Debug, Clone, Copy)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct BusConfig {
    /// Link speed in bits per second (`ls` in Eq. 6). Paper: 100 Mbps.
    pub bandwidth_bps: f64,
    /// Maximum transmission unit payload per frame, bytes.
    pub mtu_bytes: u64,
    /// Per-frame overhead in bytes (preamble + header + FCS + inter-frame
    /// gap ≈ 38 B for Ethernet II).
    pub frame_overhead_bytes: u64,
    /// Fixed per-message protocol overhead in bytes (headers, marshalling);
    /// this is what makes over-replication cost network capacity — more
    /// replicas means more messages carrying the same total data.
    pub per_message_overhead_bytes: u64,
    /// One-way propagation + stack traversal latency added after
    /// transmission completes.
    pub propagation: SimDuration,
    /// Latency of a node-local delivery (same src and dst; never touches
    /// the medium).
    pub local_delivery: SimDuration,
    /// Maximum CSMA/CD-style contention backoff, microseconds: when a
    /// queued message wins the medium, it first waits a random backoff in
    /// `[0, max]` (the engine draws it) — 802.3's collision-avoidance
    /// cost under contention. 0 (the default) models the idealized
    /// collision-free segment used in the headline experiments.
    pub max_backoff_us: u64,
    /// Probability that a transmitted message is corrupted and discarded
    /// after burning its wire time (local deliveries are never dropped).
    /// 0.0 (the default) disables loss and draws no randomness.
    pub drop_prob: f64,
    /// Probability that a transmitted message is delivered twice (a
    /// spurious duplicate the receiver must suppress). 0.0 (the default)
    /// disables duplication and draws no randomness.
    pub dup_prob: f64,
    /// Sender-side retransmit timeout for `StageData` messages,
    /// microseconds. 0 (the default) disables retransmission entirely.
    /// When enabled, an unacknowledged message is resent after
    /// `retx_timeout_us << attempt` (deterministic exponential backoff).
    pub retx_timeout_us: u64,
    /// Maximum number of retransmissions before the sender gives up and
    /// the message counts as lost. Only meaningful when `retx_timeout_us`
    /// is non-zero.
    pub retx_max_retries: u32,
    /// Optional transient bandwidth-degradation ("jamming") window.
    /// Transmissions *starting* inside an active window run at
    /// `bandwidth_factor` of the configured link speed.
    pub jam: Option<JamWindow>,
}

/// A transient bandwidth-degradation window: between `start_us` and
/// `start_us + duration_us` (repeating every `repeat_us` if non-zero) the
/// effective link speed is `bandwidth_factor * bandwidth_bps`, modelling
/// interference/jamming or a congested backbone stealing capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct JamWindow {
    /// Window start, microseconds since simulation start.
    pub start_us: u64,
    /// Window length, microseconds. Must be positive.
    pub duration_us: u64,
    /// Fraction of nominal bandwidth available inside the window, in
    /// `(0, 1]`.
    pub bandwidth_factor: f64,
    /// Repetition period, microseconds; 0 means a one-shot window. When
    /// non-zero it must be at least `duration_us`.
    pub repeat_us: u64,
}

impl JamWindow {
    /// True when the window degrades the medium at instant `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        let us = t.as_micros();
        if us < self.start_us {
            return false;
        }
        let off = us - self.start_us;
        if self.repeat_us > 0 {
            off % self.repeat_us < self.duration_us
        } else {
            off < self.duration_us
        }
    }
}

/// Why a [`BusConfig`] was rejected by [`BusConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum BusConfigError {
    /// `bandwidth_bps` must be finite and strictly positive.
    InvalidBandwidth(f64),
    /// `mtu_bytes` must be non-zero.
    InvalidMtu,
    /// A probability field must be finite and within `[0, 1]`.
    InvalidProbability {
        /// Offending field name.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The jam window is malformed.
    InvalidJam(&'static str),
}

impl core::fmt::Display for BusConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BusConfigError::InvalidBandwidth(v) => {
                write!(f, "bandwidth_bps must be positive and finite (got {v})")
            }
            BusConfigError::InvalidMtu => write!(f, "mtu_bytes must be non-zero"),
            BusConfigError::InvalidProbability { field, value } => {
                write!(f, "{field} must be a probability in [0, 1] (got {value})")
            }
            BusConfigError::InvalidJam(why) => write!(f, "invalid jam window: {why}"),
        }
    }
}

impl std::error::Error for BusConfigError {}

impl BusConfig {
    /// The paper's Table 1 segment: 100 Mbps Ethernet.
    pub fn paper_baseline() -> Self {
        BusConfig {
            bandwidth_bps: 100_000_000.0,
            mtu_bytes: 1500,
            frame_overhead_bytes: 38,
            per_message_overhead_bytes: 1024,
            propagation: SimDuration::from_micros(20),
            local_delivery: SimDuration::from_micros(50),
            max_backoff_us: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            retx_timeout_us: 0,
            retx_max_retries: 3,
            jam: None,
        }
    }

    /// Checks the configuration for values that would blow up deep inside
    /// the simulation (`wire_time` divides by `bandwidth_bps`, framing
    /// divides by `mtu_bytes`). Call sites that construct a bus should
    /// surface the error at the config site instead.
    pub fn validate(&self) -> Result<(), BusConfigError> {
        if !self.bandwidth_bps.is_finite() || self.bandwidth_bps <= 0.0 {
            return Err(BusConfigError::InvalidBandwidth(self.bandwidth_bps));
        }
        if self.mtu_bytes == 0 {
            return Err(BusConfigError::InvalidMtu);
        }
        for (field, value) in [("drop_prob", self.drop_prob), ("dup_prob", self.dup_prob)] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(BusConfigError::InvalidProbability { field, value });
            }
        }
        if let Some(jam) = self.jam {
            if jam.duration_us == 0 {
                return Err(BusConfigError::InvalidJam("duration_us must be non-zero"));
            }
            if !jam.bandwidth_factor.is_finite()
                || jam.bandwidth_factor <= 0.0
                || jam.bandwidth_factor > 1.0
            {
                return Err(BusConfigError::InvalidJam("bandwidth_factor must be in (0, 1]"));
            }
            if jam.repeat_us > 0 && jam.repeat_us < jam.duration_us {
                return Err(BusConfigError::InvalidJam("repeat_us must be >= duration_us"));
            }
        }
        Ok(())
    }

    /// Wire time for a message of `size_bytes` application bytes, including
    /// per-message and per-frame overhead.
    pub fn wire_time(&self, size_bytes: u64) -> SimDuration {
        assert!(self.bandwidth_bps > 0.0);
        let total = size_bytes + self.per_message_overhead_bytes;
        let frames = total.div_ceil(self.mtu_bytes).max(1);
        let on_wire_bytes = total + frames * self.frame_overhead_bytes;
        SimDuration::from_secs_f64((on_wire_bytes as f64) * 8.0 / self.bandwidth_bps)
    }

    /// Wire time for a transmission *starting* at `at`: like
    /// [`Self::wire_time`], stretched by the jam window's bandwidth factor
    /// when `at` falls inside an active window. A transmission keeps the
    /// rate it started with even if the window opens or closes mid-frame —
    /// a deliberate simplification.
    pub fn wire_time_at(&self, size_bytes: u64, at: SimTime) -> SimDuration {
        let base = self.wire_time(size_bytes);
        match self.jam {
            Some(jam) if jam.active_at(at) => base.mul_f64(1.0 / jam.bandwidth_factor),
            _ => base,
        }
    }
}

/// The shared Ethernet segment.
pub struct SharedBus {
    config: BusConfig,
    /// Messages waiting for the medium, FIFO.
    queue: VecDeque<Slot>,
    /// Message currently on the wire and when it finishes.
    transmitting: Option<(Slot, SimTime)>,
    /// Every live copy: queued, on the wire, or awaiting delivery.
    messages: Slab<Message>,
    next_id: u32,
    /// Total time the medium has been busy (completed transmissions).
    busy_accum: SimDuration,
    busy_since: Option<SimTime>,
    /// Total application payload bytes accepted.
    pub bytes_offered: u64,
    /// Count of messages accepted (including local ones).
    pub messages_offered: u64,
}

/// What `SharedBus::send` decided to do with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Local delivery: the engine should deliver at the given time without
    /// any bus involvement.
    DeliverLocally {
        /// The message's slot.
        msg: Slot,
        /// Delivery instant.
        at: SimTime,
    },
    /// Transmission started immediately; a `TxComplete` is due at the given
    /// time.
    Transmitting {
        /// The message's slot.
        msg: Slot,
        /// Transmission completion instant.
        tx_done: SimTime,
    },
    /// The medium is busy; the message joined the queue.
    Queued {
        /// The message's slot.
        msg: Slot,
    },
}

/// Traffic torn down by [`SharedBus::abort_from`] when a node crashes.
#[derive(Debug, Default)]
pub struct AbortedTraffic {
    /// Queued messages from the crashed node, removed before transmission.
    pub purged: Vec<Message>,
    /// The message that was on the wire, if the crashed node was sending.
    pub in_flight: Option<Message>,
    /// If the wire was freed and another message was waiting, its slot
    /// and completion time (the engine schedules the next `TxComplete`).
    pub next: Option<(Slot, SimTime)>,
}

impl SharedBus {
    /// Creates an idle bus.
    ///
    /// # Panics
    /// Panics with a clear message if the configuration is invalid (see
    /// [`BusConfig::validate`]); catching bad configs here keeps the error
    /// at the config site instead of deep inside `wire_time`.
    pub fn new(config: BusConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid bus config: {e}");
        }
        SharedBus {
            config,
            queue: VecDeque::new(),
            transmitting: None,
            messages: Slab::default(),
            next_id: 0,
            busy_accum: SimDuration::ZERO,
            busy_since: None,
            bytes_offered: 0,
            messages_offered: 0,
        }
    }

    /// The bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    fn alloc_id(&mut self) -> MsgId {
        let id = MsgId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Accepts a message at time `now`. Its record stays in the bus until
    /// [`Self::take`] removes it.
    pub fn send(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        size_bytes: u64,
        payload: MsgPayload,
    ) -> SendOutcome {
        self.send_inner(now, src, dst, size_bytes, payload, None)
    }

    /// Accepts a *retransmission* of `orig`: identical to [`Self::send`]
    /// of its sender, destination, size and payload (the copy contends for
    /// the medium like any other traffic) but stamped with `orig`'s origin
    /// id so the receiver can suppress duplicates, and with the sender's
    /// retransmit record `retx`.
    pub(crate) fn resend(&mut self, now: SimTime, orig: &Message, retx: Slot) -> SendOutcome {
        let Message { src, dst, size_bytes, payload, origin, .. } = *orig;
        self.send_inner(now, src, dst, size_bytes, payload, Some((origin, retx)))
    }

    fn send_inner(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        size_bytes: u64,
        payload: MsgPayload,
        copy_of: Option<(MsgId, Slot)>,
    ) -> SendOutcome {
        let id = self.alloc_id();
        self.bytes_offered += size_bytes;
        self.messages_offered += 1;
        let mut msg = Message {
            id,
            src,
            dst,
            size_bytes,
            payload,
            enqueued: now,
            tx_start: None,
            origin: copy_of.map_or(id, |(origin, _)| origin),
            retx: copy_of.map(|(_, retx)| retx),
        };
        if src == dst {
            msg.tx_start = Some(now);
            return SendOutcome::DeliverLocally {
                msg: self.messages.insert(msg),
                at: now + self.config.local_delivery,
            };
        }
        if self.transmitting.is_none() {
            let done = now + self.config.wire_time_at(size_bytes, now);
            msg.tx_start = Some(now);
            let slot = self.messages.insert(msg);
            self.transmitting = Some((slot, done));
            self.begin_busy(now);
            SendOutcome::Transmitting { msg: slot, tx_done: done }
        } else {
            let slot = self.messages.insert(msg);
            self.queue.push_back(slot);
            SendOutcome::Queued { msg: slot }
        }
    }

    /// Stores a copy of the message at `slot` under a fresh message id (a
    /// bus duplicate delivered alongside the original) and returns the
    /// copy's slot.
    pub(crate) fn duplicate(&mut self, slot: Slot) -> Slot {
        let copy = Message { id: self.alloc_id(), ..*self.message(slot) };
        self.messages.insert(copy)
    }

    /// The live message at `slot`; panics if it was taken or purged.
    #[inline]
    pub fn message(&self, slot: Slot) -> &Message {
        self.messages.get(slot).expect("live message")
    }

    /// Mutable access to the live message at `slot`.
    #[inline]
    pub(crate) fn message_mut(&mut self, slot: Slot) -> &mut Message {
        self.messages.get_mut(slot).expect("live message")
    }

    /// Removes a delivered or dropped message and frees its slot.
    #[inline]
    pub fn take(&mut self, slot: Slot) -> Message {
        self.messages.remove(slot).expect("live message")
    }

    /// Completes the in-flight transmission at `now`. Returns the finished
    /// message's slot (its record stays until [`Self::take`]) plus, if
    /// another message was waiting, its slot and completion time (the
    /// engine schedules the next `TxComplete`). `backoff` is the
    /// contention backoff the engine drew for the next message (zero when
    /// `max_backoff_us` is 0); the medium counts as busy during it, like a
    /// real 802.3 contention interval.
    ///
    /// Returns `None` for a *stale* completion — the bus is idle, or the
    /// recorded completion time disagrees with `now`. Stale `TxComplete`
    /// events are left behind when a crash aborts the in-flight message
    /// and must be ignored, not paniced on.
    pub fn tx_complete(
        &mut self,
        now: SimTime,
        backoff: SimDuration,
    ) -> Option<(Slot, Option<(Slot, SimTime)>)> {
        match self.transmitting {
            Some((_, done)) if done == now => {}
            // Idle bus or a different in-flight message: a completion for
            // traffic that was aborted. Ignore it.
            _ => return None,
        }
        let (slot, _) = self.transmitting.take().expect("checked above");
        Some((slot, self.start_next(now, backoff)))
    }

    /// Puts the head of the queue on the freed wire after `backoff`, or
    /// ends the busy period when nothing waits.
    fn start_next(&mut self, now: SimTime, backoff: SimDuration) -> Option<(Slot, SimTime)> {
        let Some(next) = self.queue.pop_front() else {
            self.end_busy(now);
            return None;
        };
        let start = now + backoff;
        let msg = self.message_mut(next);
        msg.tx_start = Some(start);
        let size = msg.size_bytes;
        let done = start + self.config.wire_time_at(size, start);
        self.transmitting = Some((next, done));
        Some((next, done))
    }

    /// Tears down all traffic *from* a crashed node at `now`: queued
    /// messages are purged, and if the node was mid-transmission the wire
    /// is freed (that frame never completes). If freeing the wire lets a
    /// queued message start, `backoff` is applied ahead of it exactly as
    /// in [`Self::tx_complete`] and the new completion is reported in
    /// [`AbortedTraffic::next`]. The stale `TxComplete` of the aborted
    /// message stays in the engine's event queue and is later ignored.
    ///
    /// Messages *to* the crashed node are left alone — the sender has no
    /// way to know the destination died; they transmit and are accounted
    /// lost on delivery.
    pub fn abort_from(&mut self, now: SimTime, node: NodeId, backoff: SimDuration) -> AbortedTraffic {
        let mut out = AbortedTraffic::default();
        let messages = &mut self.messages;
        self.queue.retain(|&slot| {
            let keep = messages.get(slot).expect("live message").src != node;
            if !keep {
                out.purged.push(messages.remove(slot).expect("live message"));
            }
            keep
        });
        if self.transmitting_src() == Some(node) {
            let (slot, _) = self.transmitting.take().expect("checked above");
            out.in_flight = Some(self.take(slot));
            out.next = self.start_next(now, backoff);
        }
        out
    }

    /// Propagation delay to add after transmission.
    pub fn propagation(&self) -> SimDuration {
        self.config.propagation
    }

    /// Number of messages waiting (not counting the one on the wire).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True if a message is currently on the wire.
    #[cfg(test)]
    pub(crate) fn is_transmitting(&self) -> bool {
        self.transmitting.is_some()
    }

    /// The message slab, for tests that audit it.
    #[cfg(test)]
    pub(crate) fn slab(&self) -> &Slab<Message> {
        &self.messages
    }

    /// Slots of the queued messages and of the one on the wire.
    #[cfg(test)]
    pub(crate) fn slots_on_bus(&self) -> impl Iterator<Item = Slot> + '_ {
        self.queue.iter().copied().chain(self.transmitting.map(|(slot, _)| slot))
    }

    /// Source node of the message currently on the wire, if any.
    pub fn transmitting_src(&self) -> Option<NodeId> {
        self.transmitting.map(|(slot, _)| self.message(slot).src)
    }

    fn begin_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    fn end_busy(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.busy_accum += now.since(since);
        }
    }

    /// Total medium-busy time up to `now`.
    pub fn busy_total(&self, now: SimTime) -> SimDuration {
        match self.busy_since {
            Some(since) => self.busy_accum + now.since(since),
            None => self.busy_accum,
        }
    }

    /// Lifetime-average medium utilization in `[0, 1]`.
    pub fn lifetime_utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        self.busy_total(now).as_secs_f64() / now.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SubtaskIdx, TaskId};

    fn payload() -> MsgPayload {
        MsgPayload::StageData {
            stage: StageId::new(TaskId(0), SubtaskIdx(1)),
            replica: 0,
            instance: 0,
            tracks: 100,
        }
    }

    fn bus() -> SharedBus {
        SharedBus::new(BusConfig::paper_baseline())
    }

    #[test]
    fn bus_config_roundtrips_with_failure_fields() {
        use serde::{Deserialize, Serialize};
        let mut cfg = BusConfig::paper_baseline();
        cfg.drop_prob = 0.25;
        cfg.dup_prob = 0.01;
        cfg.retx_timeout_us = 15_000;
        cfg.retx_max_retries = 7;
        cfg.jam = Some(JamWindow {
            start_us: 1_000,
            duration_us: 500,
            bandwidth_factor: 0.5,
            repeat_us: 2_000,
        });
        let back = BusConfig::from_value(&cfg.to_value()).expect("roundtrip");
        assert_eq!(back.drop_prob, cfg.drop_prob);
        assert_eq!(back.dup_prob, cfg.dup_prob);
        assert_eq!(back.retx_timeout_us, cfg.retx_timeout_us);
        assert_eq!(back.retx_max_retries, cfg.retx_max_retries);
        assert_eq!(back.jam, cfg.jam);
    }

    #[test]
    fn wire_time_matches_bandwidth() {
        let cfg = BusConfig::paper_baseline();
        // 1 MB + 1 KB overhead = 1_049_600 B -> 700 frames -> +26600 B framing.
        let t = cfg.wire_time(1_048_576);
        let expect_bytes = 1_048_576 + 1024 + 700 * 38;
        let expect = (expect_bytes as f64) * 8.0 / 100e6;
        assert!((t.as_secs_f64() - expect).abs() < 1e-6, "{t}");
    }

    #[test]
    fn wire_time_is_monotone_in_size() {
        let cfg = BusConfig::paper_baseline();
        let mut prev = SimDuration::ZERO;
        for sz in [0u64, 80, 1500, 10_000, 1_000_000] {
            let t = cfg.wire_time(sz);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn tiny_message_still_costs_one_frame() {
        let cfg = BusConfig::paper_baseline();
        assert!(cfg.wire_time(0) > SimDuration::ZERO);
    }

    #[test]
    fn idle_bus_transmits_immediately() {
        let mut b = bus();
        let out = b.send(SimTime::ZERO, NodeId(0), NodeId(1), 8000, payload());
        match out {
            SendOutcome::Transmitting { tx_done, .. } => {
                assert!(tx_done > SimTime::ZERO);
            }
            other => panic!("expected Transmitting, got {other:?}"),
        }
        assert!(b.is_transmitting());
    }

    #[test]
    fn second_message_queues_behind_first() {
        let mut b = bus();
        let first = b.send(SimTime::ZERO, NodeId(0), NodeId(1), 8000, payload());
        let SendOutcome::Transmitting { tx_done, .. } = first else {
            panic!()
        };
        let second = b.send(SimTime::ZERO, NodeId(2), NodeId(3), 8000, payload());
        assert!(matches!(second, SendOutcome::Queued { .. }));
        assert_eq!(b.queue_len(), 1);

        let (done_msg, next) = b.tx_complete(tx_done, SimDuration::ZERO).expect("live completion");
        assert_eq!(b.message(done_msg).src, NodeId(0));
        let (next_slot, next_done) = next.expect("queued message starts");
        assert!(next_done > tx_done);
        // Buffer delay of the second message equals the first's wire time.
        let m = b.message(next_slot);
        assert_eq!(m.buffer_delay().unwrap(), tx_done.since(SimTime::ZERO));
    }

    #[test]
    fn local_messages_bypass_the_medium() {
        let mut b = bus();
        let out = b.send(SimTime::from_millis(5), NodeId(2), NodeId(2), 999_999, payload());
        match out {
            SendOutcome::DeliverLocally { msg, at } => {
                assert_eq!(
                    at,
                    SimTime::from_millis(5) + BusConfig::paper_baseline().local_delivery
                );
                let m = b.take(msg);
                assert_eq!(m.buffer_delay(), Some(SimDuration::ZERO));
            }
            other => panic!("expected local delivery, got {other:?}"),
        }
        assert!(!b.is_transmitting());
        assert_eq!(b.busy_total(SimTime::from_secs(1)), SimDuration::ZERO);
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut b = bus();
        let SendOutcome::Transmitting { tx_done, .. } =
            b.send(SimTime::ZERO, NodeId(0), NodeId(1), 125_000, payload())
        else {
            panic!()
        };
        b.tx_complete(tx_done, SimDuration::ZERO).expect("live completion");
        // ~10ms busy (1 Mbit at 100 Mbps plus overhead).
        let u = b.lifetime_utilization(SimTime::from_millis(100));
        assert!(u > 0.09 && u < 0.12, "utilization {u}");
    }

    #[test]
    fn fifo_order_preserved_under_load() {
        let mut b = bus();
        let SendOutcome::Transmitting { tx_done, .. } =
            b.send(SimTime::ZERO, NodeId(0), NodeId(1), 1000, payload())
        else {
            panic!()
        };
        for i in 0..5 {
            let out = b.send(SimTime::ZERO, NodeId(i), NodeId(5), 1000, payload());
            assert!(matches!(out, SendOutcome::Queued { .. }));
        }
        let mut srcs = Vec::new();
        let mut t = tx_done;
        let (first, mut next) = b.tx_complete(t, SimDuration::ZERO).expect("live completion");
        srcs.push(b.message(first).src.0);
        while let Some((_, done)) = next {
            t = done;
            let (m, n) = b.tx_complete(t, SimDuration::ZERO).expect("live completion");
            srcs.push(b.message(m).src.0);
            next = n;
        }
        assert_eq!(srcs, vec![0, 0, 1, 2, 3, 4]);
        assert!(!b.is_transmitting());
    }

    #[test]
    fn tx_complete_on_idle_bus_is_ignored() {
        // A completion with nothing on the wire is a stale event left by a
        // crash abort — it must be a no-op, not a panic.
        assert!(bus().tx_complete(SimTime::ZERO, SimDuration::ZERO).is_none());
    }

    #[test]
    fn stale_tx_complete_after_abort_is_ignored() {
        let mut b = bus();
        let SendOutcome::Transmitting { tx_done, .. } =
            b.send(SimTime::ZERO, NodeId(0), NodeId(1), 8000, payload())
        else {
            panic!()
        };
        // Node 0 crashes mid-flight; its frame never completes.
        let aborted = b.abort_from(SimTime::from_micros(10), NodeId(0), SimDuration::ZERO);
        assert!(aborted.in_flight.is_some());
        assert!(!b.is_transmitting());
        // The TxComplete the engine scheduled for the aborted frame fires
        // anyway and must be ignored.
        assert!(b.tx_complete(tx_done, SimDuration::ZERO).is_none());
    }

    #[test]
    fn abort_purges_queued_messages_and_starts_next() {
        let mut b = bus();
        let SendOutcome::Transmitting { .. } =
            b.send(SimTime::ZERO, NodeId(0), NodeId(1), 8000, payload())
        else {
            panic!()
        };
        b.send(SimTime::ZERO, NodeId(0), NodeId(2), 1000, payload()); // queued, same src
        b.send(SimTime::ZERO, NodeId(3), NodeId(4), 1000, payload()); // queued, other src
        let t = SimTime::from_micros(100);
        let aborted = b.abort_from(t, NodeId(0), SimDuration::ZERO);
        assert_eq!(aborted.purged.len(), 1, "node 0's queued message purged");
        assert_eq!(aborted.purged[0].dst, NodeId(2));
        assert!(aborted.in_flight.is_some(), "in-flight frame torn down");
        // The survivor (node 3's message) takes the wire immediately.
        let (next_slot, next_done) = aborted.next.expect("survivor starts");
        assert_eq!(next_done, t + BusConfig::paper_baseline().wire_time(1000));
        assert!(b.is_transmitting());
        assert_eq!(b.transmitting_src(), Some(NodeId(3)));
        let (m, next) = b.tx_complete(next_done, SimDuration::ZERO).expect("live completion");
        assert_eq!(m, next_slot);
        assert!(next.is_none());
    }

    #[test]
    fn abort_from_uninvolved_node_changes_nothing() {
        let mut b = bus();
        let SendOutcome::Transmitting { tx_done, .. } =
            b.send(SimTime::ZERO, NodeId(0), NodeId(1), 8000, payload())
        else {
            panic!()
        };
        let aborted = b.abort_from(SimTime::from_micros(1), NodeId(5), SimDuration::ZERO);
        assert!(aborted.purged.is_empty() && aborted.in_flight.is_none() && aborted.next.is_none());
        assert!(b.tx_complete(tx_done, SimDuration::ZERO).is_some());
    }

    #[test]
    fn validate_rejects_bad_bandwidth() {
        let mut cfg = BusConfig::paper_baseline();
        cfg.bandwidth_bps = 0.0;
        assert_eq!(cfg.validate(), Err(BusConfigError::InvalidBandwidth(0.0)));
        cfg.bandwidth_bps = -5.0;
        assert!(cfg.validate().is_err());
        cfg.bandwidth_bps = f64::NAN;
        assert!(cfg.validate().is_err());
        cfg.bandwidth_bps = f64::INFINITY;
        assert!(cfg.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "bandwidth_bps must be positive and finite")]
    fn bus_construction_rejects_bad_bandwidth_with_clear_error() {
        let mut cfg = BusConfig::paper_baseline();
        cfg.bandwidth_bps = 0.0;
        let _ = SharedBus::new(cfg);
    }

    #[test]
    fn validate_rejects_bad_probabilities_and_jam() {
        let mut cfg = BusConfig::paper_baseline();
        cfg.drop_prob = 1.5;
        assert!(matches!(
            cfg.validate(),
            Err(BusConfigError::InvalidProbability { field: "drop_prob", .. })
        ));
        cfg.drop_prob = 0.0;
        cfg.dup_prob = f64::NAN;
        assert!(cfg.validate().is_err());
        cfg.dup_prob = 0.0;
        cfg.mtu_bytes = 0;
        assert_eq!(cfg.validate(), Err(BusConfigError::InvalidMtu));
        cfg.mtu_bytes = 1500;
        cfg.jam = Some(JamWindow {
            start_us: 0,
            duration_us: 0,
            bandwidth_factor: 0.5,
            repeat_us: 0,
        });
        assert!(cfg.validate().is_err());
        cfg.jam = Some(JamWindow {
            start_us: 0,
            duration_us: 100,
            bandwidth_factor: 2.0,
            repeat_us: 0,
        });
        assert!(cfg.validate().is_err());
        cfg.jam = Some(JamWindow {
            start_us: 0,
            duration_us: 100,
            bandwidth_factor: 0.5,
            repeat_us: 50,
        });
        assert!(cfg.validate().is_err());
        cfg.jam = Some(JamWindow {
            start_us: 0,
            duration_us: 100,
            bandwidth_factor: 0.5,
            repeat_us: 1000,
        });
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn jam_window_stretches_wire_time_inside_the_window() {
        let mut cfg = BusConfig::paper_baseline();
        cfg.jam = Some(JamWindow {
            start_us: 1000,
            duration_us: 500,
            bandwidth_factor: 0.25,
            repeat_us: 2000,
        });
        let base = cfg.wire_time(8000);
        // Before the window, and in the gap of the repeat cycle: nominal.
        assert_eq!(cfg.wire_time_at(8000, SimTime::from_micros(0)), base);
        assert_eq!(cfg.wire_time_at(8000, SimTime::from_micros(1700)), base);
        // Inside the first and second windows: 4x slower.
        assert_eq!(cfg.wire_time_at(8000, SimTime::from_micros(1200)), base.mul_f64(4.0));
        assert_eq!(cfg.wire_time_at(8000, SimTime::from_micros(3100)), base.mul_f64(4.0));
    }

    #[test]
    fn resend_carries_the_original_id() {
        let mut b = bus();
        let SendOutcome::Transmitting { msg: first, tx_done } =
            b.send(SimTime::ZERO, NodeId(0), NodeId(1), 1000, payload())
        else {
            panic!()
        };
        let orig = b.message(first).id;
        let (m, _) = b.tx_complete(tx_done, SimDuration::ZERO).expect("live completion");
        assert_eq!(b.message(m).origin, orig, "first transmission is its own origin");
        let retx = Slab::default().insert(());
        let sent = *b.message(first);
        let SendOutcome::Transmitting { msg: copy, tx_done } = b.resend(tx_done, &sent, retx)
        else {
            panic!()
        };
        assert_ne!(b.message(copy).id, orig, "retransmission gets a fresh message id");
        let (m, _) = b.tx_complete(tx_done, SimDuration::ZERO).expect("live completion");
        assert_eq!(b.message(m).origin, orig, "but keeps the original as its origin");
        assert_eq!(b.message(m).retx, Some(retx), "and the sender's retransmit record");
    }

    #[test]
    fn contention_backoff_delays_next_transmission() {
        let mut b = bus();
        let SendOutcome::Transmitting { tx_done, .. } =
            b.send(SimTime::ZERO, NodeId(0), NodeId(1), 1000, payload())
        else {
            panic!()
        };
        b.send(SimTime::ZERO, NodeId(2), NodeId(3), 1000, payload());
        let backoff = SimDuration::from_micros(40);
        let (_, next) = b.tx_complete(tx_done, backoff).expect("live completion");
        let (_, next_done) = next.expect("queued message starts");
        let cfg = BusConfig::paper_baseline();
        assert_eq!(next_done, tx_done + backoff + cfg.wire_time(1000));
    }

    #[test]
    fn offered_counters_accumulate() {
        let mut b = bus();
        b.send(SimTime::ZERO, NodeId(0), NodeId(1), 100, payload());
        b.send(SimTime::ZERO, NodeId(1), NodeId(1), 200, payload());
        assert_eq!(b.bytes_offered, 300);
        assert_eq!(b.messages_offered, 2);
    }
}
