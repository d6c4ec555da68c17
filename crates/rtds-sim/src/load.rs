//! Background load generators.
//!
//! The paper's Eq. (3) regression takes the CPU utilization `u` of the
//! hosting processor as an input; during profiling the authors measured
//! subtask latencies "for a set of external and internal load situations".
//! These generators create those internal load situations: they feed a node
//! synthetic jobs that hold its utilization near a target, so that (a)
//! profiling can sweep `u` and (b) evaluation runs have non-trivial ambient
//! load for the allocator to react to.

use crate::ids::{LoadGenId, NodeId};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A background-load arrival produced by a generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadArrival {
    /// CPU demand of the arriving job.
    pub demand: SimDuration,
    /// When the generator next wants to be polled.
    pub next_at: SimTime,
}

/// A source of background CPU jobs on one node.
pub trait LoadGenerator: Send {
    /// The node this generator loads.
    fn node(&self) -> NodeId;

    /// First poll time after simulation start.
    fn first_at(&self, rng: &mut SimRng) -> SimTime;

    /// Produces the job arriving at `now` and schedules the next poll.
    ///
    /// Contract: the returned `next_at` must be strictly greater than
    /// `now` — a degenerate (zero) interval would re-poll the generator
    /// at the same instant forever and spin the event loop. The engine
    /// asserts this on every poll.
    fn arrive(&mut self, now: SimTime, rng: &mut SimRng) -> LoadArrival;

    /// Long-run utilization this generator tries to impose, in `[0, 1]`.
    fn target_utilization(&self) -> f64;

    /// Checks the generator's configuration before it is attached, in the
    /// spirit of [`crate::net::BusConfig::validate`]: constructors catch
    /// bad literals, but configs built from arithmetic or deserialized
    /// values can smuggle in NaN/degenerate parameters that would stall
    /// or spin the simulation. The default validates the target
    /// utilization; implementations with interval parameters extend it.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation.
    fn validate(&self) -> Result<(), String> {
        let u = self.target_utilization();
        if !u.is_finite() || !(0.0..1.0).contains(&u) {
            return Err(format!(
                "target utilization must be finite and in [0, 1), got {u}"
            ));
        }
        Ok(())
    }
}

/// Deterministic duty-cycle load: every `interval`, a job of demand
/// `utilization × interval` arrives. With a round-robin scheduler this
/// produces smooth, predictable contention — the configuration used when
/// profiling at a controlled utilization.
pub struct PeriodicLoad {
    id: LoadGenId,
    node: NodeId,
    interval: SimDuration,
    utilization: f64,
    /// Randomize the first arrival within one interval so that generators
    /// on different nodes do not phase-lock.
    random_phase: bool,
}

impl PeriodicLoad {
    /// Creates a duty-cycle generator.
    ///
    /// # Panics
    /// Panics unless `0 ≤ utilization < 1` and `interval > 0`.
    pub fn new(id: LoadGenId, node: NodeId, interval: SimDuration, utilization: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&utilization),
            "background utilization must be in [0, 1), got {utilization}"
        );
        assert!(!interval.is_zero(), "interval must be positive");
        PeriodicLoad {
            id,
            node,
            interval,
            utilization,
            random_phase: true,
        }
    }

    /// Disables the random initial phase (useful in unit tests).
    pub fn with_fixed_phase(mut self) -> Self {
        self.random_phase = false;
        self
    }

    /// This generator's id.
    pub fn id(&self) -> LoadGenId {
        self.id
    }
}

impl LoadGenerator for PeriodicLoad {
    fn node(&self) -> NodeId {
        self.node
    }

    fn first_at(&self, rng: &mut SimRng) -> SimTime {
        if self.random_phase {
            SimTime::ZERO + self.interval.mul_f64(rng.uniform())
        } else {
            SimTime::ZERO
        }
    }

    fn arrive(&mut self, now: SimTime, _rng: &mut SimRng) -> LoadArrival {
        LoadArrival {
            demand: self.interval.mul_f64(self.utilization),
            next_at: now + self.interval,
        }
    }

    fn target_utilization(&self) -> f64 {
        self.utilization
    }

    fn validate(&self) -> Result<(), String> {
        if !self.utilization.is_finite() || !(0.0..1.0).contains(&self.utilization) {
            return Err(format!(
                "periodic load utilization must be finite and in [0, 1), got {}",
                self.utilization
            ));
        }
        if self.interval.is_zero() {
            return Err("periodic load interval must be positive".into());
        }
        Ok(())
    }
}

/// Poisson load: exponential inter-arrivals with exponential demands. This
/// is the "asynchronous" ambient load for evaluation runs — event arrivals
/// with nondeterministic distributions (paper §1).
pub struct PoissonLoad {
    id: LoadGenId,
    node: NodeId,
    /// Mean inter-arrival gap; an arrival draw takes it in µs.
    mean_interarrival: SimDuration,
    /// Mean job demand.
    mean_demand: SimDuration,
}

impl PoissonLoad {
    /// Creates a Poisson generator with the given means. The imposed
    /// utilization is `mean_demand / mean_interarrival`, which must be < 1.
    pub fn new(
        id: LoadGenId,
        node: NodeId,
        mean_interarrival: SimDuration,
        mean_demand: SimDuration,
    ) -> Self {
        assert!(!mean_interarrival.is_zero(), "mean inter-arrival must be positive");
        let g = PoissonLoad {
            id,
            node,
            mean_interarrival,
            mean_demand,
        };
        let rho = g.target_utilization();
        assert!(rho < 1.0, "Poisson load would saturate the CPU (rho = {rho:.3})");
        g
    }

    /// Convenience: a Poisson generator targeting `utilization` with the
    /// given mean job demand.
    pub fn with_utilization(
        id: LoadGenId,
        node: NodeId,
        utilization: f64,
        mean_demand: SimDuration,
    ) -> Self {
        assert!((0.0..1.0).contains(&utilization) && utilization > 0.0);
        let mean_ia = mean_demand.mul_f64(1.0 / utilization);
        Self::new(id, node, mean_ia, mean_demand)
    }

    /// This generator's id.
    pub fn id(&self) -> LoadGenId {
        self.id
    }
}

impl LoadGenerator for PoissonLoad {
    fn node(&self) -> NodeId {
        self.node
    }

    fn first_at(&self, rng: &mut SimRng) -> SimTime {
        let mean_s = self.mean_interarrival.as_secs_f64();
        SimTime::ZERO + SimDuration::from_secs_f64(rng.exponential(mean_s))
    }

    fn arrive(&mut self, now: SimTime, rng: &mut SimRng) -> LoadArrival {
        let demand = rng.exp_us(self.mean_demand.as_micros());
        let gap = rng.exp_us(self.mean_interarrival.as_micros());
        LoadArrival {
            demand: SimDuration::from_micros(demand),
            next_at: now + SimDuration::from_micros(gap),
        }
    }

    fn target_utilization(&self) -> f64 {
        self.mean_demand.as_secs_f64() / self.mean_interarrival.as_secs_f64()
    }

    fn validate(&self) -> Result<(), String> {
        if self.mean_interarrival.is_zero() {
            return Err("Poisson mean inter-arrival must be positive".into());
        }
        if self.mean_demand.is_zero() {
            return Err("Poisson mean demand must be positive".into());
        }
        let rho = self.target_utilization();
        if !rho.is_finite() || rho >= 1.0 {
            return Err(format!(
                "Poisson load would saturate the CPU (rho = {rho:.3})"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::from_seed_stream(7, 0)
    }

    #[test]
    fn periodic_load_demand_matches_target() {
        let mut g = PeriodicLoad::new(
            LoadGenId(0),
            NodeId(1),
            SimDuration::from_millis(10),
            0.35,
        )
        .with_fixed_phase();
        let mut r = rng();
        assert_eq!(g.first_at(&mut r), SimTime::ZERO);
        let a = g.arrive(SimTime::ZERO, &mut r);
        assert_eq!(a.demand, SimDuration::from_millis_f64(3.5));
        assert_eq!(a.next_at, SimTime::from_millis(10));
        assert!((g.target_utilization() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn periodic_load_random_phase_is_within_one_interval() {
        let g = PeriodicLoad::new(LoadGenId(0), NodeId(0), SimDuration::from_millis(10), 0.5);
        let mut r = rng();
        for _ in 0..100 {
            let t = g.first_at(&mut r);
            assert!(t <= SimTime::from_millis(10));
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn periodic_load_rejects_full_utilization() {
        let _ = PeriodicLoad::new(LoadGenId(0), NodeId(0), SimDuration::from_millis(10), 1.0);
    }

    #[test]
    fn poisson_load_long_run_utilization() {
        let mut g = PoissonLoad::with_utilization(
            LoadGenId(0),
            NodeId(0),
            0.4,
            SimDuration::from_millis(2),
        );
        let mut r = rng();
        let mut t = g.first_at(&mut r);
        let mut busy = SimDuration::ZERO;
        let horizon = SimTime::from_secs(200);
        while t < horizon {
            let a = g.arrive(t, &mut r);
            busy += a.demand;
            t = a.next_at;
        }
        let rho = busy.as_secs_f64() / horizon.as_secs_f64();
        assert!((rho - 0.4).abs() < 0.03, "long-run utilization {rho}");
    }

    #[test]
    #[should_panic(expected = "saturate")]
    fn poisson_load_rejects_saturation() {
        let _ = PoissonLoad::new(
            LoadGenId(0),
            NodeId(0),
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
        );
    }

    #[test]
    fn validate_accepts_constructor_built_generators() {
        let p = PeriodicLoad::new(LoadGenId(0), NodeId(0), SimDuration::from_millis(10), 0.5);
        assert!(p.validate().is_ok());
        let q = PoissonLoad::with_utilization(
            LoadGenId(1),
            NodeId(1),
            0.4,
            SimDuration::from_millis(2),
        );
        assert!(q.validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        // Field-level corruption the constructors cannot see (e.g. a
        // deserialized or arithmetically-derived config).
        let mut p = PeriodicLoad::new(LoadGenId(0), NodeId(0), SimDuration::from_millis(10), 0.5);
        p.utilization = f64::NAN;
        assert!(p.validate().unwrap_err().contains("finite"));
        p.utilization = 0.5;
        p.interval = SimDuration::ZERO;
        assert!(p.validate().unwrap_err().contains("interval"));

        let mut q = PoissonLoad::new(
            LoadGenId(0),
            NodeId(0),
            SimDuration::from_millis(5),
            SimDuration::from_millis(2),
        );
        q.mean_interarrival = SimDuration::ZERO;
        assert!(q.validate().unwrap_err().contains("inter-arrival"));
        q.mean_interarrival = SimDuration::from_millis(5);
        q.mean_demand = SimDuration::from_millis(5);
        assert!(q.validate().unwrap_err().contains("saturate"));
        q.mean_demand = SimDuration::ZERO;
        assert!(q.validate().unwrap_err().contains("demand"));
    }

    /// 10^6 arrivals per generator, hashed with `first_at` as
    /// little-endian µs (64-bit FNV-1a): fig9's ambient load (2 ms demands
    /// at 10 %), a 1 µs mean demand, where the 1 µs clamp and every
    /// rounding step bite, and multi-second means, where the draws run
    /// into the millions of µs. Pins the arrival stream itself, below the
    /// goldens.
    #[test]
    fn poisson_arrival_streams_match_their_digests() {
        fn digest(mut g: PoissonLoad, seed: u64) -> u64 {
            let mut r = SimRng::from_seed_stream(seed, 3);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut eat = |x: u64| {
                for b in x.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            let mut t = g.first_at(&mut r);
            eat(t.as_micros());
            for _ in 0..1_000_000 {
                let a = g.arrive(t, &mut r);
                eat(a.demand.as_micros());
                eat(a.next_at.as_micros());
                t = a.next_at;
            }
            assert_eq!(r.draws(), 2_000_001, "one draw per exponential");
            h
        }
        let (ms, us) = (SimDuration::from_millis, SimDuration::from_micros);
        let p = |ia, d| PoissonLoad::new(LoadGenId(0), NodeId(0), ia, d);
        let fig9 = PoissonLoad::with_utilization(LoadGenId(0), NodeId(0), 0.10, ms(2));
        let cases = [
            ("fig9", fig9, 0x0328_7a78_de76_eb86),
            ("1 us", p(us(3), us(1)), 0xfad1_3f2c_e3fb_3502),
            ("7 s", p(ms(7_000), ms(2_500)), 0x6786_135e_9cff_8153),
            ("90 s", p(ms(90_000), ms(40_000)), 0x887f_8d53_b442_0cdf),
        ];
        for (name, g, want) in cases {
            assert_eq!(digest(g, 42), want, "{name}: arrival stream changed");
        }
    }

    #[test]
    fn poisson_demands_are_never_zero() {
        let mut g = PoissonLoad::with_utilization(
            LoadGenId(0),
            NodeId(0),
            0.2,
            SimDuration::from_millis(1),
        );
        let mut r = rng();
        let mut t = SimTime::ZERO;
        for _ in 0..1000 {
            let a = g.arrive(t, &mut r);
            assert!(!a.demand.is_zero());
            assert!(a.next_at > t);
            t = a.next_at;
        }
    }
}
