//! Pinned digests and exact counters (`pinned.json`), compiled in.
//!
//! Per workload: the canary digest (outputs at the workload's fixed
//! inputs, checked on every run), and for its default and held-out seeds
//! the sample digest plus the deterministic per-layer counters of one
//! traced sample. Regenerate with `--pin` (see README.md); doing so is a
//! reviewed change of the benchmark, never part of a change that claims a
//! gain.

use rtds_experiments::serde_json::{self, Value};

const PINNED: &str = include_str!("../pinned.json");

pub struct Pin {
    pub canary: Option<u64>,
    seeds: Vec<SeedPin>,
}

struct SeedPin {
    seed: u64,
    digest: u64,
    counters: Vec<(String, u64)>,
}

impl Pin {
    fn find(&self, seed: u64) -> Option<&SeedPin> {
        self.seeds.iter().find(|s| s.seed == seed)
    }

    pub fn seed_digest(&self, seed: u64) -> Option<u64> {
        self.find(seed).map(|s| s.digest)
    }

    pub fn seed_counters(&self, seed: u64) -> Option<&[(String, u64)]> {
        self.find(seed).map(|s| s.counters.as_slice())
    }
}

fn hex(v: &Value) -> Option<u64> {
    u64::from_str_radix(v.as_str()?, 16).ok()
}

/// The pins of `workload`, if `pinned.json` has any.
///
/// # Panics
/// Panics if `pinned.json` is not valid JSON (a build-time artifact of
/// this benchmark, not user input).
pub fn load(workload: &str) -> Option<Pin> {
    let all: Value = serde_json::from_str(PINNED).expect("pinned.json parses");
    let w = all.as_object()?.get(workload)?;
    let seeds = w
        .as_object()?
        .get("seeds")
        .and_then(Value::as_object)
        .map(|m| {
            m.iter()
                .filter_map(|(seed, p)| {
                    let counters = p
                        .as_object()?
                        .get("counters")?
                        .as_object()?
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                        .collect();
                    Some(SeedPin {
                        seed: seed.parse().ok()?,
                        digest: hex(p.as_object()?.get("digest")?)?,
                        counters,
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    Some(Pin {
        canary: w.as_object()?.get("canary").and_then(hex),
        seeds,
    })
}
