//! Shared helpers for the seeded chaos harnesses.
//!
//! Every chaos test draws all of its randomness — kill timing, victim
//! choice, service times, workload sizes — from one explicit seed printed
//! at the start of the run, so a failure reproduces by re-running with
//! `KAR_CHAOS_SEED=<printed seed>`. This module holds the one copy of the
//! generator and the seed-override parsing, shared by
//! `tests/partition_rebalance.rs`, `tests/store_plane.rs` and
//! `tests/delivery_plane.rs` (each integration-test crate includes it via
//! `mod common;`, so unused items per crate are expected).
#![allow(dead_code)]

/// SplitMix64: the harnesses' explicit, printable source of randomness.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[low, high)`.
    pub fn below(&mut self, low: u64, high: u64) -> u64 {
        low + self.next_u64() % (high - low)
    }
}

/// The seed to run: `default` unless `KAR_CHAOS_SEED` pins one (decimal or
/// `0x`-prefixed hex).
pub fn chaos_seed(default: u64) -> u64 {
    std::env::var("KAR_CHAOS_SEED")
        .ok()
        .and_then(|raw| {
            let raw = raw.trim();
            raw.strip_prefix("0x")
                .map_or_else(|| raw.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
        })
        .unwrap_or(default)
}

/// A snapshot of component `id`, taken now.
pub fn component(mesh: &kar::Mesh, id: kar_types::ComponentId) -> kar::ComponentSnapshot {
    mesh.snapshot()
        .component(id)
        .cloned()
        .expect("the mesh added this component")
}
