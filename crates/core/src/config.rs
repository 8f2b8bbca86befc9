//! Engine configuration — every knob is one of the paper's design
//! decisions, so ablations flip exactly one field.

/// Which intersection micro-kernel the search kernel uses (§4.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntersectStrategy {
    /// Plan-time `KernelPolicy` choice between `c`, `p`, and `bitmap`
    /// per level, from data-graph degree statistics ("we adaptively
    /// choose the intersection method"); falls back to per-path choice
    /// on levels where the degree spread is too wide to fix one arm.
    Auto,
    /// Always c-intersection (stream each list against a shared buffer).
    CIntersection,
    /// Always p-intersection (probe each buffered candidate against the
    /// remaining constraints' adjacency).
    PIntersection,
    /// Always bitmap-intersection (encode the shortest list as a span
    /// bitmap in shared memory and stream the others against it).
    Bitmap,
}

/// Virtual warp sizing (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtualWarpPolicy {
    /// Single-bin strategy the paper ships: size from the data graph's
    /// average degree, rounded to a power of two in `1..=32`.
    AvgDegree,
    /// Fixed width (32 reproduces the GPSM/GSI thread-idling behaviour).
    Fixed(usize),
}

impl VirtualWarpPolicy {
    /// Resolves the virtual warp width for a graph with the given average
    /// degree.
    pub fn width(self, avg_degree: f64) -> usize {
        match self {
            VirtualWarpPolicy::Fixed(w) => {
                assert!(w.is_power_of_two() && w <= 32, "vwarp must be pow2 ≤ 32");
                w
            }
            VirtualWarpPolicy::AvgDegree => {
                let mut w = 1usize;
                while (w as f64) < avg_degree && w < 32 {
                    w *= 2;
                }
                w
            }
        }
    }
}

use crate::error::ConfigError;
use crate::order::OrderPolicy;

/// Tunables of an [`crate::ExecSession`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Query-ordering heuristic (ablation: [`OrderPolicy::IdBfs`]).
    pub order_policy: OrderPolicy,
    /// Hybrid BFS-DFS chunk size; the paper found 512 best empirically.
    pub chunk_size: usize,
    /// Fraction of free device words handed to the trie's two arrays.
    pub trie_fraction: f64,
    /// Intersection micro-kernel selection.
    pub intersect: IntersectStrategy,
    /// Prefilter level-0 candidates with the GSI-style neighbourhood
    /// signature index before the Definition 5 degree test.
    pub signature_prefilter: bool,
    /// Shuffle partial-path placement to break id-order load imbalance
    /// ("we randomized the partial path placement", §4.1.2).
    pub randomize_placement: bool,
    /// Virtual warp sizing.
    pub virtual_warp: VirtualWarpPolicy,
    /// Maximum thread blocks per kernel launch.
    pub max_blocks: usize,
    /// Seed for placement randomisation (determinism in tests).
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            order_policy: OrderPolicy::default(),
            chunk_size: 512,
            trie_fraction: 0.9,
            intersect: IntersectStrategy::Auto,
            signature_prefilter: true,
            randomize_placement: true,
            virtual_warp: VirtualWarpPolicy::AvgDegree,
            max_blocks: 256,
            seed: 0xCBF5,
        }
    }
}

impl EngineConfig {
    /// Checks every range once, against a concrete device of
    /// `device_words` global words: the chunk size and block cap are at
    /// least 1, the trie fraction lies in `(0, 1]`, a fixed virtual warp
    /// is a power of two ≤ 32, and the trie's fraction of the device holds
    /// at least one PA/CA entry pair (mirrors `QueryPlan::build`'s OOM).
    /// Illegal values surface as a typed [`ConfigError`] instead of a
    /// panic deep inside a launch.
    pub fn validate(&self, device_words: usize) -> Result<(), ConfigError> {
        let invalid = |field, reason| Err(ConfigError::Invalid { field, reason });
        if self.chunk_size == 0 {
            return invalid("chunk_size", "must be at least 1");
        }
        if !(self.trie_fraction > 0.0 && self.trie_fraction <= 1.0) {
            return invalid("trie_fraction", "must be in (0, 1]");
        }
        if self.max_blocks == 0 {
            return invalid("max_blocks", "must be at least 1");
        }
        if let VirtualWarpPolicy::Fixed(w) = self.virtual_warp {
            if !w.is_power_of_two() || w > 32 {
                return invalid("virtual_warp", "fixed width must be a power of two ≤ 32");
            }
        }
        if (device_words as f64 * self.trie_fraction) as usize / 2 == 0 {
            return Err(ConfigError::Budget {
                required_words: 2,
                device_words,
            });
        }
        Ok(())
    }

    /// Builder-style chunk size (`validate` checks it).
    pub fn with_chunk_size(mut self, n: usize) -> Self {
        self.chunk_size = n;
        self
    }

    /// Builder-style intersection strategy.
    pub fn with_intersect(mut self, s: IntersectStrategy) -> Self {
        self.intersect = s;
        self
    }

    /// Builder-style signature prefilter toggle.
    pub fn with_signature_prefilter(mut self, on: bool) -> Self {
        self.signature_prefilter = on;
        self
    }

    /// Builder-style virtual warp policy.
    pub fn with_virtual_warp(mut self, p: VirtualWarpPolicy) -> Self {
        self.virtual_warp = p;
        self
    }

    /// Builder-style placement randomisation.
    pub fn with_randomize_placement(mut self, on: bool) -> Self {
        self.randomize_placement = on;
        self
    }

    /// Builder-style order policy.
    pub fn with_order_policy(mut self, p: OrderPolicy) -> Self {
        self.order_policy = p;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vwarp_from_avg_degree() {
        assert_eq!(VirtualWarpPolicy::AvgDegree.width(0.5), 1);
        assert_eq!(VirtualWarpPolicy::AvgDegree.width(2.8), 4);
        assert_eq!(VirtualWarpPolicy::AvgDegree.width(7.9), 8);
        assert_eq!(VirtualWarpPolicy::AvgDegree.width(1000.0), 32);
        assert_eq!(VirtualWarpPolicy::Fixed(16).width(2.0), 16);
    }

    #[test]
    #[should_panic(expected = "pow2")]
    fn bad_fixed_width_panics() {
        VirtualWarpPolicy::Fixed(12).width(1.0);
    }

    #[test]
    fn builder_chain() {
        let c = EngineConfig::default()
            .with_chunk_size(64)
            .with_intersect(IntersectStrategy::PIntersection)
            .with_signature_prefilter(false)
            .with_randomize_placement(false);
        assert_eq!(c.chunk_size, 64);
        assert_eq!(c.intersect, IntersectStrategy::PIntersection);
        assert!(!c.signature_prefilter);
        assert!(!c.randomize_placement);
    }
}
