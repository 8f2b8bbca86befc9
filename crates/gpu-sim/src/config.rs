//! Device configurations.

/// Parameters of a simulated GPU.
///
/// Memory capacities are expressed in 32-bit *words* because every array in
/// the cuTS data path (CSR offsets/targets, trie PA/CA) is word-sized; the
/// paper's Table 1 accounts space in words too.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable device name (shows up in reports).
    pub name: &'static str,
    /// Streaming multiprocessors (paper: V100 = 84, A100 = 108).
    pub num_sms: usize,
    /// Shared memory per thread block, in words.
    pub shared_mem_words_per_block: usize,
    /// Global memory capacity, in words.
    pub global_mem_words: usize,
    /// DRAM bandwidth in words per clock cycle (aggregate).
    pub dram_words_per_cycle: f64,
    /// Core clock in GHz, used only to express simulated cycles as ms.
    pub clock_ghz: f64,
}

impl DeviceConfig {
    /// V100-shaped device (84 SMs). Global memory is scaled from 32 GB to a
    /// simulation-friendly default of 32 Mwords (128 MB): the *ratio*
    /// against [`DeviceConfig::a100_like`] matches the paper's machines, so
    /// the "A100 fits more cases than V100" behaviour reproduces.
    pub fn v100_like() -> Self {
        DeviceConfig {
            name: "sim-V100",
            num_sms: 84,
            shared_mem_words_per_block: 96 * 1024 / 4,
            global_mem_words: 32 << 20,
            dram_words_per_cycle: 160.0, // ~900 GB/s at 1.38 GHz
            clock_ghz: 1.38,
        }
    }

    /// A100-shaped device (108 SMs, 40 Mwords global memory).
    pub fn a100_like() -> Self {
        DeviceConfig {
            name: "sim-A100",
            num_sms: 108,
            shared_mem_words_per_block: 160 * 1024 / 4,
            global_mem_words: 40 << 20,
            dram_words_per_cycle: 320.0, // ~1.9 TB/s at 1.41 GHz
            clock_ghz: 1.41,
        }
    }

    /// Small device for unit tests: few SMs, tiny memory, so OOM paths and
    /// chunking logic are exercised cheaply.
    pub fn test_small() -> Self {
        DeviceConfig {
            name: "sim-test",
            num_sms: 4,
            shared_mem_words_per_block: 4096,
            global_mem_words: 1 << 20,
            dram_words_per_cycle: 16.0,
            clock_ghz: 1.0,
        }
    }

    /// Copy with a different global-memory budget (used to model per-rank
    /// memory in the distributed runtime and to force OOM in tests).
    pub fn with_global_mem_words(mut self, words: usize) -> Self {
        self.global_mem_words = words;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_sm_counts() {
        assert_eq!(DeviceConfig::v100_like().num_sms, 84);
        assert_eq!(DeviceConfig::a100_like().num_sms, 108);
    }

    #[test]
    fn memory_ratio_preserved() {
        let v = DeviceConfig::v100_like().global_mem_words as f64;
        let a = DeviceConfig::a100_like().global_mem_words as f64;
        assert!((v / a - 32.0 / 40.0).abs() < 1e-9);
    }

    #[test]
    fn with_global_mem() {
        let c = DeviceConfig::test_small().with_global_mem_words(1234);
        assert_eq!(c.global_mem_words, 1234);
    }
}
