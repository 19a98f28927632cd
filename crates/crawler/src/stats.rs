//! Crawl accounting: the numbers behind the paper's Figure 2 (dataset
//! characteristics: block counts, transaction counts, compressed storage).

use std::time::Duration;

/// How often a payload is sampled for compression measurement. Compressing
/// every payload would dominate crawl time; sampling every Nth block and
/// extrapolating preserves the Figure 2 estimate (see "Figure 2
/// methodology" in the root README). Archives memoize the sampled integers
/// per segment: changing this means bumping `txstat_reports::SUMMARY_SCHEMA`.
pub const COMPRESSION_SAMPLE_EVERY: u64 = 8;

/// Accumulated crawl statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrawlStats {
    pub blocks: u64,
    pub transactions: u64,
    /// Raw wire bytes received (HTTP/NDJSON payloads).
    pub wire_bytes: u64,
    /// Bytes of the payloads that were compression-sampled.
    pub sampled_bytes: u64,
    /// LZSS output bytes for the sampled payloads.
    pub sampled_compressed_bytes: u64,
    pub elapsed: Duration,
}

impl CrawlStats {
    /// Estimated compressed size of the full crawl, extrapolated from the
    /// sampled compression ratio.
    pub fn compressed_bytes_estimate(&self) -> u64 {
        if self.sampled_bytes == 0 {
            return 0;
        }
        (self.wire_bytes as f64 * self.sampled_compressed_bytes as f64
            / self.sampled_bytes as f64) as u64
    }

    /// Observed compression ratio on the sample.
    pub fn compression_ratio(&self) -> f64 {
        if self.sampled_compressed_bytes == 0 {
            return 0.0;
        }
        self.sampled_bytes as f64 / self.sampled_compressed_bytes as f64
    }

    /// Record one payload.
    pub fn record_payload(&mut self, index: u64, payload: &[u8]) {
        self.wire_bytes += payload.len() as u64;
        if index.is_multiple_of(COMPRESSION_SAMPLE_EVERY) {
            self.sampled_bytes += payload.len() as u64;
            self.sampled_compressed_bytes +=
                txstat_types::lzss::compressed_len(payload) as u64;
        }
    }

    pub fn merge(&mut self, other: &CrawlStats) {
        self.blocks += other.blocks;
        self.transactions += other.transactions;
        self.wire_bytes += other.wire_bytes;
        self.sampled_bytes += other.sampled_bytes;
        self.sampled_compressed_bytes += other.sampled_compressed_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_estimate_extrapolates() {
        let mut s = CrawlStats::default();
        // Highly compressible payload sampled at index 0.
        let payload = vec![b'a'; 10_000];
        s.record_payload(0, &payload);
        // Unsampled payload still counts toward wire bytes.
        s.record_payload(1, &payload);
        assert_eq!(s.wire_bytes, 20_000);
        assert_eq!(s.sampled_bytes, 10_000);
        assert!(s.sampled_compressed_bytes < 1_000);
        let est = s.compressed_bytes_estimate();
        assert_eq!(est, 2 * s.sampled_compressed_bytes);
        assert!(s.compression_ratio() > 10.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = CrawlStats::default();
        assert_eq!(s.compressed_bytes_estimate(), 0);
        assert_eq!(s.compression_ratio(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CrawlStats { blocks: 1, transactions: 2, wire_bytes: 10, ..Default::default() };
        let b = CrawlStats { blocks: 3, transactions: 4, wire_bytes: 30, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.blocks, 4);
        assert_eq!(a.transactions, 6);
        assert_eq!(a.wire_bytes, 40);
    }
}
