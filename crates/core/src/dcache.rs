//! Data-cache activity under significance compression (§2.6 of the paper).
//!
//! The data array of the cache stores extension bits with every word and
//! only the significant bytes are read, written or filled; the tag array is
//! unaffected (hence the near-zero tag saving in Table 5). Extension bits are
//! regenerated whenever a line is filled from the next level.

use crate::ext::{significant_bytes, ExtScheme};
use sigcomp_mem::CacheConfig;

/// Accumulates data-cache data-array and tag-array activity. Nothing it
/// counts depends on the cache geometry; the tag width enters only when
/// the tag activity is read ([`DCacheActivity::tag_bits`]).
#[derive(Debug, Clone)]
pub struct DCacheActivity {
    scheme: ExtScheme,
    accesses: u64,
    compressed_data_bits: u64,
    baseline_data_bits: u64,
    fill_words: u64,
}

impl DCacheActivity {
    /// Creates an accumulator for the given extension scheme.
    #[must_use]
    pub fn new(scheme: ExtScheme) -> Self {
        DCacheActivity {
            scheme,
            accesses: 0,
            compressed_data_bits: 0,
            baseline_data_bits: 0,
            fill_words: 0,
        }
    }

    /// Records a load or store of `value` with the given access width in
    /// bytes (1, 2 or 4).
    pub fn access(&mut self, value: u32, width_bytes: u8) {
        self.accesses += 1;
        let sig = significant_bytes(value, self.scheme).min(width_bytes);
        // Sub-word accesses never touch more than their width, but at least
        // one granule is always accessed.
        let granule = self.scheme.granule_bytes() as u8;
        let accessed = sig.max(granule).min(width_bytes.max(granule));
        self.compressed_data_bits +=
            u64::from(accessed) * 8 + u64::from(self.scheme.overhead_bits());
        self.baseline_data_bits += u64::from(width_bytes) * 8;
    }

    /// Records the fill of one word of a cache line (extension bits are
    /// generated at fill time).
    pub fn fill_word(&mut self, value: u32) {
        self.fill_lines(1, u64::from(significant_bytes(value, self.scheme)), 1);
    }

    /// Records `lines` line fills of `words` words each in one batch. Every
    /// word of a line repeats one stand-in value (the analyzer's
    /// approximation, where the accessed word represents its line
    /// neighbours); `sig_bytes` sums the stand-ins' significant bytes over
    /// the `lines` fills.
    pub fn fill_lines(&mut self, lines: u64, sig_bytes: u64, words: u64) {
        self.fill_words += lines * words;
        self.compressed_data_bits +=
            words * (sig_bytes * 8 + lines * u64::from(self.scheme.overhead_bits()));
        self.baseline_data_bits += lines * words * 32;
    }

    /// Number of load/store accesses observed.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of line-fill words observed.
    #[must_use]
    pub fn fill_words(&self) -> u64 {
        self.fill_words
    }

    /// Data-array bits touched under compression.
    #[must_use]
    pub fn data_compressed_bits(&self) -> u64 {
        self.compressed_data_bits
    }

    /// Data-array bits touched by the conventional cache.
    #[must_use]
    pub fn data_baseline_bits(&self) -> u64 {
        self.baseline_data_bits
    }

    /// Tag-array bits touched in a cache of geometry `config`: the tag and
    /// the valid bit per access (identical with and without compression).
    #[must_use]
    pub fn tag_bits(&self, config: &CacheConfig) -> u64 {
        self.accesses * (u64::from(config.tag_bits()) + 1)
    }

    /// Fractional data-array saving.
    #[must_use]
    pub fn data_saving(&self) -> f64 {
        if self.baseline_data_bits == 0 {
            0.0
        } else {
            1.0 - self.compressed_data_bits as f64 / self.baseline_data_bits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc() -> DCacheActivity {
        DCacheActivity::new(ExtScheme::ThreeBit)
    }

    #[test]
    fn narrow_word_accesses_save_bytes() {
        let mut d = dc();
        d.access(7, 4);
        assert_eq!(d.data_compressed_bits(), 8 + 3);
        assert_eq!(d.data_baseline_bits(), 32);
        assert!(d.data_saving() > 0.6);
    }

    #[test]
    fn byte_accesses_cannot_save_data_bytes() {
        let mut d = dc();
        d.access(0x7f, 1);
        // One byte accessed either way; compression only adds the ext bits.
        assert_eq!(d.data_compressed_bits(), 8 + 3);
        assert_eq!(d.data_baseline_bits(), 8);
        assert!(d.data_saving() < 0.0);
    }

    #[test]
    fn wide_values_do_not_save() {
        let mut d = dc();
        d.access(0xdead_beef, 4);
        assert_eq!(d.data_compressed_bits(), 32 + 3);
        assert!(d.data_saving() < 0.0);
    }

    #[test]
    fn fills_regenerate_extension_bits_per_word() {
        let mut d = dc();
        for &w in &[0u32, 1, 0xffff_ffff, 0x1234_5678] {
            d.fill_word(w);
        }
        assert_eq!(d.fill_words(), 4);
        // 1 + 1 + 1 + 4 significant bytes = 7 bytes + 4×3 ext bits.
        assert_eq!(d.data_compressed_bits(), 7 * 8 + 12);
        assert_eq!(d.data_baseline_bits(), 4 * 32);
        assert!(d.data_saving() > 0.4);
    }

    #[test]
    fn tag_activity_is_unchanged_by_compression() {
        let mut d = dc();
        d.access(7, 4);
        d.access(0xdead_beef, 4);
        // 8 KB direct-mapped, 32-byte lines → 19 tag bits + valid.
        assert_eq!(d.tag_bits(&CacheConfig::paper_l1()), 2 * 20);
    }

    #[test]
    fn halfword_scheme_granularity() {
        let mut d = DCacheActivity::new(ExtScheme::Halfword);
        d.access(7, 4);
        assert_eq!(d.data_compressed_bits(), 16 + 1);
        d.access(0x0001_0000, 4);
        assert_eq!(d.data_compressed_bits(), 16 + 1 + 32 + 1);
    }

    #[test]
    fn empty_accumulator() {
        let d = dc();
        assert_eq!(d.data_saving(), 0.0);
        assert_eq!(d.tag_bits(&CacheConfig::paper_l1()), 0);
        assert_eq!(d.accesses(), 0);
    }
}
