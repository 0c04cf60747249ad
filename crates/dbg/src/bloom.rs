//! The Bloom filter behind the two-pass singleton pre-filter of
//! [`crate::count_kmers`].
//!
//! A key is a k-mer's 64-bit murmur hash ([`kmer::hash::hash_kmer`]), so
//! the filter never re-hashes: its [`PROBES`] bit positions come from that
//! one value by double hashing (`h1 + i·h2`), each mapped onto the bit
//! range with a multiply-shift instead of a modulo.

/// Bits reserved per key the filter is sized for.
const BITS_PER_KEY: usize = 8;

/// Bits probed per key. With [`BITS_PER_KEY`] = 8 bits per key, 3 probes
/// give a false-positive rate of `(1 − e^{−3/8})^3` ≈ 3% at full load.
const PROBES: usize = 3;

/// A fixed-size Bloom filter over pre-hashed keys. No false negatives: once
/// [`BloomFilter::insert`] has seen a key, [`BloomFilter::contains`] is true
/// for it.
pub(crate) struct BloomFilter {
    words: Vec<u64>,
    bits: u64,
}

impl BloomFilter {
    /// A filter for up to `keys` distinct keys at [`BITS_PER_KEY`] bits
    /// each (at least one word).
    pub(crate) fn new(keys: usize) -> BloomFilter {
        let words = (keys.saturating_mul(BITS_PER_KEY) / 64).max(1);
        BloomFilter { words: vec![0; words], bits: words as u64 * 64 }
    }

    /// The bit positions probed for `h`.
    #[inline]
    fn probes(&self, h: u64) -> [u64; PROBES] {
        // The odd rotation keeps h2 independent of h1's low bits and never 0.
        let h2 = h.rotate_left(32) | 1;
        std::array::from_fn(|i| {
            let hi = h.wrapping_add((i as u64).wrapping_mul(h2));
            ((u128::from(hi) * u128::from(self.bits)) >> 64) as u64
        })
    }

    /// Set `h`'s bits. Returns true if any was clear — the key is certainly
    /// new, as with `HashSet::insert` — and false if the key may have been
    /// inserted before.
    #[inline]
    pub(crate) fn insert(&mut self, h: u64) -> bool {
        let mut fresh = false;
        for bit in self.probes(h) {
            let (w, mask) = ((bit / 64) as usize, 1u64 << (bit % 64));
            fresh |= self.words[w] & mask == 0;
            self.words[w] |= mask;
        }
        fresh
    }

    /// True if `h` may have been inserted; always true if it was.
    #[inline]
    pub(crate) fn contains(&self, h: u64) -> bool {
        self.probes(h)
            .into_iter()
            .all(|bit| self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmer::hash::murmur64a_words;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1000);
        let keys: Vec<u64> = (0..1000u64).map(|i| murmur64a_words(&[i], 0)).collect();
        for &h in &keys {
            f.insert(h);
        }
        assert!(keys.iter().all(|&h| f.contains(h)));
    }

    #[test]
    fn insert_reports_fresh_keys() {
        let mut f = BloomFilter::new(100);
        let h = murmur64a_words(&[7], 0);
        assert!(!f.contains(h));
        assert!(f.insert(h), "first insert is fresh");
        assert!(!f.insert(h), "second insert is not");
    }

    #[test]
    fn false_positive_rate_near_design() {
        let n = 20_000u64;
        let mut f = BloomFilter::new(n as usize);
        for i in 0..n {
            f.insert(murmur64a_words(&[i], 1));
        }
        let fp = (n..2 * n).filter(|&i| f.contains(murmur64a_words(&[i], 1))).count();
        let rate = fp as f64 / n as f64;
        assert!(rate < 0.05, "false-positive rate {rate}");
    }

    #[test]
    fn empty_filter_is_usable() {
        let mut f = BloomFilter::new(0);
        assert!(f.insert(42));
        assert!(f.contains(42));
    }
}
