//! Fixed-width packed k-mer type.

use crate::hash::hash_kmer;
use bioseq::{Base, DnaSeq};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Maximum supported k. MetaHipMer's iterative assembly uses k up to 99;
/// four 64-bit words give us headroom to 128.
pub const MAX_K: usize = 128;

/// Number of backing words.
pub const KMER_WORDS: usize = MAX_K / 32;

/// A k-mer packed at 2 bits per base, LSB-first (base `i` at bits `2i` of
/// word `i/32`) — the same layout as [`bioseq::PackedSeq`], so a k-mer can be
/// materialized from a packed read window without re-encoding.
///
/// Invariant: bits above position `2k` are zero (needed for `Eq`/`Ord`/hash
/// to be well-defined).
///
/// `Hash` writes [`hash_kmer`] — MurmurHash2 over the live words — as one
/// `u64`, so a table built with [`crate::KmerBuildHasher`] hashes each key
/// exactly once, with the paper's hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Kmer {
    words: [u64; KMER_WORDS],
    k: u16,
}

impl Kmer {
    /// The k-mer spanning `seq[start .. start+k]`.
    ///
    /// Panics if the window is out of bounds or `k` is 0 or > [`MAX_K`].
    pub fn from_seq(seq: &DnaSeq, start: usize, k: usize) -> Kmer {
        assert!((1..=MAX_K).contains(&k), "k={k} out of range");
        assert!(start + k <= seq.len(), "k-mer window out of bounds");
        let mut words = [0u64; KMER_WORDS];
        for j in 0..k {
            words[j / 32] |= u64::from(seq.code(start + j)) << ((j % 32) * 2);
        }
        Kmer { words, k: k as u16 }
    }

    /// Construct from pre-packed words (LSB-first 2-bit codes). High bits
    /// beyond `2k` are cleared.
    pub fn from_words(mut words_in: [u64; KMER_WORDS], k: usize) -> Kmer {
        assert!((1..=MAX_K).contains(&k), "k={k} out of range");
        mask_high(&mut words_in, k);
        Kmer { words: words_in, k: k as u16 }
    }

    /// Construct from a window of a packed word slice (e.g. a packed read in
    /// device memory): bases `[start, start+k)` where base `i` of the slice
    /// lives at word `i/32`, bits `2(i%32)`.
    pub fn from_packed_words(words: &[u64], start: usize, k: usize) -> Kmer {
        assert!((1..=MAX_K).contains(&k), "k={k} out of range");
        let mut out = [0u64; KMER_WORDS];
        for j in 0..k {
            let i = start + j;
            let code = (words[i / 32] >> ((i % 32) * 2)) & 3;
            out[j / 32] |= code << ((j % 32) * 2);
        }
        Kmer { words: out, k: k as u16 }
    }

    /// k (length in bases).
    #[inline]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Backing words (low `2k` bits significant).
    #[inline]
    pub fn words(&self) -> &[u64; KMER_WORDS] {
        &self.words
    }

    /// 2-bit code of base `i`.
    #[inline]
    pub fn code(&self, i: usize) -> u8 {
        assert!(i < self.k(), "base index out of range");
        ((self.words[i / 32] >> ((i % 32) * 2)) & 3) as u8
    }

    /// Base at position `i`.
    #[inline]
    pub fn base(&self, i: usize) -> Base {
        Base::from_code(self.code(i))
    }

    /// The last base (the one a right-extension appends after).
    #[inline]
    pub fn last_base(&self) -> Base {
        self.base(self.k() - 1)
    }

    /// The k-mer obtained by dropping the first base and appending `b` —
    /// one step of a rightward mer-walk. O(words): the packed value shifts
    /// right by one base across the `ceil(k/32)` live words; the vacated
    /// top base is already zero by the high-bits invariant.
    #[inline]
    pub fn shift_right(&self, b: Base) -> Kmer {
        let k = self.k();
        let nw = words_for(k);
        let mut words = self.words;
        for w in 0..nw {
            let carry = if w + 1 < nw { words[w + 1] << 62 } else { 0 };
            words[w] = (words[w] >> 2) | carry;
        }
        let j = k - 1;
        words[j / 32] |= u64::from(b.code()) << ((j % 32) * 2);
        Kmer { words, k: self.k }
    }

    /// The k-mer obtained by dropping the last base and prepending `b` —
    /// one step of a leftward mer-walk. O(words); the base pushed past
    /// position `k - 1` is masked off.
    #[inline]
    pub fn shift_left(&self, b: Base) -> Kmer {
        let k = self.k();
        let nw = words_for(k);
        let mut words = self.words;
        for w in (0..nw).rev() {
            let carry = if w > 0 { words[w - 1] >> 62 } else { 0 };
            words[w] = (words[w] << 2) | carry;
        }
        words[0] |= u64::from(b.code());
        let top_bits = 2 * k - 64 * (nw - 1);
        if top_bits < 64 {
            words[nw - 1] &= (1u64 << top_bits) - 1;
        }
        Kmer { words, k: self.k }
    }

    /// Reverse complement. O(words): each live word has its 32 base codes
    /// reversed and complemented, the words are taken in reverse order, and
    /// the result shifts down by the `32·ceil(k/32) − k` padding bases that
    /// the reversal moved to the bottom.
    pub fn revcomp(&self) -> Kmer {
        let k = self.k();
        let nw = words_for(k);
        let mut words = [0u64; KMER_WORDS];
        for (out, &word) in words.iter_mut().zip(self.words[..nw].iter().rev()) {
            *out = !reverse_codes(word);
        }
        let pad = 2 * (32 * nw - k);
        if pad > 0 {
            for w in 0..nw {
                let carry = if w + 1 < nw { words[w + 1] << (64 - pad) } else { 0 };
                words[w] = (words[w] >> pad) | carry;
            }
        }
        Kmer { words, k: self.k }
    }

    /// Canonical form: the lexicographically smaller of the k-mer and its
    /// reverse complement (comparison over base codes from position 0).
    pub fn canonical(&self) -> Kmer {
        let rc = self.revcomp();
        if self.cmp_bases(&rc) <= std::cmp::Ordering::Equal {
            *self
        } else {
            rc
        }
    }

    /// True if this k-mer equals its own canonical form.
    pub fn is_canonical(&self) -> bool {
        self.cmp_bases(&self.revcomp()) != std::cmp::Ordering::Greater
    }

    /// Lexicographic comparison by base sequence (not by packed words:
    /// LSB-first packing does not preserve lexicographic order). O(words):
    /// the first differing base is the lowest set bit of the first non-zero
    /// word XOR.
    pub fn cmp_bases(&self, other: &Kmer) -> std::cmp::Ordering {
        debug_assert_eq!(self.k, other.k);
        let nw = words_for(self.k());
        for (a, b) in self.words[..nw].iter().zip(&other.words[..nw]) {
            let diff = a ^ b;
            if diff != 0 {
                let at = diff.trailing_zeros() & !1;
                return ((a >> at) & 3).cmp(&((b >> at) & 3));
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Unpack to a `DnaSeq`.
    pub fn to_seq(&self) -> DnaSeq {
        (0..self.k()).map(|i| self.base(i)).collect()
    }
}

impl Hash for Kmer {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(hash_kmer(self));
    }
}

impl std::fmt::Display for Kmer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.k() {
            write!(f, "{}", self.base(i))?;
        }
        Ok(())
    }
}

/// Words that carry the bases of a k-mer.
#[inline]
fn words_for(k: usize) -> usize {
    k.div_ceil(32)
}

/// Reverse the order of the 32 two-bit base codes packed in `x`.
#[inline]
fn reverse_codes(x: u64) -> u64 {
    const LOW_BITS: u64 = 0x5555_5555_5555_5555;
    // `reverse_bits` also swaps the two bits inside each code; swap back.
    let x = x.reverse_bits();
    ((x >> 1) & LOW_BITS) | ((x & LOW_BITS) << 1)
}

fn mask_high(words: &mut [u64; KMER_WORDS], k: usize) {
    let full_words = (2 * k) / 64;
    let rem_bits = (2 * k) % 64;
    for (w, word) in words.iter_mut().enumerate() {
        if w > full_words || (w == full_words && rem_bits == 0) {
            *word = 0;
        } else if w == full_words {
            *word &= (1u64 << rem_bits) - 1;
        }
    }
}

/// Iterator over the k-mers of a sequence, left to right.
pub struct KmerIter<'a> {
    seq: &'a DnaSeq,
    k: usize,
    pos: usize,
    cur: Option<Kmer>,
}

impl<'a> KmerIter<'a> {
    /// K-mers of `seq`; yields nothing if `seq.len() < k`.
    pub fn new(seq: &'a DnaSeq, k: usize) -> KmerIter<'a> {
        assert!((1..=MAX_K).contains(&k), "k={k} out of range");
        KmerIter { seq, k, pos: 0, cur: None }
    }
}

impl Iterator for KmerIter<'_> {
    /// `(start_position, kmer)`
    type Item = (usize, Kmer);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos + self.k > self.seq.len() {
            return None;
        }
        let km = match self.cur {
            // Incremental shift is O(words); recomputing would be O(k).
            Some(prev) => prev.shift_right(self.seq.base(self.pos + self.k - 1)),
            None => Kmer::from_seq(self.seq, 0, self.k),
        };
        self.cur = Some(km);
        let at = self.pos;
        self.pos += 1;
        Some((at, km))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.seq.len() + 1).saturating_sub(self.pos + self.k);
        (n, Some(n))
    }
}

/// The canonical k-mers of a sequence, left to right — the one k-mer stream
/// every consumer (counting, seed indexing, alignment, evaluation) reads.
///
/// The forward k-mer rolls right and its reverse complement rolls left in
/// step, so each position costs two O(words) shifts and one word-wise
/// comparison instead of an O(k) reverse complement.
pub struct CanonicalKmerIter<'a> {
    codes: &'a [u8],
    k: usize,
    pos: usize,
    fwd: Kmer,
    rc: Kmer,
}

impl<'a> CanonicalKmerIter<'a> {
    /// Canonical k-mers of `seq`; yields nothing if `seq.len() < k`.
    pub fn new(seq: &'a DnaSeq, k: usize) -> CanonicalKmerIter<'a> {
        assert!((1..=MAX_K).contains(&k), "k={k} out of range");
        let fwd = if seq.len() >= k {
            Kmer::from_seq(seq, 0, k)
        } else {
            Kmer { words: [0; KMER_WORDS], k: k as u16 }
        };
        CanonicalKmerIter { codes: seq.codes(), k, pos: 0, fwd, rc: fwd.revcomp() }
    }
}

impl Iterator for CanonicalKmerIter<'_> {
    /// `(start_position, canonical_kmer, flipped)`, where `flipped` means
    /// the canonical form is the reverse complement of the k-mer as it
    /// reads in the sequence (never set for a palindrome).
    type Item = (usize, Kmer, bool);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.pos + self.k > self.codes.len() {
            return None;
        }
        if self.pos > 0 {
            let b = Base::from_code(self.codes[self.pos + self.k - 1]);
            self.fwd = self.fwd.shift_right(b);
            self.rc = self.rc.shift_left(b.complement());
        }
        let at = self.pos;
        self.pos += 1;
        let flipped = self.fwd.cmp_bases(&self.rc) == std::cmp::Ordering::Greater;
        Some((at, if flipped { self.rc } else { self.fwd }, flipped))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.codes.len() + 1).saturating_sub(self.pos + self.k);
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seq(s: &str) -> DnaSeq {
        DnaSeq::from_str_strict(s).unwrap()
    }

    #[test]
    fn from_seq_and_display() {
        let km = Kmer::from_seq(&seq("ACGTACGT"), 1, 5);
        assert_eq!(km.to_string(), "CGTAC");
        assert_eq!(km.k(), 5);
    }

    #[test]
    fn shift_right_walks() {
        let km = Kmer::from_seq(&seq("ACGTA"), 0, 4); // ACGT
        let next = km.shift_right(Base::A);
        assert_eq!(next.to_string(), "CGTA");
    }

    #[test]
    fn shift_left_walks() {
        let km = Kmer::from_seq(&seq("ACGT"), 0, 4);
        let prev = km.shift_left(Base::T);
        assert_eq!(prev.to_string(), "TACG");
    }

    #[test]
    fn shift_crosses_word_boundary() {
        // k=40 spans two words.
        let s: DnaSeq = (0..41).map(|i| Base::from_code((i % 4) as u8)).collect();
        let km = Kmer::from_seq(&s, 0, 40);
        let shifted = km.shift_right(s.base(40));
        let direct = Kmer::from_seq(&s, 1, 40);
        assert_eq!(shifted, direct);
    }

    #[test]
    fn revcomp_known() {
        let km = Kmer::from_seq(&seq("AACGT"), 0, 5);
        assert_eq!(km.revcomp().to_string(), "ACGTT");
    }

    #[test]
    fn canonical_picks_smaller() {
        let km = Kmer::from_seq(&seq("TTTT"), 0, 4);
        assert_eq!(km.canonical().to_string(), "AAAA");
        let km2 = Kmer::from_seq(&seq("AAAA"), 0, 4);
        assert_eq!(km2.canonical().to_string(), "AAAA");
    }

    #[test]
    fn kmer_iter_yields_all() {
        let s = seq("ACGTAC");
        let kmers: Vec<String> = KmerIter::new(&s, 4).map(|(_, k)| k.to_string()).collect();
        assert_eq!(kmers, vec!["ACGT", "CGTA", "GTAC"]);
    }

    #[test]
    fn kmer_iter_short_seq_empty() {
        let s = seq("ACG");
        assert_eq!(KmerIter::new(&s, 4).count(), 0);
    }

    #[test]
    fn from_packed_words_matches() {
        let s: DnaSeq = (0..100).map(|i| Base::from_code(((i * 7) % 4) as u8)).collect();
        let packed = bioseq::PackedSeq::from_seq(&s);
        for start in [0usize, 5, 31, 32, 33, 50] {
            let a = Kmer::from_packed_words(packed.words(), start, 33);
            let b = Kmer::from_seq(&s, start, 33);
            assert_eq!(a, b, "start={start}");
        }
    }

    /// Base-by-base reverse complement, the reference the word-wise one
    /// must match.
    fn naive_revcomp(km: &Kmer) -> Kmer {
        let s: DnaSeq = (0..km.k()).rev().map(|i| km.base(i).complement()).collect();
        Kmer::from_seq(&s, 0, km.k())
    }

    fn naive_cmp(a: &Kmer, b: &Kmer) -> std::cmp::Ordering {
        (0..a.k()).map(|i| a.code(i)).cmp((0..b.k()).map(|i| b.code(i)))
    }

    fn naive_canonical(km: &Kmer) -> Kmer {
        let rc = naive_revcomp(km);
        if naive_cmp(km, &rc).is_le() {
            *km
        } else {
            rc
        }
    }

    /// The key's hash under SipHash and under the table hasher.
    fn hash_of(km: &Kmer) -> (u64, u64) {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let sip = BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default();
        (sip.hash_one(km), crate::KmerBuildHasher.hash_one(km))
    }

    #[test]
    fn word_ops_match_naive_for_every_k() {
        // Every k in 1..=MAX_K crosses the word boundaries at 32, 64, 96;
        // pairs that share a prefix of every length exercise the first
        // differing base landing in each word.
        let s: DnaSeq =
            (0..MAX_K + 40).map(|i| Base::from_code(((i * 7 + i / 5) % 4) as u8)).collect();
        for k in 1..=MAX_K {
            for start in [0, 1, 13, 40] {
                let km = Kmer::from_seq(&s, start, k);
                assert_eq!(km.revcomp(), naive_revcomp(&km), "revcomp k={k} start={start}");
                assert_eq!(km.canonical(), naive_canonical(&km), "canonical k={k}");
                let rc = km.revcomp();
                assert_eq!(km.cmp_bases(&rc), naive_cmp(&km, &rc), "cmp k={k}");
                for at in [0, k / 2, k - 1] {
                    let mut codes: Vec<u8> = (0..k).map(|i| km.code(i)).collect();
                    codes[at] ^= 1 + (at % 3) as u8;
                    let other = Kmer::from_seq(&DnaSeq::from_codes(codes), 0, k);
                    assert_eq!(km.cmp_bases(&other), naive_cmp(&km, &other), "k={k} at={at}");
                    assert_eq!(other.cmp_bases(&km), naive_cmp(&other, &km), "k={k} at={at}");
                }
                assert!(km.cmp_bases(&km).is_eq());
            }
        }
    }

    #[test]
    fn palindrome_is_not_flipped() {
        let s = seq("ACGT");
        let items: Vec<_> = CanonicalKmerIter::new(&s, 4).collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].1.to_string(), "ACGT");
        assert!(!items[0].2);
    }

    #[test]
    fn canonical_iter_short_seq_empty() {
        assert_eq!(CanonicalKmerIter::new(&seq("ACG"), 4).count(), 0);
        assert_eq!(CanonicalKmerIter::new(&seq("ACGT"), 4).size_hint(), (1, Some(1)));
    }

    fn arb_kseq(k: usize, extra: usize) -> impl Strategy<Value = DnaSeq> {
        proptest::collection::vec(0u8..4, k + extra..k + extra + 1).prop_map(DnaSeq::from_codes)
    }

    proptest! {
        #[test]
        fn iter_matches_direct(codes in proptest::collection::vec(0u8..4, 21..120)) {
            let s = DnaSeq::from_codes(codes);
            let k = 21;
            for (pos, km) in KmerIter::new(&s, k) {
                prop_assert_eq!(km, Kmer::from_seq(&s, pos, k));
            }
        }

        #[test]
        fn word_ops_match_naive(k in 1usize..=MAX_K, codes in proptest::collection::vec(0u8..4, MAX_K..MAX_K + 1)) {
            let km = Kmer::from_seq(&DnaSeq::from_codes(codes), 0, k);
            let rc = km.revcomp();
            prop_assert_eq!(rc, naive_revcomp(&km));
            prop_assert_eq!(km.cmp_bases(&rc), naive_cmp(&km, &rc));
            prop_assert_eq!(km.canonical(), naive_canonical(&km));
            prop_assert_eq!(km.is_canonical(), naive_canonical(&km) == km);
        }

        #[test]
        fn canonical_iter_matches_kmer_iter(
            k in 1usize..=MAX_K,
            codes in proptest::collection::vec(0u8..4, 0..200),
        ) {
            let s = DnaSeq::from_codes(codes);
            let rolled: Vec<_> = CanonicalKmerIter::new(&s, k).collect();
            let direct: Vec<_> = KmerIter::new(&s, k)
                .map(|(pos, km)| {
                    let canon = km.canonical();
                    (pos, canon, canon != km)
                })
                .collect();
            prop_assert_eq!(rolled, direct);
        }

        #[test]
        fn hash_agrees_with_eq(k in 1usize..=MAX_K, codes in proptest::collection::vec(0u8..4, MAX_K + 1..MAX_K + 2)) {
            let s = DnaSeq::from_codes(codes);
            let km = Kmer::from_seq(&s, 0, k);
            // Equal k-mers reached by different routes hash equally ...
            let rolled = Kmer::from_seq(&s, 1, k).shift_left(s.base(0));
            prop_assert_eq!(rolled, km);
            prop_assert_eq!(hash_of(&rolled), hash_of(&km));
            prop_assert_eq!(hash_of(&km.revcomp().revcomp()), hash_of(&km));
            // ... and the same bases at a different k are a different key.
            if k < MAX_K {
                let longer = Kmer::from_seq(&s, 0, k + 1);
                prop_assert_ne!(longer, km);
                prop_assert_ne!(hash_of(&longer).1, hash_of(&km).1);
            }
        }

        #[test]
        fn revcomp_involution(k in 1usize..=64, seed in any::<u64>()) {
            let s: DnaSeq = (0..k).map(|i| {
                Base::from_code(((seed >> ((i % 29) * 2)) & 3) as u8)
            }).collect();
            let km = Kmer::from_seq(&s, 0, k);
            prop_assert_eq!(km.revcomp().revcomp(), km);
        }

        #[test]
        fn canonical_idempotent(s in arb_kseq(33, 0)) {
            let km = Kmer::from_seq(&s, 0, 33);
            let c = km.canonical();
            prop_assert_eq!(c.canonical(), c);
            prop_assert!(c.is_canonical());
        }

        #[test]
        fn canonical_same_for_rc(s in arb_kseq(33, 0)) {
            let km = Kmer::from_seq(&s, 0, 33);
            prop_assert_eq!(km.canonical(), km.revcomp().canonical());
        }

        #[test]
        fn shift_right_equals_from_seq(s in arb_kseq(55, 1)) {
            let km = Kmer::from_seq(&s, 0, 55);
            let next = km.shift_right(s.base(55));
            prop_assert_eq!(next, Kmer::from_seq(&s, 1, 55));
        }

        #[test]
        fn shift_left_inverts_shift_right(s in arb_kseq(40, 1)) {
            let km = Kmer::from_seq(&s, 0, 40);
            let next = km.shift_right(s.base(40));
            let back = next.shift_left(s.base(0));
            prop_assert_eq!(back, km);
        }

        #[test]
        fn to_seq_round_trip(s in arb_kseq(77, 0)) {
            let km = Kmer::from_seq(&s, 0, 77);
            prop_assert_eq!(km.to_seq(), s);
        }
    }
}
