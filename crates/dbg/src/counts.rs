//! Canonical k-mer counting with per-side extension votes, behind an exact
//! two-pass singleton pre-filter.

use crate::bloom::BloomFilter;
use bioseq::{Base, Read};
use kmer::hash::hash_kmer;
use kmer::{CanonicalKmerIter, Kmer, KmerMap};
use serde::{Deserialize, Serialize};

/// Occurrence count and extension votes for one canonical k-mer.
///
/// `left`/`right` are indexed by base code and count how often that base was
/// observed immediately before/after the k-mer, *in the canonical
/// orientation*. When a k-mer occurs reverse-complemented in a read, its
/// neighbours are complemented and swapped before voting, so votes from both
/// strands accumulate coherently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VertexCounts {
    /// Total occurrences (both strands).
    pub count: u32,
    /// Votes for the base preceding the k-mer.
    pub left: [u16; 4],
    /// Votes for the base following the k-mer.
    pub right: [u16; 4],
}

impl VertexCounts {
    fn add(&mut self, left: Option<Base>, right: Option<Base>) {
        self.count = self.count.saturating_add(1);
        if let Some(b) = left {
            let i = b as usize;
            self.left[i] = self.left[i].saturating_add(1);
        }
        if let Some(b) = right {
            let i = b as usize;
            self.right[i] = self.right[i].saturating_add(1);
        }
    }

    /// The unique extension base on a side, if exactly one base is *viable*
    /// (MetaHipMer's UU criterion).
    ///
    /// Viability is both absolute (`min_votes`) and relative (at least 10%
    /// of the side's votes): at high coverage, recurrent sequencing errors
    /// easily reach 2 absolute votes, and without the relative gate they
    /// would fork — and fragment — every well-covered region.
    pub fn unique_ext(&self, side: Side, min_votes: u16) -> Option<Base> {
        let mut found = None;
        for b in Base::ALL {
            if self.is_viable(side, b, min_votes) {
                if found.is_some() {
                    return None; // fork
                }
                found = Some(b);
            }
        }
        found
    }

    /// Does `base` pass the viability gate on `side` (absolute votes and
    /// ≥10% of the side's total)?
    pub fn is_viable(&self, side: Side, base: Base, min_votes: u16) -> bool {
        let votes = match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        };
        let total: u32 = votes.iter().map(|&v| u32::from(v)).sum();
        let v = votes[base as usize];
        v >= min_votes && u32::from(v) * 10 >= total
    }

    /// Number of viable bases on `side`.
    pub fn viable_bases(&self, side: Side, min_votes: u16) -> usize {
        Base::ALL.iter().filter(|&&b| self.is_viable(side, b, min_votes)).count()
    }
}

/// Which side of a k-mer an extension is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// Map from canonical k-mer to its counts.
pub type KmerCountMap = KmerMap<VertexCounts>;

/// Count canonical k-mers (and their extension votes) across `reads`, then
/// drop k-mers with fewer than `min_count` occurrences.
///
/// This is the pipeline's "k-mer analysis" phase: the `min_count = 2`
/// default implements the paper's "filtering out erroneous k-mers (those
/// that occur only once)".
///
/// With `min_count >= 2` the count runs in two passes (DESIGN.md §14).
/// Pass 1 streams every canonical k-mer through a "seen" Bloom filter and
/// sets a k-mer already seen in a "repeat" filter. Pass 2 counts exactly,
/// into one table, only the k-mers in "repeat". A Bloom filter has no false
/// negatives, so every k-mer occurring twice or more is in "repeat" and is
/// counted in full; a false positive only adds a singleton, and the final
/// `retain` drops it with every other k-mer below `min_count`. The result
/// equals the single exact pass followed by the same `retain`, and
/// singletons (most distinct k-mers on noisy data) never take a table slot.
pub fn count_kmers(reads: &[Read], k: usize, min_count: u32) -> KmerCountMap {
    let mut batch = Vec::new();
    if min_count < 2 {
        let mut map = KmerCountMap::default();
        for read in reads {
            hashed_kmers(read, k, &mut batch);
            add_occurrences(&mut map, read, k, &batch);
        }
        return map;
    }
    let instances: usize = reads.iter().map(|r| (r.len() + 1).saturating_sub(k)).sum();
    let mut seen = BloomFilter::new(instances);
    let mut repeat = BloomFilter::new(instances / 2);
    let mut repeats = 0usize;
    for read in reads {
        hashed_kmers(read, k, &mut batch);
        for o in &batch {
            if !seen.insert(o.hash) && repeat.insert(o.hash) {
                repeats += 1;
            }
        }
    }
    let mut map = KmerCountMap::with_capacity_and_hasher(repeats, Default::default());
    for read in reads {
        hashed_kmers(read, k, &mut batch);
        batch.retain(|o| repeat.contains(o.hash));
        add_occurrences(&mut map, read, k, &batch);
    }
    map.retain(|_, v| v.count >= min_count);
    map
}

/// One canonical k-mer occurrence in a read, with its murmur hash.
struct Occurrence {
    pos: usize,
    canon: Kmer,
    flipped: bool,
    hash: u64,
}

/// Fill `batch` with the canonical k-mers of `read` and their hashes.
///
/// Counting works a read at a time: first this rolls and hashes the whole
/// read, then the filter probes and table updates run over the batch. Kept
/// apart, the probes of successive k-mers are independent loads whose
/// cache misses the CPU overlaps; interleaved with the rolling and hashing
/// they were not, and counting took about twice as long (2-vCPU x86-64 VM).
fn hashed_kmers(read: &Read, k: usize, batch: &mut Vec<Occurrence>) {
    batch.clear();
    batch.extend(CanonicalKmerIter::new(&read.seq, k).map(|(pos, canon, flipped)| Occurrence {
        pos,
        canon,
        flipped,
        hash: hash_kmer(&canon),
    }));
}

/// Count the `occurrences` (k-mers of `read`) in `map`, with their
/// extension votes.
fn add_occurrences(map: &mut KmerCountMap, read: &Read, k: usize, occurrences: &[Occurrence]) {
    let codes = read.seq.codes();
    for o in occurrences {
        let left = (o.pos > 0).then(|| Base::from_code(codes[o.pos - 1]));
        let right = codes.get(o.pos + k).map(|&c| Base::from_code(c));
        let (l, r) = if o.flipped {
            // Reverse-complemented occurrence: neighbours swap sides and
            // complement.
            (right.map(Base::complement), left.map(Base::complement))
        } else {
            (left, right)
        };
        map.entry(o.canon).or_default().add(l, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::DnaSeq;

    fn read(s: &str) -> Read {
        Read::with_uniform_qual("r", DnaSeq::from_str_strict(s).unwrap(), 30)
    }

    #[test]
    fn counts_both_strands_together() {
        let r1 = read("ACGTA");
        let r2 = Read::with_uniform_qual("r2", r1.seq.revcomp(), 30);
        let map = count_kmers(&[r1, r2], 4, 1);
        // ACGT(c)=ACGT count 2 (one per strand); CGTA canonical count 2.
        let km = Kmer::from_seq(&DnaSeq::from_str_strict("ACGT").unwrap(), 0, 4);
        assert_eq!(map.get(&km.canonical()).unwrap().count, 2);
    }

    #[test]
    fn min_count_filters_singletons() {
        // Chosen so no k-mer is its own (or another's) reverse complement.
        let map = count_kmers(&[read("ACGGTTCAAGT")], 8, 2);
        assert!(map.is_empty(), "all k-mers occur once");
        let map1 = count_kmers(&[read("ACGGTTCAAGT")], 8, 1);
        assert_eq!(map1.len(), 4);
    }

    #[test]
    fn extension_votes_forward() {
        // Read TACGTG: k-mer ACGT at pos 1, left=T right=G.
        let map = count_kmers(&[read("TACGTG"), read("TACGTG")], 4, 1);
        let km = Kmer::from_seq(&DnaSeq::from_str_strict("ACGT").unwrap(), 0, 4).canonical();
        let v = map.get(&km).unwrap();
        // ACGT is canonical (its rc is itself; palindrome), votes may appear
        // on both sides. Check via a non-palindromic k-mer instead.
        assert!(v.count >= 2);
        let km2 = Kmer::from_seq(&DnaSeq::from_str_strict("TACG").unwrap(), 0, 4);
        let canon2 = km2.canonical();
        let v2 = map.get(&canon2).unwrap();
        assert_eq!(v2.count, 2);
        if canon2 == km2 {
            assert_eq!(v2.right[Base::T as usize], 2);
        } else {
            assert_eq!(v2.left[Base::A as usize], 2);
        }
    }

    #[test]
    fn rc_occurrence_votes_coherently() {
        // The same locus seen from both strands must produce identical votes.
        let fwd = read("GGACGTTC");
        let rc = Read::with_uniform_qual("rc", fwd.seq.revcomp(), 30);
        let m_f = count_kmers(&[fwd.clone(), fwd.clone()], 5, 1);
        let m_rc = count_kmers(&[rc.clone(), rc], 5, 1);
        assert_eq!(m_f.len(), m_rc.len());
        for (km, v) in &m_f {
            let v2 = m_rc.get(km).expect("same canonical k-mers");
            assert_eq!(v, v2, "kmer {km}");
        }
    }

    #[test]
    fn unique_ext_detects_fork() {
        let mut v = VertexCounts::default();
        v.right[0] = 3;
        assert_eq!(v.unique_ext(Side::Right, 2), Some(Base::A));
        v.right[2] = 3;
        assert_eq!(v.unique_ext(Side::Right, 2), None);
        assert_eq!(v.unique_ext(Side::Left, 1), None);
    }

    #[test]
    fn short_reads_ignored() {
        let map = count_kmers(&[read("ACG")], 5, 1);
        assert!(map.is_empty());
    }

    fn exact_then_retain(reads: &[Read], k: usize, min_count: u32) -> KmerCountMap {
        let mut map = count_kmers(reads, k, 1);
        map.retain(|_, v| v.count >= min_count);
        map
    }

    /// Reads sampled from a random genome with ~1% substitutions, every
    /// fifth one duplicated, plus reads shorter than the largest k.
    fn noisy_reads(seed: u64) -> Vec<Read> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let genome: Vec<u8> = (0..3_000).map(|_| rng.gen_range(0..4u8)).collect();
        let mut reads = Vec::new();
        for i in 0..400 {
            let len = if i % 7 == 0 { rng.gen_range(10..99) } else { 150 };
            let start = rng.gen_range(0..genome.len() - len);
            let mut codes = genome[start..start + len].to_vec();
            for c in codes.iter_mut() {
                if rng.gen_range(0..100) == 0 {
                    *c = (*c + rng.gen_range(1..4u8)) % 4;
                }
            }
            let r = Read::with_uniform_qual(format!("r{i}"), DnaSeq::from_codes(codes), 30);
            let r = if i % 2 == 0 { r.revcomp() } else { r };
            if i % 5 == 0 {
                reads.push(r.clone());
            }
            reads.push(r);
        }
        reads
    }

    #[test]
    fn prefiltered_count_equals_exact_then_retain() {
        let reads = noisy_reads(5);
        for k in [21, 31, 55, 99] {
            let exact = count_kmers(&reads, k, 1);
            assert!(exact.values().any(|v| v.count == 1), "k={k}: input must have singletons");
            for m in [2, 3] {
                let filtered = count_kmers(&reads, k, m);
                assert!(!filtered.is_empty(), "k={k} m={m}");
                assert_eq!(filtered, exact_then_retain(&reads, k, m), "k={k} m={m}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prefiltered_count_equals_exact_then_retain_on_random_reads(
            seqs in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..130), 0..40),
            k in 15usize..=99,
            m in 2u32..=3,
        ) {
            // Each read twice, and every third read a third time, so some
            // k-mers reach every cutoff.
            let mut reads = Vec::new();
            for (i, codes) in seqs.into_iter().enumerate() {
                let r = Read::with_uniform_qual("r", DnaSeq::from_codes(codes), 30);
                reads.push(r.clone());
                if i % 3 == 0 {
                    reads.push(r.revcomp());
                }
                if i % 2 == 0 {
                    reads.push(r);
                }
            }
            proptest::prop_assert_eq!(count_kmers(&reads, k, m), exact_then_retain(&reads, k, m));
        }
    }
}
