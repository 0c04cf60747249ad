//! K-mer machinery for the assembler.
//!
//! * [`Kmer`] — a fixed-width (≤ [`MAX_K`]) k-mer packed at 2 bits/base,
//!   with O(words) shift, reverse complement, base-order comparison and
//!   canonicalization (a word-wise code reversal, and an XOR plus
//!   `trailing_zeros` for the first differing base).
//! * [`CanonicalKmerIter`] — the canonical k-mers of a sequence, rolling the
//!   forward k-mer and its reverse complement in step: the k-mer stream
//!   counting, seed indexing, alignment and evaluation all read.
//! * [`hash::murmur64a`] — the MurmurHash2 64-bit hash the SC'21 paper uses
//!   for its warp-local hash tables, implemented from the reference spec.
//!   [`KmerMap`] / [`KmerSet`] key host-side tables with the same hash.
//! * [`ExtCounts`] — the *extension object* of MetaHipMer local assembly:
//!   per-base occurrence counts split into quality tiers, with the
//!   fork/dead-end classification rule used by mer-walks.
//! * [`KmerIter`] — iterator over the k-mers of a sequence as they read
//!   (for oriented tables such as local assembly's).

pub mod ext;
pub mod hash;
pub mod kmer;

pub use ext::{ExtCounts, ExtVerdict, QUAL_TIER_CUTOFF};
pub use hash::{KmerBuildHasher, KmerMap, KmerSet};
pub use kmer::{CanonicalKmerIter, Kmer, KmerIter, MAX_K};
