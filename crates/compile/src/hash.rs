//! The two hashers behind an artifact's identities.
//!
//! The workspace is offline (no serde, no external hashers), so both are
//! hand-rolled, and each has one job:
//!
//! * [`WordHasher`] computes the cache identities — the request key
//!   ([`CompileRequest::key`](crate::CompileRequest::key)) and the
//!   profile-stage memo key.  It is a [`std::hash::Hasher`] fed by the
//!   derived `Hash` impls of the request's types, one 64-bit word per
//!   integer, length or enum discriminant, so a key costs what the words
//!   it covers cost.  The per-word mix is bijective in both the state
//!   and the word, so two word streams that differ in exactly one word
//!   always end in different states; a splitmix64 finisher then spreads
//!   the state over all 64 bits.  Keys name the store's `.psba` files
//!   (`{key:016x}.psba`), so the finisher is kept as it is.  The seed is
//!   fixed (unlike `RandomState`), so a key is the same in every
//!   process built by one toolchain for one target: derived `Hash` writes
//!   `usize` lengths and `isize` discriminants at the target's width, and
//!   the std impls may change between toolchains.  A changed key costs
//!   only store misses — files under the old key are never looked up.
//! * [`DebugHasher`] computes the published content hash
//!   ([`ContentHash`](crate::ContentHash)): FNV-1a streamed over the
//!   values' deterministic `Debug` renderings, with the same finisher.  It
//!   is slow (hundreds of microseconds for a paper-sized artifact) but
//!   frozen: `/run` responses, `repro compile`, `psbsim` and the `.psba`
//!   headers publish its values, so it must keep them.  Every value it
//!   hashes renders from plain scalars, `Vec`s and `BTreeSet`s, so the
//!   rendering is the same on every run, host, thread and `--jobs` count.

use std::fmt::{self, Write};
use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The word hasher's initial state (the fractional digits of pi): any
/// non-zero seed keeps a leading zero word from being a no-op.
const WORD_SEED: u64 = 0x243f_6a88_85a3_08d3;
/// Odd, so multiplying by it is a bijection on `u64`.
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64 finalizer: avalanches the running state so that requests
/// differing only in a late field differ in every bit of the key.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Word-at-a-time hasher for the cache keys.
#[derive(Clone, Debug)]
pub(crate) struct WordHasher {
    state: u64,
}

impl WordHasher {
    /// Mixes one word in.  A rotation, an xor with a fixed operand and a
    /// multiplication by an odd constant are each bijections, so the new
    /// state is a bijection of the word for a fixed old state, and of the
    /// old state for a fixed word.
    #[inline]
    fn word(&mut self, w: u64) {
        self.state = (self.state.rotate_left(5) ^ w).wrapping_mul(WORD_MUL);
    }
}

impl Default for WordHasher {
    fn default() -> WordHasher {
        WordHasher { state: WORD_SEED }
    }
}

impl Hasher for WordHasher {
    /// Raw bytes (string contents, integer slices) go in as little-endian
    /// words, the last one zero-padded, followed by the byte count, so
    /// `"ab"` and `"ab\0"` differ.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(tail));
        }
        self.word(bytes.len() as u64);
    }

    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

/// The [`WordHasher`] digest of one value.
pub(crate) fn word_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = WordHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Streaming FNV-1a hasher usable as a [`fmt::Write`] sink, so arbitrary
/// `Debug` output is hashed without materializing the rendered string.
#[derive(Clone, Debug)]
pub(crate) struct DebugHasher {
    state: u64,
}

impl DebugHasher {
    /// A fresh hasher at the FNV offset basis.
    pub(crate) fn new() -> DebugHasher {
        DebugHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes into the running FNV-1a state.
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes one `Debug`-rendered value followed by a separator byte, so
    /// adjacent fields cannot alias across their boundary.
    pub(crate) fn field(&mut self, value: &dyn fmt::Debug) {
        write!(self, "{value:?}").expect("DebugHasher::write_str is infallible");
        self.write_bytes(&[0x1f]);
    }

    /// The finalized 64-bit digest.
    pub(crate) fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

impl Write for DebugHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn debug_hash(fields: &[&dyn fmt::Debug]) -> u64 {
        let mut h = DebugHasher::new();
        for f in fields {
            h.field(*f);
        }
        h.finish()
    }

    #[test]
    fn same_input_same_digest() {
        let a = debug_hash(&[&1u64, &"x", &vec![1, 2, 3]]);
        let b = debug_hash(&[&1u64, &"x", &vec![1, 2, 3]]);
        assert_eq!(a, b);
        let a = word_hash(&(1u64, "x", vec![1, 2, 3]));
        let b = word_hash(&(1u64, "x", vec![1, 2, 3]));
        assert_eq!(a, b);
    }

    #[test]
    fn field_boundaries_matter() {
        // Without separators, ["ab", "c"] and ["a", "bc"] would collide.
        assert_ne!(debug_hash(&[&"ab", &"c"]), debug_hash(&[&"a", &"bc"]));
        assert_ne!(debug_hash(&[&1u8]), debug_hash(&[&1u8, &1u8]));
        assert_ne!(word_hash(&("ab", "c")), word_hash(&("a", "bc")));
        assert_ne!(word_hash(&[1u8][..]), word_hash(&[1u8, 1u8][..]));
        assert_ne!(
            word_hash(&vec![vec![1u64], vec![]]),
            word_hash(&vec![vec![], vec![1u64]])
        );
    }

    #[test]
    fn digest_is_sensitive_to_every_byte() {
        let base = debug_hash(&[&vec![0u8; 64]]);
        let word_base = word_hash(&vec![0u8; 64]);
        for i in 0..64 {
            let mut v = vec![0u8; 64];
            v[i] = 1;
            assert_ne!(base, debug_hash(&[&v]), "byte {i} ignored");
            assert_ne!(word_base, word_hash(&v), "byte {i} ignored");
        }
    }

    #[test]
    fn raw_bytes_hash_their_length() {
        let mut a = WordHasher::default();
        a.write(b"ab");
        let mut b = WordHasher::default();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn one_differing_word_always_changes_the_digest() {
        // Bijectivity, checked on words that differ in a single bit at
        // every position and in every slot of a 16-word stream.
        let base = [0x0123_4567_89ab_cdefu64; 16];
        let digest = |words: &[u64]| {
            let mut h = WordHasher::default();
            words.iter().for_each(|&w| h.write_u64(w));
            h.finish()
        };
        let reference = digest(&base);
        for slot in 0..base.len() {
            for bit in 0..64 {
                let mut words = base;
                words[slot] ^= 1 << bit;
                assert_ne!(reference, digest(&words), "slot {slot} bit {bit}");
            }
        }
    }
}
