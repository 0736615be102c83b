//! Seeded input generation and content hashing.
//!
//! Every input the benchmark feeds the distributor is derived from the
//! workload seed through [`Rng`], and every file or chunk is described by
//! a [`Content`] — a (seed, length) pair whose bytes can be rebuilt at any
//! time. The generator keeps only descriptors and expected hashes, never
//! the bytes themselves, so a 64 MiB working set costs kilobytes of
//! bookkeeping.

/// SplitMix64: tiny, fast and seedable; the benchmark's only RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng::below needs a non-empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }
}

/// A seed for sub-stream `stream` of `seed`, so each client and each phase
/// draws from its own independent sequence.
pub fn derive(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream.wrapping_add(0xA076_1D64_78BD_642F)))
}

/// SplitMix64's output finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bytes reproducible from a seed and a length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Content {
    /// Seed of the byte stream.
    pub seed: u64,
    /// Length in bytes.
    pub len: usize,
}

impl Content {
    /// Materializes the bytes.
    pub fn bytes(&self) -> Vec<u8> {
        let mut rng = Rng::new(self.seed);
        let mut out = Vec::with_capacity(self.len + 8);
        while out.len() < self.len {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        out.truncate(self.len);
        out
    }
}

/// 64-bit content hash used to check every byte the distributor returns.
/// Not cryptographic: it only has to make an accidental match of wrong
/// bytes vanishingly unlikely. Four independent lanes keep it several
/// times faster than the reads it checks, so checking does not throttle
/// the closed loop.
pub fn hash(data: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [
        0x243F_6A88_85A3_08D3,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let word = |b: &[u8]| {
        let mut w = [0u8; 8];
        w[..b.len()].copy_from_slice(b);
        u64::from_le_bytes(w)
    };
    let mut blocks = data.chunks_exact(32);
    for b in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = ((*lane ^ word(&b[i * 8..i * 8 + 8])).wrapping_mul(K)).rotate_left(29);
        }
    }
    for (i, w) in blocks.remainder().chunks(8).enumerate() {
        lanes[i] = ((lanes[i] ^ word(w)).wrapping_mul(K)).rotate_left(29);
    }
    lanes.iter().fold(data.len() as u64, |h, &l| mix(h ^ l))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_is_reproducible_and_exact_length() {
        let c = Content { seed: 7, len: 1001 };
        assert_eq!(c.bytes(), c.bytes());
        assert_eq!(c.bytes().len(), 1001);
        assert_ne!(c.bytes(), Content { seed: 8, len: 1001 }.bytes());
    }

    #[test]
    fn hash_sees_every_byte_and_the_length() {
        let mut b = Content { seed: 1, len: 77 }.bytes();
        let h = hash(&b);
        b[76] ^= 1;
        assert_ne!(hash(&b), h);
        assert_ne!(hash(&b[..76]), hash(&b));
        assert_ne!(hash(&[]), hash(&[0]));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(3);
        assert!((0..1000).all(|_| r.below(5) < 5));
        assert!((0..1000).all(|_| (10..12).contains(&r.range(10, 12))));
    }
}
