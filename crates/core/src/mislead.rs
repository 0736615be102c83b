//! Misleading-data injection and stripping.
//!
//! §IV-A / §VII-D: "the Cloud Data Distributor may add misleading data into
//! chunks depending on the demand of clients. The positions of misleading
//! data bytes are also maintained by the distributor and these misleading
//! bytes are removed while providing the chunks to the clients."
//!
//! Injection expands the chunk; a provider (or attacker) that mines the
//! stored bytes sees plausible-looking but false values interleaved with
//! the real ones. Positions refer to offsets **in the stored chunk**, in
//! ascending order, matching the Chunk Table's `M` column.
//!
//! The distributor does not keep the positions themselves: they are the
//! first `count` distinct draws of a seeded generator over the stored
//! length, so [`Decoys::Seeded`] (`seed`, `count`) regenerates them on
//! demand in O(1) metadata. [`Decoys::Listed`] holds an explicit position
//! list and exists so rows written before seeded metadata still parse.

use crate::CoreError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where a stored chunk's misleading bytes sit (the Chunk Table's `M`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Decoys {
    /// No misleading bytes: the stored chunk is the logical chunk.
    #[default]
    None,
    /// `count` positions regenerated from `seed` over the stored length.
    Seeded {
        /// Seed of the injection's position draws.
        seed: u64,
        /// Number of misleading bytes.
        count: usize,
    },
    /// Explicit ascending positions (legacy rows only).
    Listed(Vec<usize>),
}

impl Decoys {
    /// Number of misleading bytes.
    pub fn len(&self) -> usize {
        match self {
            Decoys::None => 0,
            Decoys::Seeded { count, .. } => *count,
            Decoys::Listed(p) => p.len(),
        }
    }

    /// True when the stored chunk carries no misleading bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks that the metadata describes a stored chunk of `stored_len`
    /// bytes: fewer decoys than bytes, listed positions strictly ascending
    /// and in range. Returns what is wrong otherwise.
    pub fn check(&self, stored_len: usize) -> std::result::Result<(), String> {
        match self {
            Decoys::None => Ok(()),
            Decoys::Seeded { count, .. } if *count >= stored_len => Err(format!(
                "{count} misleading bytes in a {stored_len}-byte stored chunk"
            )),
            Decoys::Seeded { .. } => Ok(()),
            Decoys::Listed(p) => {
                check_ascending(p)?;
                match p.last() {
                    Some(&last) if last >= stored_len => Err(format!(
                        "misleading position {last} out of bounds of {stored_len} stored bytes"
                    )),
                    _ => Ok(()),
                }
            }
        }
    }

    /// The ascending stored-chunk offsets of the misleading bytes in a
    /// stored chunk of `stored_len` bytes, or [`CoreError::CorruptState`]
    /// when [`Decoys::check`] rejects `stored_len`.
    pub fn positions(&self, stored_len: usize) -> crate::Result<Vec<usize>> {
        self.check(stored_len).map_err(corrupt)?;
        Ok(match self {
            Decoys::None => Vec::new(),
            Decoys::Seeded { seed, count } => {
                set_bits(&regenerate(*seed, *count, stored_len)).collect()
            }
            Decoys::Listed(p) => p.clone(),
        })
    }
}

/// Metadata that does not fit its chunk, as the persisted-state error.
pub(crate) fn corrupt(why: String) -> CoreError {
    CoreError::CorruptState { line: 0, why }
}

/// Row form (the persisted `M` field): empty, `s<seed>:<count>`, or a
/// `,`-joined legacy position list.
impl std::fmt::Display for Decoys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Decoys::None => Ok(()),
            Decoys::Seeded { seed, count } => write!(f, "s{seed}:{count}"),
            Decoys::Listed(p) => {
                for (k, pos) in p.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{pos}")?;
                }
                Ok(())
            }
        }
    }
}

/// Parses the row form written by `Display`. A legacy list must be
/// strictly ascending; lengths are checked by [`Decoys::check`].
impl std::str::FromStr for Decoys {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        if s.is_empty() {
            return Ok(Decoys::None);
        }
        if let Some(rest) = s.strip_prefix('s') {
            let (seed, count) = rest
                .split_once(':')
                .and_then(|(s, c)| Some((s.parse().ok()?, c.parse().ok()?)))
                .ok_or_else(|| format!("bad seeded decoys {s:?}"))?;
            return Ok(match count {
                0 => Decoys::None,
                count => Decoys::Seeded { seed, count },
            });
        }
        let p = s
            .split(',')
            .map(|x| x.parse())
            .collect::<std::result::Result<Vec<usize>, _>>()
            .map_err(|_| format!("bad decoy position list {s:?}"))?;
        check_ascending(&p)?;
        Ok(Decoys::Listed(p))
    }
}

fn check_ascending(p: &[usize]) -> std::result::Result<(), String> {
    if p.windows(2).all(|w| w[0] < w[1]) {
        Ok(())
    } else {
        Err("misleading positions must be strictly ascending".to_string())
    }
}

/// Draws `count` distinct positions in `0..stored_len` into a bitset, in
/// the order the generator yields them (duplicates are redrawn).
fn draw_gaps(rng: &mut StdRng, count: usize, stored_len: usize) -> Vec<u64> {
    let mut bits = vec![0u64; stored_len.div_ceil(64)];
    let mut placed = 0;
    while placed < count {
        let p = rng.gen_range(0..stored_len);
        let (word, bit) = (p / 64, 1u64 << (p % 64));
        if bits[word] & bit == 0 {
            bits[word] |= bit;
            placed += 1;
        }
    }
    bits
}

/// The bitset of a seeded injection's positions.
fn regenerate(seed: u64, count: usize, stored_len: usize) -> Vec<u64> {
    draw_gaps(&mut StdRng::seed_from_u64(seed), count, stored_len)
}

/// Ascending indices of the set bits.
fn set_bits(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

/// Injects `⌈rate · len⌉` misleading bytes at pseudo-random positions.
///
/// Returns the expanded chunk plus its [`Decoys`] metadata (seeded, so
/// the positions are regenerated rather than stored). Injected byte values
/// mimic the local byte distribution (they copy a random nearby real byte,
/// perturbed), so they don't stand out statistically.
///
/// # Panics
/// Panics when `rate` is not in `[0, 0.5)`.
pub fn inject(chunk: &[u8], rate: f64, seed: u64) -> (Vec<u8>, Decoys) {
    assert!(
        (0.0..0.5).contains(&rate),
        "mislead rate must be in [0, 0.5)"
    );
    if rate == 0.0 || chunk.is_empty() {
        return (chunk.to_vec(), Decoys::None);
    }
    let n_inject = ((chunk.len() as f64 * rate).ceil() as usize).max(1);
    let out_len = chunk.len() + n_inject;
    let mut rng = StdRng::seed_from_u64(seed);

    // Choose distinct positions in the *output* index space.
    let gaps = draw_gaps(&mut rng, n_inject, out_len);

    // Splice real-byte runs around the injected positions. For the k-th
    // (0-based) injected position p, the output prefix `..p` holds k
    // earlier injected bytes, so exactly `p - k` real bytes precede it —
    // copying run-by-run needs no per-byte bookkeeping and cannot run
    // out of source bytes.
    let mut out = Vec::with_capacity(out_len);
    let mut copied = 0usize;
    for (k, p) in set_bits(&gaps).enumerate() {
        let run_end = p - k;
        out.extend_from_slice(&chunk[copied..run_end]);
        copied = run_end;
        // A misleading byte: a perturbed copy of a random real byte.
        let base = chunk[rng.gen_range(0..chunk.len())];
        out.push(base.wrapping_add(rng.gen_range(1..=32)));
    }
    out.extend_from_slice(&chunk[copied..]);
    debug_assert_eq!(out.len(), out_len);
    (
        out,
        Decoys::Seeded {
            seed,
            count: n_inject,
        },
    )
}

/// The rate that re-injects `count` decoys into a chunk of `logical_len`
/// bytes: the chunk's own decoy density, half a decoy low so that
/// `⌈rate · logical_len⌉` lands back on `count` despite rounding, and
/// kept inside [`inject`]'s `[0, 0.5)`.
pub fn density(count: usize, logical_len: usize) -> f64 {
    if count == 0 || logical_len == 0 {
        return 0.0;
    }
    ((count as f64 - 0.5) / logical_len as f64).min(0.5 - f64::EPSILON)
}

/// Removes the misleading bytes described by `decoys`, restoring the
/// original chunk.
///
/// # Panics
/// Panics when `decoys` does not fit `stored` (see [`try_strip`]).
pub fn strip(stored: &[u8], decoys: &Decoys) -> Vec<u8> {
    let fits = decoys.check(stored.len());
    assert!(fits.is_ok(), "{fits:?}");
    strip_fitting(stored, decoys)
}

/// [`strip`], reporting metadata that does not fit `stored` (see
/// [`Decoys::check`]) as [`CoreError::CorruptState`] instead of panicking.
pub fn try_strip(stored: &[u8], decoys: &Decoys) -> crate::Result<Vec<u8>> {
    decoys.check(stored.len()).map_err(corrupt)?;
    Ok(strip_fitting(stored, decoys))
}

/// [`strip`] for metadata that [`Decoys::check`] accepted.
fn strip_fitting(stored: &[u8], decoys: &Decoys) -> Vec<u8> {
    match decoys {
        Decoys::None => stored.to_vec(),
        Decoys::Seeded { seed, count } => splice_out(
            stored,
            *count,
            set_bits(&regenerate(*seed, *count, stored.len())),
        ),
        Decoys::Listed(p) => splice_out(stored, p.len(), p.iter().copied()),
    }
}

/// Copies the runs of `stored` between the ascending `gaps`.
fn splice_out(stored: &[u8], count: usize, gaps: impl Iterator<Item = usize>) -> Vec<u8> {
    let mut out = Vec::with_capacity(stored.len() - count);
    let mut from = 0usize;
    for p in gaps {
        out.extend_from_slice(&stored[from..p]);
        from = p + 1;
    }
    out.extend_from_slice(&stored[from..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The position-list injection that predates seeded metadata, kept
    /// verbatim as the reference the seeded one must reproduce byte for
    /// byte.
    fn reference_inject(chunk: &[u8], rate: f64, seed: u64) -> (Vec<u8>, Vec<usize>) {
        if rate == 0.0 || chunk.is_empty() {
            return (chunk.to_vec(), Vec::new());
        }
        let n_inject = ((chunk.len() as f64 * rate).ceil() as usize).max(1);
        let out_len = chunk.len() + n_inject;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < n_inject {
            positions.insert(rng.gen_range(0..out_len));
        }
        let positions: Vec<usize> = positions.into_iter().collect();
        let mut out = Vec::with_capacity(out_len);
        let mut copied = 0usize;
        for (k, &p) in positions.iter().enumerate() {
            let run_end = p - k;
            out.extend_from_slice(&chunk[copied..run_end]);
            copied = run_end;
            let base = chunk[rng.gen_range(0..chunk.len())];
            out.push(base.wrapping_add(rng.gen_range(1..=32)));
        }
        out.extend_from_slice(&chunk[copied..]);
        (out, positions)
    }

    proptest! {
        /// Seeded injection is byte-identical to the reference, its
        /// regenerated positions are the reference's list, and strip
        /// inverts it under both the seeded and the listed metadata.
        #[test]
        fn seeded_inject_matches_reference(
            len in 0usize..3000,
            rate in 0.0f64..0.49,
            seed in any::<u64>(),
        ) {
            let data: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(131) ^ (i >> 3)) as u8).collect();
            let (stored, decoys) = inject(&data, rate, seed);
            let (want, want_pos) = reference_inject(&data, rate, seed);
            prop_assert_eq!(&stored, &want);
            prop_assert_eq!(decoys.len(), want_pos.len());
            prop_assert_eq!(decoys.positions(stored.len()), Ok(want_pos.clone()));
            prop_assert_eq!(strip(&stored, &decoys), data.clone());
            prop_assert_eq!(strip(&stored, &Decoys::Listed(want_pos)), data);
        }
    }

    #[test]
    fn zero_rate_is_identity() {
        let data = vec![1u8, 2, 3];
        let (out, pos) = inject(&data, 0.0, 1);
        assert_eq!(out, data);
        assert!(pos.is_empty());
        assert_eq!(pos, Decoys::None);
        assert_eq!(strip(&out, &pos), data);
    }

    #[test]
    fn inject_strip_roundtrip() {
        for n in [1usize, 2, 10, 100, 1000] {
            let data: Vec<u8> = (0..n).map(|i| (i * 31) as u8).collect();
            for rate in [0.01, 0.05, 0.2, 0.49] {
                let (stored, pos) = inject(&data, rate, n as u64);
                assert_eq!(strip(&stored, &pos), data, "n={n} rate={rate}");
                assert_eq!(stored.len(), data.len() + pos.len());
            }
        }
    }

    #[test]
    fn injection_count_matches_rate() {
        let data = vec![0u8; 1000];
        let (_, pos) = inject(&data, 0.1, 7);
        assert_eq!(pos.len(), 100);
        assert_eq!(
            pos,
            Decoys::Seeded {
                seed: 7,
                count: 100
            }
        );
        let (_, pos) = inject(&data, 0.001, 7);
        assert_eq!(pos.len(), 1);
    }

    #[test]
    fn positions_sorted_unique_in_bounds() {
        let data: Vec<u8> = (0..500).map(|i| i as u8).collect();
        let (stored, decoys) = inject(&data, 0.3, 42);
        let pos = decoys.positions(stored.len()).unwrap();
        assert_eq!(pos.len(), decoys.len());
        for w in pos.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(*pos.last().unwrap() < stored.len());
    }

    #[test]
    fn deterministic_for_seed() {
        let data = vec![9u8; 64];
        let a = inject(&data, 0.2, 5);
        let b = inject(&data, 0.2, 5);
        assert_eq!(a, b);
        let c = inject(&data, 0.2, 6);
        assert_ne!(a.1.positions(a.0.len()), c.1.positions(c.0.len()));
        assert!(a.1.positions(a.0.len()).is_ok());
    }

    #[test]
    fn empty_chunk_safe() {
        let (out, pos) = inject(&[], 0.2, 1);
        assert!(out.is_empty());
        assert!(pos.is_empty());
        assert!(strip(&[], &Decoys::None).is_empty());
    }

    #[test]
    #[should_panic(expected = "rate must be")]
    fn excessive_rate_panics() {
        inject(&[1, 2, 3], 0.8, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn strip_out_of_bounds_panics() {
        strip(&[1, 2], &Decoys::Listed(vec![5]));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn strip_unsorted_panics() {
        strip(&[1, 2, 3], &Decoys::Listed(vec![1, 0]));
    }

    #[test]
    fn bad_metadata_is_a_typed_error() {
        // A seeded count that leaves no real byte would never finish
        // drawing distinct positions; it is refused up front.
        let full = Decoys::Seeded { seed: 1, count: 3 };
        assert!(matches!(
            try_strip(&[1, 2, 3], &full),
            Err(CoreError::CorruptState { .. })
        ));
        assert!(try_strip(&[1, 2], &Decoys::Listed(vec![2])).is_err());
        assert!(try_strip(&[1, 2, 3], &Decoys::Listed(vec![2, 2])).is_err());
        assert!(full.positions(3).is_err());
    }

    #[test]
    fn row_form_roundtrips() {
        for d in [
            Decoys::None,
            Decoys::Seeded {
                seed: u64::MAX,
                count: 84,
            },
            Decoys::Listed(vec![0, 3, 9]),
        ] {
            assert_eq!(d.to_string().parse::<Decoys>(), Ok(d));
        }
        assert_eq!("s5:0".parse::<Decoys>(), Ok(Decoys::None));
        for bad in ["s5", "s:1", "sx:1", "3,1", "1,,2", "-1", "1,1"] {
            assert!(bad.parse::<Decoys>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn density_reinjects_the_same_count() {
        for len in [1usize, 2, 3, 7, 64, 71, 101, 4096, 262_144] {
            for rate in [0.001, 0.01, 0.08, 0.1, 0.3, 0.49] {
                let data = vec![7u8; len];
                let (_, d) = inject(&data, rate, 3);
                let again = density(d.len(), len);
                assert!((0.0..0.5).contains(&again));
                let (_, d2) = inject(&data, again, 4);
                assert_eq!(d2.len(), d.len(), "len={len} rate={rate}");
            }
        }
        assert_eq!(density(0, 10), 0.0);
    }

    #[test]
    fn misleading_bytes_resemble_real_distribution() {
        // Injected bytes are perturbed copies of real bytes, so the stored
        // chunk should not contain byte values wildly outside the data's
        // range for a narrow-range input.
        let data = vec![100u8; 200];
        let (stored, decoys) = inject(&data, 0.1, 3);
        for p in decoys.positions(stored.len()).unwrap() {
            let v = stored[p];
            assert!((101..=132).contains(&v), "injected byte {v} out of family");
        }
    }
}
