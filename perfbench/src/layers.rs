//! Layer replay: the traced run feeds the workload's own generated inputs
//! through each lower layer's public function, one benchmark span per
//! call, so each layer's throughput is measured where its work happens
//! rather than inferred from the whole operation.

use crate::rig::FileSpec;
use crate::spans::Tracer;
use fragcloud_core::{chunker, integrity, mislead, persist, ChunkSizeSchedule, Journal};
use fragcloud_raid::RsCodec;
use fragcloud_sim::{
    Bytes, CloudProvider, CostLevel, ObjectStore, PrivacyLevel, ProviderProfile, VirtualId,
};

/// Data shards per replayed stripe (the workloads' RAID-6 geometry).
const K: usize = 4;
/// Parity shards per replayed stripe.
const M: usize = 2;

/// Byte counts the replay pushed through each layer. Throughputs divide
/// these by the self time of the matching spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replayed {
    /// File bytes split into chunks.
    pub split_bytes: u64,
    /// Chunks the split produced.
    pub chunks: u64,
    /// Bytes of chunks that received at least one decoy byte.
    pub inject_bytes: u64,
    /// Decoy positions injected.
    pub positions: u64,
    /// Stored bytes stripped of decoys.
    pub strip_bytes: u64,
    /// Payload bytes framed (and unframed).
    pub frame_bytes: u64,
    /// Framed bytes put to (and read back from) the scratch provider.
    pub provider_bytes: u64,
    /// Data bytes of the stripes encoded.
    pub encode_bytes: u64,
    /// Data bytes of the stripes rebuilt after two erasures.
    pub reconstruct_bytes: u64,
    /// Replay calls whose output differed from what the layer must return.
    pub errors: u64,
}

/// Replays `files` through chunker → mislead → frame → provider put/get →
/// unframe → strip, and RS(4,2) encode (plus two-erasure reconstruct when
/// `reconstruct` is set) over each file's stripes.
pub fn replay(
    tracer: &Tracer,
    files: &[FileSpec],
    mislead_rate: f64,
    reconstruct: bool,
) -> Replayed {
    let schedule = ChunkSizeSchedule::paper_default();
    let scratch = CloudProvider::new(ProviderProfile::new(
        "scratch",
        PrivacyLevel::High,
        CostLevel::new(0),
    ));
    let mut r = Replayed::default();
    let mut vid = 0u64;
    for (op, f) in files.iter().enumerate() {
        let op = op as u64;
        let root = tracer.open("replay", None, op);
        let parent = root.as_ref().map(|o| o.id());
        let data = Bytes::from(f.content.bytes());
        r.split_bytes += data.len() as u64;
        let chunks = tracer.span("chunker.split_shared", parent, op, || {
            chunker::split_shared(&data, f.pl, &schedule)
        });
        r.chunks += chunks.len() as u64;
        let mut stored_chunks = Vec::with_capacity(chunks.len());
        for c in &chunks {
            vid += 1;
            let v = VirtualId(vid);
            let (stored, positions) = tracer.span("mislead.inject", parent, op, || {
                mislead::inject(c, mislead_rate, vid)
            });
            if !positions.is_empty() {
                r.inject_bytes += c.len() as u64;
                r.positions += positions.len() as u64;
            }
            let framed = tracer.span("integrity.frame", parent, op, || {
                integrity::frame(v, &stored)
            });
            r.frame_bytes += stored.len() as u64;
            r.provider_bytes += framed.len() as u64;
            let put = tracer.span("provider.put", parent, op, || scratch.put(v, framed));
            let got = tracer.span("provider.get", parent, op, || scratch.get(v));
            let _ = scratch.delete(v);
            let Some(got) = put.ok().and(got.ok()) else {
                r.errors += 1;
                continue;
            };
            let payload = tracer.span("integrity.unframe", parent, op, || {
                integrity::unframe_expecting(v, got, stored.len())
            });
            let Ok((payload, _)) = payload else {
                r.errors += 1;
                continue;
            };
            if !positions.is_empty() {
                let logical = tracer.span("mislead.strip", parent, op, || {
                    mislead::strip(&payload, &positions)
                });
                r.strip_bytes += payload.len() as u64;
                if logical[..] != c[..] {
                    r.errors += 1;
                }
            }
            stored_chunks.push(stored);
        }
        for group in stored_chunks.chunks(K) {
            replay_stripe(tracer, parent, op, group, reconstruct, &mut r);
        }
        tracer.close(root);
    }
    r
}

/// Encodes one stripe (data shards zero-padded to the widest, as the
/// distributor pads them) and, when asked, rebuilds it from the last
/// `k - 2` data shards plus both parity shards.
fn replay_stripe(
    tracer: &Tracer,
    parent: Option<u64>,
    op: u64,
    group: &[Vec<u8>],
    reconstruct: bool,
    r: &mut Replayed,
) {
    let width = group.iter().map(Vec::len).max().unwrap_or(0);
    let Ok(codec) = RsCodec::new(group.len(), M) else {
        r.errors += 1;
        return;
    };
    let padded: Vec<Vec<u8>> = group
        .iter()
        .map(|s| {
            let mut p = s.clone();
            p.resize(width, 0);
            p
        })
        .collect();
    let refs: Vec<&[u8]> = padded.iter().map(Vec::as_slice).collect();
    let Ok(parity) = tracer.span("raid.encode", parent, op, || codec.parity(&refs)) else {
        r.errors += 1;
        return;
    };
    let stripe_bytes = (width * group.len()) as u64;
    r.encode_bytes += stripe_bytes;
    if !reconstruct {
        return;
    }
    // Two erasures: lose the first two members (data, or parity when the
    // stripe has fewer than two data shards).
    let k = group.len();
    let mut survivors: Vec<(usize, &[u8])> = Vec::with_capacity(k);
    survivors.extend((0..k).map(|i| (i, refs[i])));
    survivors.extend(
        parity
            .iter()
            .enumerate()
            .map(|(i, p)| (k + i, p.as_slice())),
    );
    let survivors = &survivors[2..];
    match tracer.span("raid.reconstruct", parent, op, || {
        codec.reconstruct(survivors)
    }) {
        Ok(rebuilt) if rebuilt == padded => r.reconstruct_bytes += stripe_bytes,
        _ => r.errors += 1,
    }
}

/// Times `Journal::export` and `Journal::parse` on `journal`, and
/// `persist::export_state` on the distributor, each `runs` times inside
/// its own span. Returns (journal text length, checkpoint length, state
/// snapshot length) and counts failed parses into `errors`.
pub fn replay_state(
    tracer: &Tracer,
    d: &fragcloud_core::CloudDataDistributor,
    journal: &Journal,
    runs: usize,
    errors: &mut u64,
) -> (usize, usize, usize) {
    let mut sizes = (0, journal.checkpoint().len(), 0);
    for op in 0..runs as u64 {
        let text = tracer.span("journal.export", None, op, || journal.export());
        sizes.0 = text.len();
        if tracer
            .span("journal.parse", None, op, || Journal::parse(&text))
            .is_err()
        {
            *errors += 1;
        }
        sizes.2 = tracer
            .span("persist.export_state", None, op, || {
                persist::export_state(d)
            })
            .len();
    }
    sizes
}
