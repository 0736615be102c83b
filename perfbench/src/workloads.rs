//! The four workloads' generators, set-up and post-phase checks.
//!
//! | name | timed phase | why |
//! |---|---|---|
//! | `ingest` | fresh uploads, 64 KiB–1 MiB, PL 0→3, mislead 0.08 | the whole write path |
//! | `serve` | 50 % `get_file` / 50 % `get_chunk` over the preload, mislead 0.08 | the read path only |
//! | `churn` | updates, restores, chunk reads, small puts, removals, mislead 0 | mutation and durability paths |
//! | `degraded` | `get_file` with two providers offline, then outage → repair cycles | decode, retries, repair |

use crate::gen::{derive, hash, Rng};
use crate::harness::{Class, Client, Ctx, Harness, Limit, Log, CLIENTS};
use crate::rig::{pl_cycle, FileSpec, ProviderTotals, Rig};
use fragcloud_core::{
    recover_with, CloudDataDistributor, Journal, PutOptions, RecoveryReport, Session,
    TelemetryHandle,
};
use fragcloud_telemetry::clock;
use std::sync::Arc;

/// The workloads, by the names later changes refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Put-only uploads of fresh files.
    Ingest,
    /// Read-only traffic on a healthy fleet.
    Serve,
    /// Mixed mutations beside chunk reads, then journal recovery.
    Churn,
    /// Reads with two providers offline, then outage → repair cycles.
    Degraded,
}

impl Workload {
    /// The workloads `BENCHMARK.json` registers. `churn` runs from the
    /// command line and in the self-test but is not registered: over ten
    /// seeds its timing metrics spread by up to 24 % of their median on
    /// this 2-core sandbox, too close to the largest bound a registered
    /// metric may carry (25 %).
    pub const REGISTERED: [Workload; 3] = [Workload::Ingest, Workload::Serve, Workload::Degraded];

    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::Serve,
        Workload::Churn,
        Workload::Degraded,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Serve => "serve",
            Workload::Churn => "churn",
            Workload::Degraded => "degraded",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Misleading-byte rate the distributor runs with.
    pub fn mislead_rate(self) -> f64 {
        match self {
            Workload::Ingest | Workload::Serve => 0.08,
            Workload::Churn | Workload::Degraded => 0.0,
        }
    }

    /// The op class whose latency the end-to-end p50 and tail report.
    pub fn primary(self) -> Class {
        match self {
            Workload::Ingest => Class::Put,
            Workload::Serve | Workload::Degraded => Class::GetFile,
            Workload::Churn => Class::Mutate,
        }
    }
}

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::smoke`] keeps
/// every code path at a size a unit test can afford.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Files preloaded by `serve`, `churn` and `degraded`.
    pub preload_files: usize,
    /// Preloaded file sizes, bytes, half-open range.
    pub preload_len: (usize, usize),
    /// `ingest` upload sizes, bytes, half-open range.
    pub ingest_len: (usize, usize),
    /// `ingest` uploads per client before the distributor is rebuilt.
    pub epoch_puts: u64,
    /// `churn` requests per client before the distributor is rebuilt.
    pub churn_epoch_ops: u64,
    /// `ingest` warm-up file size, bytes (one file per privacy level).
    pub warm_len: usize,
    /// `churn` small-upload sizes, bytes, half-open range.
    pub small_len: (usize, usize),
    /// `degraded` outage → repair cycles.
    pub repair_cycles: usize,
    /// Timed `recover` calls per run: at least this many...
    pub recover_runs: usize,
    /// ...and more until this many seconds have passed, so a short
    /// recovery is sampled across the same stretch of time a long one is.
    pub recover_seconds: f64,
    /// Input bytes the layer replay pushes through.
    pub replay_bytes: u64,
    /// Set-ups per run (the reported set-up time is their median).
    pub setups: usize,
}

impl Scale {
    /// The benchmark's sizes: ~64 MiB preloads over 512 files, 64 KiB–1 MiB
    /// uploads in epochs of ~48 MiB.
    pub fn full() -> Scale {
        Scale {
            preload_files: 512,
            preload_len: (32 << 10, 224 << 10),
            ingest_len: (64 << 10, (1 << 20) + 1),
            epoch_puts: 48,
            churn_epoch_ops: 300,
            warm_len: 1 << 20,
            small_len: (16 << 10, (64 << 10) + 1),
            repair_cycles: 3,
            recover_runs: 3,
            recover_seconds: 1.0,
            replay_bytes: 32 << 20,
            setups: 3,
        }
    }

    /// Test sizes: every path, a few hundred kilobytes.
    pub fn smoke() -> Scale {
        Scale {
            preload_files: 24,
            preload_len: (4 << 10, 40 << 10),
            ingest_len: (8 << 10, 80 << 10),
            epoch_puts: 5,
            churn_epoch_ops: 12,
            warm_len: 8 << 10,
            small_len: (2 << 10, 12 << 10),
            repair_cycles: 2,
            recover_runs: 2,
            recover_seconds: 0.0,
            replay_bytes: 1 << 20,
            setups: 2,
        }
    }
}

/// The prepared system a workload's timed phase runs against.
pub struct Setup {
    /// Fleet, distributor and journal; `None` only while an epoch
    /// workload swaps one epoch's rig for the next, so the two never
    /// coexist in memory.
    rig: Option<Rig>,
    /// Files loaded into every rig.
    files: Vec<FileSpec>,
    /// Providers offline after set-up (`degraded`).
    offline: Vec<usize>,
    /// Whether the rig has not yet served an epoch.
    fresh: bool,
    /// Provider counters of rigs already torn down (earlier epochs).
    retired: ProviderTotals,
    /// The current rig's provider counters right after its load, which
    /// no timed phase is charged for.
    loaded: ProviderTotals,
    /// Telemetry handle installed on every rig built from now on.
    tel: Option<TelemetryHandle>,
}

impl Setup {
    /// The current fleet, distributor and journal.
    pub fn rig(&self) -> &Rig {
        self.rig
            .as_ref()
            .expect("a rig is installed outside an epoch swap")
    }

    /// Provider counters over every rig this set-up has run, leaving out
    /// each rig's load.
    pub fn provider_totals(&self) -> ProviderTotals {
        self.retired
            .plus(self.rig().provider_totals().since(self.loaded))
    }

    /// Installs `tel` on the current rig and on every later one.
    pub fn set_telemetry(&mut self, tel: &TelemetryHandle) {
        self.rig().d.set_telemetry(tel.clone());
        self.tel = Some(tel.clone());
    }
}

/// Draws the preload: `n` files, sizes in `len`, privacy levels cycling
/// 0→3. The shape (sizes and levels) is the same for every seed, so every
/// run stores the same stripes in the same places; the seed draws the
/// contents, and the clients' request streams.
pub fn preload_specs(seed: u64, scale: &Scale) -> Vec<FileSpec> {
    let mut shape = Rng::new(derive(0, 1));
    let mut contents = Rng::new(derive(seed, 1));
    (0..scale.preload_files)
        .map(|i| {
            let len = shape.range(scale.preload_len.0, scale.preload_len.1);
            FileSpec::draw(format!("p{i:04}"), pl_cycle(i), contents.next_u64(), len).0
        })
        .collect()
}

fn warm_specs(seed: u64, scale: &Scale) -> Vec<FileSpec> {
    (0..4)
        .map(|i| {
            FileSpec::draw(
                format!("warm{i}"),
                pl_cycle(i),
                derive(seed, 100 + i as u64),
                scale.warm_len,
            )
            .0
        })
        .collect()
}

/// Builds a workload's system: the rig, then its preload (or, for
/// `ingest`, one warm-up file per privacy level), then `degraded`'s
/// outage. `files` is the preload [`preload_specs`] drew.
pub fn setup(
    w: Workload,
    seed: u64,
    scale: &Scale,
    files: &[FileSpec],
) -> Result<Setup, fragcloud_core::CoreError> {
    let files = match w {
        Workload::Ingest => warm_specs(seed, scale),
        _ => files.to_vec(),
    };
    let (rig, loaded) = loaded_rig(w, &files)?;
    let mut offline = Vec::new();
    if w == Workload::Degraded {
        offline = pick_outage(&rig, &[]);
        for &i in &offline {
            rig.fleet[i].set_online(false);
        }
    }
    Ok(Setup {
        rig: Some(rig),
        files,
        offline,
        fresh: true,
        retired: ProviderTotals::default(),
        loaded,
        tel: None,
    })
}

/// A rig for `w` with `files` loaded, and its provider counters right
/// after the load.
fn loaded_rig(
    w: Workload,
    files: &[FileSpec],
) -> Result<(Rig, ProviderTotals), fragcloud_core::CoreError> {
    let rig = Rig::new(w.mislead_rate())?;
    rig.load(files)?;
    let loaded = rig.provider_totals();
    Ok((rig, loaded))
}

/// The two providers holding the most objects, none of them in `avoid`
/// (ties go to the lower index). Taking down the busiest pair makes every
/// seed's outage hit as many stripes as an outage of two can, rather than
/// letting the seed pick a pair that placement barely uses.
fn pick_outage(rig: &Rig, avoid: &[usize]) -> Vec<usize> {
    let mut by_load: Vec<usize> = (0..rig.fleet.len())
        .filter(|i| !avoid.contains(i))
        .collect();
    by_load.sort_by_key(|&i| (std::cmp::Reverse(rig.fleet[i].chunk_count()), i));
    by_load.truncate(2);
    by_load
}

// ----------------------------------------------------------------------
// Clients
// ----------------------------------------------------------------------

/// `ingest`: uploads fresh files, privacy level cycling 0→3.
pub struct IngestClient {
    id: usize,
    rng: Rng,
    seq: usize,
    len: (usize, usize),
    /// Files uploaded since the rig was last rebuilt.
    epoch_files: Vec<FileSpec>,
    /// Files uploaded since [`Clients::clear_record`] last ran.
    record: Vec<FileSpec>,
}

impl Client for IngestClient {
    fn step(&mut self, s: &Session<'_>, cx: &mut Ctx<'_>) -> bool {
        let len = self.rng.range(self.len.0, self.len.1);
        let name = format!("c{}-f{}", self.id, self.seq);
        let pl = pl_cycle(self.seq);
        self.seq += 1;
        let (spec, bytes) = FileSpec::draw(name, pl, self.rng.next_u64(), len);
        let ok = cx.call(
            Class::Put,
            len,
            || format!("put {}", spec.name),
            || s.put_file(&spec.name, &bytes, pl, PutOptions::new()),
        );
        if ok.is_some() {
            self.epoch_files.push(spec.clone());
            self.record.push(spec);
        }
        true
    }
}

/// `serve` and `degraded`: reads of preloaded files, checked byte for
/// byte; `serve` splits them evenly between whole files and single chunks.
pub struct ReadClient<'a> {
    files: &'a [FileSpec],
    rng: Rng,
    chunk_reads: bool,
}

impl Client for ReadClient<'_> {
    fn step(&mut self, s: &Session<'_>, cx: &mut Ctx<'_>) -> bool {
        let f = &self.files[self.rng.below(self.files.len())];
        if self.chunk_reads && self.rng.below(2) == 0 {
            let serial = self.rng.below(f.chunks.len());
            let (len, h) = f.chunks[serial];
            let what = || format!("get_chunk {}#{serial}", f.name);
            if let Some(b) = cx.call(Class::GetChunk, len, what, || {
                s.get_chunk(&f.name, serial as u32)
            }) {
                cx.check(what, h, &b);
            }
        } else {
            let what = || format!("get_file {}", f.name);
            if let Some(r) = cx.call(Class::GetFile, f.content.len, what, || s.get_file(&f.name)) {
                cx.check(what, f.hash, &r.data);
            }
        }
        true
    }
}

/// A chunk's expected state: current contents and snapshot, each as
/// (length, hash); `cur == None` once removed.
#[derive(Debug, Clone, Copy)]
struct ChunkState {
    cur: Option<(usize, u64)>,
    snap: Option<(usize, u64)>,
}

#[derive(Debug, Clone)]
struct ChurnFile {
    name: String,
    chunks: Vec<ChunkState>,
}

impl ChurnFile {
    fn from_spec(f: &FileSpec) -> ChurnFile {
        ChurnFile {
            name: f.name.clone(),
            chunks: f
                .chunks
                .iter()
                .map(|&c| ChunkState {
                    cur: Some(c),
                    snap: None,
                })
                .collect(),
        }
    }

    fn live(&self) -> Vec<usize> {
        (0..self.chunks.len())
            .filter(|&i| self.chunks[i].cur.is_some())
            .collect()
    }
}

/// `churn`: one client's share of the preload plus the files it creates;
/// the generator tracks every chunk's expected contents so each request
/// it issues is valid and each read can be checked.
pub struct ChurnClient {
    id: usize,
    rng: Rng,
    files: Vec<ChurnFile>,
    next_file: usize,
    small_len: (usize, usize),
}

/// Requests per hundred, by kind: update, chunk read, restore, small put,
/// chunk removal, file removal.
const CHURN_MIX: [usize; 6] = [40, 30, 10, 10, 5, 5];

/// `churn` never removes a client's last few files.
const CHURN_MIN_FILES: usize = 4;

/// Client `id`'s share of the preload: every `CLIENTS`-th file, so the two
/// clients never race on one file and each can track its own state.
fn churn_share(files: &[FileSpec], id: usize) -> Vec<ChurnFile> {
    files
        .iter()
        .skip(id)
        .step_by(CLIENTS)
        .map(ChurnFile::from_spec)
        .collect()
}

impl ChurnClient {
    fn pick_live(&mut self, f: usize) -> usize {
        let live = self.files[f].live();
        live[self.rng.below(live.len())]
    }

    fn update(&mut self, s: &Session<'_>, cx: &mut Ctx<'_>) {
        let f = self.rng.below(self.files.len());
        let c = self.pick_live(f);
        let (len, _) = self.files[f].chunks[c].cur.expect("picked a live chunk");
        let bytes = crate::gen::Content {
            seed: self.rng.next_u64(),
            len,
        }
        .bytes();
        let name = &self.files[f].name;
        if cx
            .call(
                Class::Mutate,
                len,
                || format!("update {name}#{c}"),
                || s.update_chunk(name, c as u32, &bytes),
            )
            .is_some()
        {
            let st = &mut self.files[f].chunks[c];
            st.snap = st.cur;
            st.cur = Some((len, hash(&bytes)));
        }
    }

    fn restore(&mut self, s: &Session<'_>, cx: &mut Ctx<'_>) {
        let cands: Vec<(usize, usize)> = self
            .files
            .iter()
            .enumerate()
            .flat_map(|(fi, f)| {
                f.chunks
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.cur.is_some() && c.snap.is_some())
                    .map(move |(ci, _)| (fi, ci))
            })
            .collect();
        if cands.is_empty() {
            return self.update(s, cx);
        }
        let (f, c) = cands[self.rng.below(cands.len())];
        let name = &self.files[f].name;
        let len = self.files[f].chunks[c].snap.map_or(0, |x| x.0);
        if cx
            .call(
                Class::Mutate,
                len,
                || format!("restore {name}#{c}"),
                || s.restore_snapshot(name, c as u32),
            )
            .is_some()
        {
            let st = &mut self.files[f].chunks[c];
            st.cur = st.snap.take();
        }
    }

    fn read(&mut self, s: &Session<'_>, cx: &mut Ctx<'_>) {
        let f = self.rng.below(self.files.len());
        let c = self.pick_live(f);
        let (len, h) = self.files[f].chunks[c].cur.expect("picked a live chunk");
        let name = &self.files[f].name;
        let what = || format!("get_chunk {name}#{c}");
        if let Some(b) = cx.call(Class::GetChunk, len, what, || s.get_chunk(name, c as u32)) {
            cx.check(what, h, &b);
        }
    }

    fn put(&mut self, s: &Session<'_>, cx: &mut Ctx<'_>) {
        let len = self.rng.range(self.small_len.0, self.small_len.1);
        let pl = pl_cycle(self.rng.below(4));
        let name = format!("c{}-n{}", self.id, self.next_file);
        self.next_file += 1;
        let (spec, bytes) = FileSpec::draw(name, pl, self.rng.next_u64(), len);
        if cx
            .call(
                Class::Mutate,
                len,
                || format!("put {}", spec.name),
                || s.put_file(&spec.name, &bytes, pl, PutOptions::new()),
            )
            .is_some()
        {
            self.files.push(ChurnFile::from_spec(&spec));
        }
    }

    fn remove_chunk(&mut self, s: &Session<'_>, cx: &mut Ctx<'_>) {
        let cands: Vec<usize> = (0..self.files.len())
            .filter(|&f| self.files[f].live().len() >= 2)
            .collect();
        if cands.is_empty() {
            return self.update(s, cx);
        }
        let f = cands[self.rng.below(cands.len())];
        let c = self.pick_live(f);
        let name = &self.files[f].name;
        if cx
            .call(
                Class::Mutate,
                0,
                || format!("remove_chunk {name}#{c}"),
                || s.remove_chunk(name, c as u32),
            )
            .is_some()
        {
            self.files[f].chunks[c] = ChunkState {
                cur: None,
                snap: None,
            };
        }
    }

    fn remove_file(&mut self, s: &Session<'_>, cx: &mut Ctx<'_>) {
        if self.files.len() <= CHURN_MIN_FILES {
            return self.put(s, cx);
        }
        let f = self.rng.below(self.files.len());
        let name = self.files[f].name.clone();
        if cx
            .call(
                Class::Mutate,
                0,
                || format!("remove_file {name}"),
                || s.remove_file(&name),
            )
            .is_some()
        {
            self.files.swap_remove(f);
        }
    }

    /// Reads back every live chunk through `s`, checking each against the
    /// generator's state.
    fn verify(&self, s: &Session<'_>, cx: &mut Ctx<'_>, label: &str) {
        for f in &self.files {
            for (c, st) in f.chunks.iter().enumerate() {
                let Some((_, h)) = st.cur else { continue };
                if let Some(b) = cx.log.untimed(label, s.get_chunk(&f.name, c as u32)) {
                    cx.check(|| format!("{label}: {}#{c}", f.name), h, &b);
                }
            }
        }
    }

    fn live_bytes(&self) -> u64 {
        self.files
            .iter()
            .flat_map(|f| f.chunks.iter().filter_map(|c| c.cur.map(|x| x.0 as u64)))
            .sum()
    }
}

impl Client for ChurnClient {
    fn step(&mut self, s: &Session<'_>, cx: &mut Ctx<'_>) -> bool {
        let mut roll = self.rng.below(100);
        let mut kind = 0;
        while roll >= CHURN_MIX[kind] {
            roll -= CHURN_MIX[kind];
            kind += 1;
        }
        match kind {
            0 => self.update(s, cx),
            1 => self.read(s, cx),
            2 => self.restore(s, cx),
            3 => self.put(s, cx),
            4 => self.remove_chunk(s, cx),
            _ => self.remove_file(s, cx),
        }
        true
    }
}

// ----------------------------------------------------------------------
// Phases
// ----------------------------------------------------------------------

/// How long a timed phase runs: for `seconds` of wall time, or for `ops`
/// requests per client, or until the first of the two.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall seconds.
    pub seconds: Option<f64>,
    /// Requests per client.
    pub ops: Option<u64>,
}

/// The workload's clients, created once per run so their generator state
/// carries across the untraced and traced halves of a traced run.
pub enum Clients<'a> {
    /// `ingest` uploaders.
    Ingest(Vec<IngestClient>),
    /// `serve` / `degraded` readers.
    Read(Vec<ReadClient<'a>>),
    /// `churn` mutators.
    Churn(Vec<ChurnClient>),
}

impl<'a> Clients<'a> {
    /// Creates the clients for `w`, each on its own seed stream.
    pub fn new(w: Workload, seed: u64, scale: &Scale, files: &'a [FileSpec]) -> Clients<'a> {
        let rng = |i: usize| Rng::new(derive(seed, 10 + i as u64));
        match w {
            Workload::Ingest => Clients::Ingest(
                (0..CLIENTS)
                    .map(|i| IngestClient {
                        id: i,
                        rng: rng(i),
                        seq: 0,
                        len: scale.ingest_len,
                        epoch_files: Vec::new(),
                        record: Vec::new(),
                    })
                    .collect(),
            ),
            Workload::Serve | Workload::Degraded => Clients::Read(
                (0..CLIENTS)
                    .map(|i| ReadClient {
                        files,
                        rng: rng(i),
                        chunk_reads: w == Workload::Serve,
                    })
                    .collect(),
            ),
            Workload::Churn => Clients::Churn(
                (0..CLIENTS)
                    .map(|i| ChurnClient {
                        id: i,
                        rng: rng(i),
                        files: churn_share(files, i),
                        next_file: 0,
                        small_len: scale.small_len,
                    })
                    .collect(),
            ),
        }
    }

    /// Runs every client against `d` until `limit`.
    fn run(&mut self, h: &Harness<'_>, d: &CloudDataDistributor, limit: Limit) -> Log {
        match self {
            Clients::Ingest(cs) => h.run(d, cs, limit),
            Clients::Read(cs) => h.run(d, cs, limit),
            Clients::Churn(cs) => h.run(d, cs, limit),
        }
    }

    /// Requests per client in one epoch, for the workloads that run in
    /// epochs.
    fn epoch_ops(&self, scale: &Scale) -> Option<u64> {
        match self {
            Clients::Ingest(_) => Some(scale.epoch_puts),
            Clients::Churn(_) => Some(scale.churn_epoch_ops),
            Clients::Read(_) => None,
        }
    }

    /// Reads back everything `d` should hold — the preload `files` plus
    /// what the clients changed — checking it against the generator's
    /// state.
    fn verify(&self, d: &CloudDataDistributor, files: &[FileSpec], cx: &mut Ctx<'_>, label: &str) {
        let Some(s) = cx.log.untimed(
            "open session",
            d.session(crate::rig::CLIENT, crate::rig::PASSWORD),
        ) else {
            return;
        };
        let uploaded: Vec<&FileSpec> = match self {
            Clients::Churn(cs) => return cs.iter().for_each(|c| c.verify(&s, cx, label)),
            Clients::Ingest(cs) => cs.iter().flat_map(|c| &c.epoch_files).collect(),
            Clients::Read(_) => Vec::new(),
        };
        for f in files.iter().chain(uploaded) {
            if let Some(r) = cx.log.untimed(label, s.get_file(&f.name)) {
                cx.check(|| format!("{label}: {}", f.name), f.hash, &r.data);
            }
        }
    }

    /// Live user bytes the clients expect `rig` to hold.
    fn live_bytes(&self, files: &[FileSpec]) -> u64 {
        let preload: u64 = files.iter().map(|f| f.content.len as u64).sum();
        match self {
            Clients::Ingest(cs) => {
                preload
                    + cs.iter()
                        .flat_map(|c| c.epoch_files.iter())
                        .map(|f| f.content.len as u64)
                        .sum::<u64>()
            }
            Clients::Churn(cs) => cs.iter().map(ChurnClient::live_bytes).sum(),
            Clients::Read(_) => preload,
        }
    }

    /// Forgets the epoch's state: the next epoch starts on a freshly
    /// loaded rig holding `files`.
    fn new_epoch(&mut self, files: &[FileSpec]) {
        match self {
            Clients::Ingest(cs) => cs.iter_mut().for_each(|c| c.epoch_files.clear()),
            Clients::Churn(cs) => cs
                .iter_mut()
                .for_each(|c| c.files = churn_share(files, c.id)),
            Clients::Read(_) => {}
        }
    }

    /// Files uploaded during the current recording window (`ingest`).
    pub fn recorded(&self) -> Vec<FileSpec> {
        match self {
            Clients::Ingest(cs) => cs.iter().flat_map(|c| c.record.iter().cloned()).collect(),
            _ => Vec::new(),
        }
    }

    /// Starts a new recording window.
    pub fn clear_record(&mut self) {
        if let Clients::Ingest(cs) = self {
            cs.iter_mut().for_each(|c| c.record.clear());
        }
    }
}

/// Length of one round of a time-limited phase, seconds.
pub const ROUND_S: f64 = 1.0;

/// A timed phase, as the rounds it ran in, plus the checks made between
/// rounds (epoch read-backs).
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// One log per round.
    pub rounds: Vec<Log>,
    /// Untimed checks made between rounds.
    pub checks: Log,
}

impl Timed {
    /// Every round folded into one log.
    pub fn merged(&self) -> Log {
        let mut all = Log::default();
        for r in &self.rounds {
            all.absorb(r.clone());
        }
        all
    }

    /// Median over the rounds of `f`, skipping rounds where it is
    /// undefined (`None`).
    pub fn round_median(&self, f: impl Fn(&Log) -> Option<f64>) -> f64 {
        let v: Vec<f64> = self.rounds.iter().filter_map(f).collect();
        crate::stats::median(&v)
    }
}

/// Runs one timed phase of `budget` against `setup`.
///
/// The phase runs in rounds so that rates and medians can be reported as
/// the median over rounds, which a stretch of a slow machine moves less
/// than a whole-run figure. `ingest`'s and `churn`'s rounds are their
/// epochs; the read workloads' are [`ROUND_S`] slices of the time budget
/// (a request budget runs as one round).
pub fn phase(
    w: Workload,
    scale: &Scale,
    setup: &mut Setup,
    clients: &mut Clients<'_>,
    h: &Harness<'_>,
    budget: Budget,
) -> Timed {
    let mut out = Timed::default();
    let Some(epoch_ops) = clients.epoch_ops(scale) else {
        let slices = match (budget.ops, budget.seconds) {
            (None, Some(s)) => ((s / ROUND_S).round() as usize).max(1),
            _ => 1,
        };
        for _ in 0..slices {
            let limit = Limit {
                deadline: budget.seconds.map(|s| {
                    clock::monotonic_now() + std::time::Duration::from_secs_f64(s / slices as f64)
                }),
                max_ops: budget.ops,
            };
            out.rounds.push(clients.run(h, &setup.rig().d, limit));
        }
        return out;
    };
    // Epochs: each rig takes a fixed number of requests per client, then
    // is checked and replaced by a freshly loaded one, so the tables (and
    // the checkpoint the journal re-exports) sweep the same sizes in every
    // epoch instead of growing for as long, or as fast, as the run goes.
    // An epoch that starts runs to its end, so the run also ends on the
    // same state however fast the program is. Rebuilds are not timed.
    let mut ops_left = budget.ops;
    let mut active_s = 0.0;
    while !(budget.seconds.is_some_and(|s| active_s >= s) || ops_left == Some(0)) {
        if !setup.fresh {
            let mut cx = h.ctx();
            clients.verify(&setup.rig().d, &setup.files, &mut cx, "epoch read back");
            out.checks.absorb_checks(cx.log);
            setup.retired = setup.provider_totals();
            setup.rig = None;
            // Set-up already built this rig once, so a failure here is a
            // program bug, not a benchmark input.
            let (rig, loaded) = loaded_rig(w, &setup.files).expect("rebuilding the rig failed");
            // Telemetry goes on after the load, so only the epoch's own
            // requests are counted.
            if let Some(t) = &setup.tel {
                rig.d.set_telemetry(t.clone());
            }
            setup.rig = Some(rig);
            setup.loaded = loaded;
            clients.new_epoch(&setup.files);
        }
        setup.fresh = false;
        let quota = ops_left.map_or(epoch_ops, |o| o.min(epoch_ops));
        let epoch = clients.run(
            h,
            &setup.rig().d,
            Limit {
                deadline: None,
                max_ops: Some(quota),
            },
        );
        active_s += epoch.wall_s();
        out.rounds.push(epoch);
        ops_left = ops_left.map(|o| o - quota);
    }
    out
}

/// What the post-phase steps measured.
#[derive(Debug, Default, Clone)]
pub struct Finish {
    /// Checks, drills and `degraded`'s repair calls (latencies under
    /// [`Class::Repair`]): counts, mismatches, errors.
    pub log: Log,
    /// Bytes rebuilt by repair (provider bytes written during repair).
    pub rebuilt_bytes: u64,
    /// Summed repair wall time, seconds.
    pub repair_s: f64,
    /// Wall time of each timed `recover`, milliseconds.
    pub recover_ms: Vec<f64>,
    /// The first recovery's report.
    pub recovery: Option<RecoveryReport>,
    /// Live user bytes at the end.
    pub live_bytes: u64,
    /// Bytes held across the fleet at the end.
    pub stored_bytes: u64,
}

/// The steps after the timed phase: checks every byte the workload can
/// read back, runs `degraded`'s outage → repair cycles, and times
/// `recover` on the final journal (`churn` also reads the recovered
/// distributor back against the generator's state).
pub fn finish(
    w: Workload,
    scale: &Scale,
    setup: &Setup,
    clients: &Clients<'_>,
    h: &Harness<'_>,
    tel: &TelemetryHandle,
) -> Finish {
    let mut out = Finish::default();
    let mut cx = h.ctx();
    let rig = setup.rig();
    out.live_bytes = clients.live_bytes(&setup.files);
    if w == Workload::Degraded {
        degraded_cycles(scale, setup, clients, &mut cx, &mut out);
    } else {
        clients.verify(&rig.d, &setup.files, &mut cx, "read back");
    }
    out.stored_bytes = rig.stored_bytes();

    // Recovery drill: rebuild from the exported journal over the same
    // fleet, as a restarted distributor would, and read the first
    // rebuilt distributor back against the generator's state.
    let text = rig.journal.export();
    let started = clock::monotonic_now();
    for run in 0.. {
        if run >= scale.recover_runs && started.elapsed().as_secs_f64() >= scale.recover_seconds {
            break;
        }
        let Some(j) = cx.log.untimed("parse journal", Journal::parse(&text)) else {
            break;
        };
        let t0 = clock::monotonic_now();
        let r = recover_with(Arc::new(j), rig.fleet.clone(), rig.config, tel);
        out.recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let Some((d, report)) = cx.log.untimed("recover", r) else {
            continue;
        };
        if run == 0 {
            clients.verify(&d, &setup.files, &mut cx, "recovered read back");
            out.recovery = Some(report);
        }
    }
    out.log = cx.log;
    out
}

/// `degraded`'s outage → repair → read-back cycles. The first outage is
/// the one set-up made; each later cycle brings the previous pair back
/// and takes the next two busiest providers down. Every cycle must end
/// with a scrub that finds no missing shard and a byte-identical
/// read-back.
fn degraded_cycles(
    scale: &Scale,
    setup: &Setup,
    clients: &Clients<'_>,
    cx: &mut Ctx<'_>,
    out: &mut Finish,
) {
    let rig = setup.rig();
    let mut offline = setup.offline.clone();
    for cycle in 0..scale.repair_cycles {
        if cycle > 0 {
            offline.iter().for_each(|&i| rig.fleet[i].set_online(true));
            offline = pick_outage(rig, &offline);
            offline.iter().for_each(|&i| rig.fleet[i].set_online(false));
        }
        let before = rig.provider_totals().bytes_in;
        let t0 = clock::monotonic_now();
        let report = cx.call(
            Class::Repair,
            0,
            || format!("repair cycle {cycle}"),
            || rig.d.try_repair(),
        );
        out.repair_s += t0.elapsed().as_secs_f64();
        out.rebuilt_bytes += rig.provider_totals().bytes_in - before;
        if let Some(r) = report {
            if !r.is_complete() {
                cx.log.mismatches.push(format!(
                    "repair cycle {cycle}: stripes {:?} not repaired",
                    r.failed
                ));
            }
        }
        let scrub = rig.d.scrub();
        if scrub.missing_shards != 0 || !scrub.unreadable.is_empty() {
            cx.log.mismatches.push(format!(
                "repair cycle {cycle}: scrub finds {} missing shards, {} unreadable stripes",
                scrub.missing_shards,
                scrub.unreadable.len()
            ));
        }
        clients.verify(&rig.d, &setup.files, cx, "read back after repair");
    }
}
