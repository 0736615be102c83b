//! The common set-up every workload shares: an 8-provider fleet, a
//! RAID-6 (4 data + 2 parity) distributor with a journal attached, one
//! registered client, and the seeded file descriptors loaded into it.

use crate::gen::{hash, Content};
use fragcloud_core::{
    ChunkSizeSchedule, CloudDataDistributor, CoreError, DistributorConfig, Journal, PutOptions,
    Session,
};
use fragcloud_raid::RaidLevel;
use fragcloud_sim::{CloudProvider, CostLevel, ObjectStore, PrivacyLevel, ProviderProfile};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The one client every session authenticates as.
pub const CLIENT: &str = "bench";
/// Its password, registered at [`PrivacyLevel::High`].
pub const PASSWORD: &str = "bench-pw";
/// Providers in the fleet.
pub const PROVIDERS: usize = 8;

/// The distributor configuration: defaults (paper chunk sizes, checkpoint
/// every 16 commits, the default placement seed) except RAID-6 over 4 data
/// shards and the workload's mislead rate. The workload seed varies the
/// inputs, never the system: with one placement seed for every run, which
/// shards two failed providers take with them does not change from seed
/// to seed.
pub fn config(mislead_rate: f64) -> DistributorConfig {
    DistributorConfig {
        stripe_width: 4,
        raid_level: RaidLevel::Raid6,
        mislead_rate,
        ..DistributorConfig::default()
    }
}

/// A file the generator created: its name, level, bytes descriptor and
/// the hashes of the whole file and of each chunk the distributor will
/// cut it into.
#[derive(Debug, Clone)]
pub struct FileSpec {
    /// File name (unique per client).
    pub name: String,
    /// Privacy level it is stored at.
    pub pl: PrivacyLevel,
    /// Its bytes.
    pub content: Content,
    /// Hash of the whole file.
    pub hash: u64,
    /// Per chunk serial: (length, hash).
    pub chunks: Vec<(usize, u64)>,
}

impl FileSpec {
    /// Describes `bytes` (the materialized `content`) as file `name`.
    pub fn describe(name: String, pl: PrivacyLevel, content: Content, bytes: &[u8]) -> FileSpec {
        let size = ChunkSizeSchedule::paper_default().size_for(pl);
        let chunks = bytes.chunks(size).map(|c| (c.len(), hash(c))).collect();
        FileSpec {
            name,
            pl,
            content,
            hash: hash(bytes),
            chunks,
        }
    }

    /// Draws a file of `len` bytes named `name`.
    pub fn draw(name: String, pl: PrivacyLevel, seed: u64, len: usize) -> (FileSpec, Vec<u8>) {
        let content = Content { seed, len };
        let bytes = content.bytes();
        (FileSpec::describe(name, pl, content, &bytes), bytes)
    }
}

/// Privacy level number `i % 4`.
pub fn pl_cycle(i: usize) -> PrivacyLevel {
    PrivacyLevel::from_u8((i % 4) as u8).expect("levels 0..=3 exist")
}

/// Provider counters summed over a fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProviderTotals {
    /// Successful puts.
    pub puts: u64,
    /// Successful gets.
    pub gets: u64,
    /// Successful deletes.
    pub deletes: u64,
    /// Requests refused (provider offline).
    pub rejected: u64,
    /// Bytes written.
    pub bytes_in: u64,
    /// Bytes read.
    pub bytes_out: u64,
}

impl ProviderTotals {
    /// Field-wise `self + other`.
    pub fn plus(self, o: ProviderTotals) -> ProviderTotals {
        ProviderTotals {
            puts: self.puts + o.puts,
            gets: self.gets + o.gets,
            deletes: self.deletes + o.deletes,
            rejected: self.rejected + o.rejected,
            bytes_in: self.bytes_in + o.bytes_in,
            bytes_out: self.bytes_out + o.bytes_out,
        }
    }

    /// Field-wise `self - earlier`.
    pub fn since(self, earlier: ProviderTotals) -> ProviderTotals {
        ProviderTotals {
            puts: self.puts - earlier.puts,
            gets: self.gets - earlier.gets,
            deletes: self.deletes - earlier.deletes,
            rejected: self.rejected - earlier.rejected,
            bytes_in: self.bytes_in - earlier.bytes_in,
            bytes_out: self.bytes_out - earlier.bytes_out,
        }
    }
}

/// A fleet, the distributor over it, and its journal.
pub struct Rig {
    /// The distributor under test.
    pub d: CloudDataDistributor,
    /// Its providers (shared with the distributor).
    pub fleet: Vec<Arc<CloudProvider>>,
    /// The attached journal (default no-op sink).
    pub journal: Arc<Journal>,
    /// The configuration the distributor was built with.
    pub config: DistributorConfig,
}

impl Rig {
    /// Builds the fleet (`PrivacyLevel::High`, cost level `i % 4`), the
    /// distributor, attaches a fresh journal and registers the client.
    pub fn new(mislead_rate: f64) -> Result<Rig, CoreError> {
        let fleet: Vec<Arc<CloudProvider>> = (0..PROVIDERS)
            .map(|i| {
                Arc::new(CloudProvider::new(ProviderProfile::new(
                    format!("cp{i:02}"),
                    PrivacyLevel::High,
                    CostLevel::new((i % 4) as u8),
                )))
            })
            .collect();
        let config = config(mislead_rate);
        let d = CloudDataDistributor::try_new(fleet.clone(), config)?;
        let journal = Arc::new(Journal::new());
        d.attach_journal(Arc::clone(&journal));
        d.register_client(CLIENT)?;
        d.add_password(CLIENT, PASSWORD, PrivacyLevel::High)?;
        Ok(Rig {
            d,
            fleet,
            journal,
            config,
        })
    }

    /// A session for the benchmark client.
    pub fn session(&self) -> Result<Session<'_>, CoreError> {
        self.d.session(CLIENT, PASSWORD)
    }

    /// Uploads `files` in order through one session.
    pub fn load(&self, files: &[FileSpec]) -> Result<(), CoreError> {
        let s = self.session()?;
        for f in files {
            s.put_file(&f.name, &f.content.bytes(), f.pl, PutOptions::new())?;
        }
        Ok(())
    }

    /// Bytes held across the fleet, including objects no table references.
    pub fn stored_bytes(&self) -> u64 {
        self.fleet.iter().map(|p| p.bytes_stored()).sum()
    }

    /// Provider counters summed over the fleet.
    pub fn provider_totals(&self) -> ProviderTotals {
        self.fleet.iter().fold(ProviderTotals::default(), |acc, p| {
            let s = p.stats();
            acc.plus(ProviderTotals {
                puts: s.puts.load(Ordering::Relaxed),
                gets: s.gets.load(Ordering::Relaxed),
                deletes: s.deletes.load(Ordering::Relaxed),
                rejected: s.rejected.load(Ordering::Relaxed),
                bytes_in: s.bytes_in.load(Ordering::Relaxed),
                bytes_out: s.bytes_out.load(Ordering::Relaxed),
            })
        })
    }
}
