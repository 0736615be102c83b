//! Compatibility with chunk rows that store misleading-byte positions as
//! an explicit list (the row format before seeded decoy metadata).
//!
//! `fixtures/legacy_decoys.{snapshot,journal}` were exported by that
//! format's distributor after the operations in [`run_ops`]. Replaying the
//! same operations today leaves the same provider objects (seeded
//! injection is byte-identical to the list-based one), so the legacy
//! tables must import, recover and read back over them unchanged.

use fragcloud_core::mislead::Decoys;
use fragcloud_core::{
    persist, recover, ChunkSizeSchedule, CloudDataDistributor, CostLevel, DistributorConfig,
    Journal, PrivacyLevel, PutOptions, Session,
};
use fragcloud_sim::{CloudProvider, ProviderProfile};
use std::sync::Arc;

const LEGACY_SNAPSHOT: &str = include_str!("fixtures/legacy_decoys.snapshot");
const LEGACY_JOURNAL: &str = include_str!("fixtures/legacy_decoys.journal");

fn fleet() -> Vec<Arc<CloudProvider>> {
    (0..6)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i}"),
                PrivacyLevel::High,
                CostLevel::new(1),
            )))
        })
        .collect()
}

fn config() -> DistributorConfig {
    DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::uniform(64),
        stripe_width: 3,
        mislead_rate: 0.05,
        ..Default::default()
    }
}

fn body(n: usize, salt: u8) -> Vec<u8> {
    (0..n).map(|i| (i as u8).wrapping_mul(7) ^ salt).collect()
}

/// The operations behind the fixtures: config-rate and per-file-rate
/// puts, an update (its snapshot keeps the pre-state's decoys), a chunk
/// removal (a tombstone row), a journal compaction, and two puts whose
/// rows are journal deltas over that checkpoint.
fn run_ops(providers: Vec<Arc<CloudProvider>>) -> CloudDataDistributor {
    let d = CloudDataDistributor::new(providers, config());
    let journal = Arc::new(Journal::new());
    d.attach_journal(Arc::clone(&journal));
    d.register_client("c").unwrap();
    d.add_password("c", "p", PrivacyLevel::High).unwrap();
    let s = d.session("c", "p").unwrap();
    s.put_file(
        "a",
        &body(200, 1),
        PrivacyLevel::Moderate,
        PutOptions::default(),
    )
    .unwrap();
    s.put_file(
        "b",
        &body(150, 2),
        PrivacyLevel::Low,
        PutOptions::new().mislead_rate(0.2),
    )
    .unwrap();
    s.update_chunk("a", 1, &[7u8; 64]).unwrap();
    s.remove_chunk("b", 0).unwrap();
    journal.compact(persist::export_state(&d));
    s.put_file(
        "c",
        &body(130, 3),
        PrivacyLevel::Public,
        PutOptions::default(),
    )
    .unwrap();
    s.put_file(
        "d",
        &body(90, 4),
        PrivacyLevel::High,
        PutOptions::new().mislead_rate(0.3),
    )
    .unwrap();
    d
}

fn assert_reads_back(s: &Session) {
    let mut a = body(200, 1);
    a[64..128].fill(7);
    assert_eq!(s.get_file("a").unwrap().data, a);
    assert!(s.get_chunk("b", 0).is_err());
    assert_eq!(s.get_chunk("b", 1).unwrap(), &body(150, 2)[64..128]);
    assert_eq!(s.get_chunk("b", 2).unwrap(), &body(150, 2)[128..]);
    assert_eq!(s.get_file("c").unwrap().data, body(130, 3));
    assert_eq!(s.get_file("d").unwrap().data, body(90, 4));
    s.restore_snapshot("a", 1).unwrap();
    assert_eq!(s.get_file("a").unwrap().data, body(200, 1));
}

#[test]
fn legacy_snapshot_imports_and_reads_back() {
    let providers = fleet();
    drop(run_ops(providers.clone()));
    let d = persist::import_state(LEGACY_SNAPSHOT, providers, config()).unwrap();
    assert_reads_back(&d.session("c", "p").unwrap());
}

#[test]
fn legacy_journal_recovers_and_reads_back() {
    let providers = fleet();
    drop(run_ops(providers.clone()));
    let journal = Arc::new(Journal::parse(LEGACY_JOURNAL).unwrap());
    let (d, report) = recover(journal, providers, config()).unwrap();
    assert_eq!(report.unrecoverable, 0, "{report:?}");
    assert_reads_back(&d.session("c", "p").unwrap());
}

/// Today's export of the same state differs from the legacy one only in
/// the decoy fields, and the seeded ones regenerate the listed positions.
#[test]
fn seeded_rows_regenerate_the_legacy_positions() {
    let seeded = persist::export_state(&run_ops(fleet()));
    let (mut live, mut snapshots) = (0, 0);
    assert_eq!(seeded.lines().count(), LEGACY_SNAPSHOT.lines().count());
    for (new, old) in seeded.lines().zip(LEGACY_SNAPSHOT.lines()) {
        if !new.starts_with("chunk|") {
            assert_eq!(new, old);
            continue;
        }
        let (n, o): (Vec<&str>, Vec<&str>) = (new.split('|').collect(), old.split('|').collect());
        for k in (0..n.len()).filter(|&k| k != 5 && k != 6) {
            assert_eq!(n[k], o[k], "field {k} of {old}");
        }
        let decoys = |row: &[&str], k: usize| row[k].parse::<Decoys>().unwrap();
        // Snapshot field: the row has no snapshot length; counts agree.
        assert_eq!(decoys(&n, 5).len(), decoys(&o, 5).len());
        snapshots += usize::from(!decoys(&n, 5).is_empty());
        if o[11].starts_with("live") {
            let stored: usize = n[7].parse().unwrap();
            assert_eq!(
                decoys(&n, 6).positions(stored),
                decoys(&o, 6).positions(stored)
            );
            assert!(matches!(decoys(&o, 6), Decoys::Listed(_) | Decoys::None));
            live += usize::from(matches!(decoys(&n, 6), Decoys::Seeded { .. }));
        }
    }
    assert!(
        live >= 8 && snapshots == 1,
        "live={live} snapshots={snapshots}"
    );
}
