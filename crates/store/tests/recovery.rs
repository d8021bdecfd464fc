//! Crash-recovery property test: truncate the WAL at an arbitrary byte
//! (simulating power loss mid-write), reopen, and the store must come
//! back to exactly the last revision whose commit record survived —
//! no panics, no partial state, and the torn tail physically removed.

use std::fs::{self, OpenOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use powerplay_sheet::Sheet;
use powerplay_store::DesignStore;
use proptest::prelude::*;

fn fresh_root() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "powerplay-store-recovery-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sheet(step: usize) -> Sheet {
    let mut sheet = Sheet::new("Recovery");
    sheet
        .set_global("vdd", &format!("{}V", 1.0 + step as f64 / 10.0))
        .unwrap();
    sheet.set_global("f", "2MHz").unwrap();
    sheet
        .add_element_row("LUT", "ucb/sram", [("words", "4096"), ("bits", "6")])
        .unwrap();
    sheet
}

proptest! {
    #[test]
    fn torn_wal_recovers_last_committed_revision(saves in 1usize..6, cut_seed in 0u64..10_000) {
        let root = fresh_root();
        let wal_path = root.join("u/wal.log");

        // Commit `saves` revisions, recording the WAL frame boundary
        // after each one. boundaries[i] = log length once revision i is
        // durable (boundaries[0] = 0 = nothing committed).
        let mut boundaries = vec![0u64];
        {
            let store = DesignStore::open(&root).unwrap();
            for i in 1..=saves {
                let rev = store.save("u", "d", std::sync::Arc::new(sheet(i)), Some(i as u64 - 1)).unwrap();
                prop_assert_eq!(rev, i as u64);
                boundaries.push(fs::metadata(&wal_path).unwrap().len());
            }
        }
        let full = *boundaries.last().unwrap();

        // Power fails at an arbitrary point of the last write(s): the
        // log survives only up to `cut` bytes.
        let cut = cut_seed % (full + 1);
        OpenOptions::new().write(true).open(&wal_path).unwrap().set_len(cut).unwrap();

        let survivor = boundaries.iter().rposition(|b| *b <= cut).unwrap() as u64;
        let reopened = DesignStore::open(&root).unwrap();
        prop_assert_eq!(reopened.current_rev("u", "d").unwrap(), survivor);
        if survivor > 0 {
            let (_, loaded) = reopened.load("u", "d").unwrap().unwrap();
            prop_assert_eq!(&*loaded, &sheet(survivor as usize));
        }
        // The torn tail is physically gone...
        prop_assert_eq!(fs::metadata(&wal_path).unwrap().len(), boundaries[survivor as usize]);
        // ...and the log accepts new durable commits, numbered after
        // the last survivor.
        let next = reopened.save("u", "d", std::sync::Arc::new(sheet(9)), Some(survivor)).unwrap();
        prop_assert_eq!(next, survivor + 1);

        let _ = fs::remove_dir_all(&root);
    }
}
