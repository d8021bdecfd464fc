//! Concurrent-writer guarantees: optimistic concurrency means racing
//! saves on one design serialize into a dense revision sequence with
//! exactly one winner per revision and no lost updates.

use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use powerplay_sheet::Sheet;
use powerplay_store::{DesignStore, StoreError};

fn fresh_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("powerplay-store-conc-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sheet(thread: usize, step: usize) -> Sheet {
    let mut sheet = Sheet::new("Race");
    sheet.set_global("vdd", "1.5V").unwrap();
    sheet
        .set_global("f", &format!("{}MHz", 1 + thread * 100 + step))
        .unwrap();
    sheet
}

#[test]
fn racing_writers_win_exactly_once_per_revision() {
    const THREADS: usize = 8;
    const SAVES_PER_THREAD: usize = 10;

    let store = DesignStore::open(fresh_root("cas")).unwrap();
    let won: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = &store;
            let won = &won;
            scope.spawn(move || {
                for step in 0..SAVES_PER_THREAD {
                    // Classic read-modify-write loop: observe the
                    // current revision, try to replace exactly it,
                    // retry on conflict.
                    loop {
                        let seen = store.current_rev("u", "d").unwrap();
                        match store.save("u", "d", std::sync::Arc::new(sheet(t, step)), Some(seen))
                        {
                            Ok(rev) => {
                                won.lock().unwrap().push(rev);
                                break;
                            }
                            Err(StoreError::Conflict { .. }) => continue,
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                }
            });
        }
    });

    // Every save won exactly one revision, and none were lost: the
    // winners are exactly 1..=80 with no duplicates and no gaps.
    let mut won = won.into_inner().unwrap();
    won.sort_unstable();
    let expected: Vec<u64> = (1..=(THREADS * SAVES_PER_THREAD) as u64).collect();
    assert_eq!(won, expected);
    assert_eq!(
        store.current_rev("u", "d").unwrap(),
        (THREADS * SAVES_PER_THREAD) as u64
    );

    // And the whole race is durable: a cold reopen agrees.
    let cold = DesignStore::open(store.root().to_owned()).unwrap();
    assert_eq!(
        cold.current_rev("u", "d").unwrap(),
        (THREADS * SAVES_PER_THREAD) as u64
    );
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn create_race_has_exactly_one_winner() {
    const THREADS: usize = 8;
    let store = DesignStore::open(fresh_root("create")).unwrap();

    let outcomes: Vec<Result<u64, StoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let store = &store;
                // All threads insist the design must not exist yet.
                scope.spawn(move || store.save("u", "d", std::sync::Arc::new(sheet(t, 0)), Some(0)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let wins = outcomes.iter().filter(|r| r.is_ok()).count();
    let conflicts = outcomes
        .iter()
        .filter(|r| matches!(r, Err(StoreError::Conflict { actual: 1, .. })))
        .count();
    assert_eq!(wins, 1, "exactly one creator may win");
    assert_eq!(conflicts, THREADS - 1, "everyone else sees the conflict");
    assert_eq!(store.current_rev("u", "d").unwrap(), 1);
    let _ = fs::remove_dir_all(store.root());
}
