//! Hostile checkpoint bytes at the three loading doors: `serialize::load`
//! (SHCK), `TrainingState::decode` (SHTS) and
//! `ServeEngine::from_state_blob`. Arbitrary bytes, and header-field
//! mutations of a valid blob, must come back as an `Err` — never a panic —
//! and no door may make a single allocation larger than the blob it was
//! handed (plus a constant for error messages). A mutation that still describes the blob's parameters exactly
//! (`heads` dividing `hidden`, a non-zero `batch` or `mp_degree`) is a
//! valid blob and loads.
//!
//! The allocation bound is read from a process-global counting allocator,
//! so this file holds exactly one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use proptest::prelude::*;
use stronghold_core::adam::AdamParams;
use stronghold_core::host::{HostResidentTrainer, TrainingState};
use stronghold_core::serve::{ServeConfig, ServeEngine};
use stronghold_core::telemetry::Telemetry;
use stronghold_model::config::tiny;
use stronghold_model::serialize;

/// Tracks the largest single allocation request since the last reset.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates to `System` unchanged; the maximum is a side effect.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        LARGEST.fetch_max(l.size(), Ordering::Relaxed);
        System.alloc(l)
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// Bytes before the embedded SHCK blob in an SHTS blob: magic, version,
/// precision, flags, step, model length.
const SHTS_PREFIX: usize = 4 + 1 + 1 + 1 + 8 + 8;
/// Bytes before the SHCK config fields: magic, version.
const SHCK_PREFIX: usize = 4 + 2;

/// Room for what any door allocates whatever the header claims: error
/// messages and engine bookkeeping.
const SLACK: usize = 4096;

/// The three doors' verdicts on `blob` (`true` = refused), asserting along
/// the way that none allocated more than the blob's size (plus [`SLACK`])
/// in one piece.
fn doors(blob: &[u8]) -> [bool; 3] {
    let serve = ServeConfig {
        max_seq: 4,
        ..ServeConfig::default()
    };
    let bounded = |what: &str, refused: bool| {
        let largest = LARGEST.swap(0, Ordering::Relaxed);
        assert!(
            largest <= blob.len() + SLACK,
            "{what}: allocated {largest} B at once from a {} B blob",
            blob.len()
        );
        refused
    };
    let blob = Bytes::from(blob.to_vec());
    LARGEST.store(0, Ordering::Relaxed);
    let shck = bounded("serialize::load", serialize::load(blob.clone()).is_err());
    let shts = bounded(
        "TrainingState::decode",
        TrainingState::decode(blob.clone()).is_err(),
    );
    let served = ServeEngine::from_state_blob(blob, serve, Telemetry::disabled()).is_err();
    [shck, shts, bounded("ServeEngine::from_state_blob", served)]
}

/// The config field `field` of the SHCK header starting at `at`.
fn field_at(blob: &[u8], at: usize, field: usize) -> u64 {
    let at = at + SHCK_PREFIX + 8 * field;
    u64::from_le_bytes(blob[at..at + 8].try_into().expect("8 bytes"))
}

/// Overwrites the config field `field` of the SHCK header starting at `at`.
fn set_field(blob: &mut [u8], at: usize, field: usize, value: u64) {
    let at = at + SHCK_PREFIX + 8 * field;
    blob[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn hostile_blobs_are_refused_without_panic_or_oversized_allocation(
        body in proptest::collection::vec(0u32..256, 0..600),
        prefix in 0usize..3,
        field in 0usize..7,
        pick in 0usize..6,
        random in 0u64..u64::MAX,
    ) {
        let cfg = tiny(2);
        let adam = AdamParams::default();
        let shts = HostResidentTrainer::new(cfg, 5, adam).save_training_state().to_vec();
        let model_len = u64::from_le_bytes(shts[15..SHTS_PREFIX].try_into().expect("8 bytes"));
        let shck = shts[SHTS_PREFIX..SHTS_PREFIX + model_len as usize].to_vec();
        prop_assert!(doors(&shck) == [false, true, true] && doors(&shts) == [true, false, false]);

        // Arbitrary bytes, bare or behind a valid SHCK / SHTS magic.
        let mut raw = match prefix {
            0 => Vec::new(),
            1 => shck[..SHCK_PREFIX].to_vec(),
            _ => shts[..7].to_vec(),
        };
        raw.extend(body.iter().map(|&b| b as u8));
        prop_assert_eq!(doors(&raw), [true; 3], "arbitrary bytes, prefix {}", prefix);

        // One config field of a valid blob rewritten.
        let orig = field_at(&shck, 0, field);
        let value = [0, 1, 1 << 40, u64::MAX, orig + 1, random][pick];
        let mut shck_bad = shck.clone();
        set_field(&mut shck_bad, 0, field, value);
        let mut shts_bad = shts.clone();
        set_field(&mut shts_bad, SHTS_PREFIX, field, value);
        let refused = match field {
            2 => !(cfg.hidden as u64).is_multiple_of(value),
            5 | 6 => value == 0,
            _ => value != orig,
        };
        let [shck_door, ..] = doors(&shck_bad);
        prop_assert_eq!(shck_door, refused, "SHCK field {} = {}", field, value);
        let [_, shts_door, serve_door] = doors(&shts_bad);
        prop_assert_eq!([shts_door, serve_door], [refused; 2], "SHTS field {} = {}", field, value);
    }
}
