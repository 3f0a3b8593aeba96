//! The persistent result store's hard guarantees, pinned:
//!
//! * **Bit-exact round trips** — every cached result type survives
//!   encode → disk → decode with identical bits, including NaN payloads,
//!   signed zeros and infinities (floats travel as raw IEEE-754 bits).
//! * **Torn-write recovery** — chopping any number of bytes off the
//!   segment tail loses at most the torn record; everything before it
//!   still serves, and the store keeps accepting writes.
//! * **Model-hash invalidation** — bumping the model-code hash makes the
//!   store forget everything (old results are ignored, not deleted), and
//!   reverting the hash brings the old results back.

use apps::common::AppRun;
use microbench::network::BandwidthDistribution;
use proptest::prelude::*;
use serde::bin::{decode_from_slice, encode_to_vec, Decode, Encode};
use simkit::cache::{Cache, CacheKey};
use simkit::stats::Histogram;
use simkit::store::{Store, StoreValue};
use simkit::units::Time;
use std::fs::OpenOptions;
use std::sync::Arc;

mod common;
use common::TempDir;

/// Encode → decode → re-encode must reproduce the original bytes exactly.
/// Byte equality implies bit equality of every float inside, so this is
/// the one oracle every type below shares.
fn assert_bin_roundtrip<T: Encode + Decode>(value: &T, what: &str) {
    let bytes = encode_to_vec(value);
    let back: T = decode_from_slice(&bytes).unwrap_or_else(|e| panic!("{what}: decode failed {e}"));
    assert_eq!(
        bytes,
        encode_to_vec(&back),
        "{what}: round trip not bit-identical"
    );
}

/// Same oracle, but travelling through an on-disk store and a reopen.
fn assert_store_roundtrip<T: StoreValue>(value: &T, what: &str) {
    let dir = TempDir::new("roundtrip");
    let key = CacheKey::new("m", what, "p");
    {
        let store = Store::open(dir.path(), 1).expect("open");
        store.put(&key, value).expect("put");
        let back: T = store.get(&key).expect("get");
        assert_eq!(
            encode_to_vec(value),
            encode_to_vec(&back),
            "{what}: in-session"
        );
    }
    let store = Store::open(dir.path(), 1).expect("reopen");
    let back: T = store.get(&key).expect("get after reopen");
    assert_eq!(
        encode_to_vec(value),
        encode_to_vec(&back),
        "{what}: after reopen"
    );
}

proptest! {
    #[test]
    fn f64_bits_survive_the_codec(bits in 0u64..u64::MAX) {
        // Covers NaN payloads, -0.0, infinities, subnormals — everything.
        let v = f64::from_bits(bits);
        let back: f64 = decode_from_slice(&encode_to_vec(&v)).unwrap();
        prop_assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn f64_vectors_roundtrip(bits in proptest::collection::vec(0u64..u64::MAX, 0..50)) {
        let v: Vec<f64> = bits.iter().copied().map(f64::from_bits).collect();
        assert_bin_roundtrip(&v, "Vec<f64>");
        let nested = vec![v.clone(), Vec::new(), v];
        assert_bin_roundtrip(&nested, "Vec<Vec<f64>>");
    }

    #[test]
    fn app_runs_roundtrip_through_disk(
        elapsed in 0u64..u64::MAX,
        phases in proptest::collection::vec((0u64..1000, 0u64..u64::MAX), 0..6),
    ) {
        let run = AppRun {
            elapsed: Time::seconds(f64::from_bits(elapsed)),
            phases: phases
                .iter()
                .map(|&(n, t)| (format!("phase-{n}"), Time::seconds(f64::from_bits(t))))
                .collect(),
        };
        assert_bin_roundtrip(&run, "AppRun");
        assert_store_roundtrip(&run, "AppRun");
    }

    #[test]
    fn benchmark_results_roundtrip(a in 0u64..u64::MAX, b in 0u64..u64::MAX,
                                   c in 0u64..u64::MAX, d in 0u64..u64::MAX) {
        let [a, b, c, d] = [a, b, c, d].map(f64::from_bits);
        assert_bin_roundtrip(
            &hpl::HplResult { time: Time::seconds(a), gflops: b, efficiency: c, update_fraction: d },
            "HplResult",
        );
        assert_bin_roundtrip(
            &hpcg::HpcgResult { gflops: a, fraction_of_peak: b, time: Time::seconds(c) },
            "HpcgResult",
        );
    }

    #[test]
    fn histograms_roundtrip(samples in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let mut histogram = Histogram::new(-1e6, 1e6, 17);
        for &s in &samples {
            histogram.record(s);
        }
        assert_bin_roundtrip(&histogram, "Histogram");
        let dist = BandwidthDistribution { size: samples.len(), histogram, cv: samples[0] };
        assert_bin_roundtrip(&dist, "BandwidthDistribution");
        assert_store_roundtrip(&vec![dist], "Vec<BandwidthDistribution>");
    }

    #[test]
    fn any_torn_tail_recovers(chop in 1u64..40) {
        let dir = TempDir::new("torn");
        let keys: Vec<CacheKey> =
            (0..3).map(|i| CacheKey::new("m", "w", format!("p{i}"))).collect();
        let seg = {
            let store = Store::open(dir.path(), 9).expect("open");
            for (i, k) in keys.iter().enumerate() {
                store.put(k, &(i as f64)).expect("put");
            }
            store.segment_path().to_path_buf()
        };
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - chop).unwrap();

        let store = Store::open(dir.path(), 9).expect("recovering open");
        // The last record is torn (every record here is > 40 bytes, so
        // only it can be); the first two must be intact.
        prop_assert_eq!(store.get::<f64>(&keys[0]), Some(0.0));
        prop_assert_eq!(store.get::<f64>(&keys[1]), Some(1.0));
        prop_assert_eq!(store.get::<f64>(&keys[2]), None);
        // And the store still takes writes on the truncated segment.
        store.put(&keys[2], &2.0f64).expect("put after recovery");
        prop_assert_eq!(store.get::<f64>(&keys[2]), Some(2.0));
        drop(store);
        prop_assert_eq!(Store::open(dir.path(), 9).unwrap().get::<f64>(&keys[2]), Some(2.0));
    }
}

#[test]
fn model_hash_bump_invalidates_and_revert_restores() {
    let dir = TempDir::new("model-bump");
    let key = CacheKey::new("CTE-Arm", "hpl", "nodes=48");
    {
        let v1 = Store::open(dir.path(), 0xAAAA).expect("open v1");
        v1.put(&key, &111.0f64).expect("put");
    }
    // "Recompile": same store dir, new model hash. Old result invisible.
    {
        let v2 = Store::open(dir.path(), 0xBBBB).expect("open v2");
        assert_eq!(
            v2.get::<f64>(&key),
            None,
            "stale result leaked across a model bump"
        );
        v2.put(&key, &222.0f64).expect("put under new model");
    }
    // Both revisions keep their own truth.
    assert_eq!(
        Store::open(dir.path(), 0xAAAA).unwrap().get::<f64>(&key),
        Some(111.0)
    );
    assert_eq!(
        Store::open(dir.path(), 0xBBBB).unwrap().get::<f64>(&key),
        Some(222.0)
    );
}

#[test]
fn corrupt_index_never_loses_data() {
    let dir = TempDir::new("bad-index");
    let key = CacheKey::new("m", "w", "p");
    let idx = {
        let store = Store::open(dir.path(), 5).expect("open");
        store.put(&key, &vec![1.0f64, 2.0, 3.0]).expect("put");
        store.index_path().to_path_buf()
    };
    for garbage in [&b"CESIDX01 but short"[..], &[0xFFu8; 64][..], &[][..]] {
        std::fs::write(&idx, garbage).unwrap();
        let (store, report) = Store::open_with_report(dir.path(), 5).expect("open");
        assert!(report.full_scan, "unusable index must force a scan");
        assert_eq!(store.get::<Vec<f64>>(&key), Some(vec![1.0, 2.0, 3.0]));
    }
}

#[test]
fn cache_walks_memory_then_disk_then_computes() {
    let dir = TempDir::new("tiers");
    let store = Arc::new(Store::open(dir.path(), 7).expect("open"));
    let key = CacheKey::new("m", "w", "p");

    // Session 1: cold — one miss, then a memory hit.
    let cache = Cache::with_store(store.clone());
    assert_eq!(cache.get_or_persistent(key.clone(), || 42.0f64), 42.0);
    assert_eq!(
        cache.get_or_persistent(key.clone(), || -> f64 { panic!("memory tier must serve") }),
        42.0
    );
    let c = cache.counters();
    assert_eq!((c.mem_hits, c.disk_hits, c.misses), (1, 0, 1));

    // Session 2 (same store, fresh memory): disk hit, then memory hit.
    let cache = Cache::with_store(store);
    assert_eq!(
        cache.get_or_persistent(key.clone(), || -> f64 { panic!("disk tier must serve") }),
        42.0
    );
    assert_eq!(
        cache.get_or_persistent(key, || -> f64 { panic!("memory tier must serve") }),
        42.0
    );
    let c = cache.counters();
    assert_eq!((c.mem_hits, c.disk_hits, c.misses), (1, 1, 0));
}

#[test]
fn real_simulation_results_survive_a_restart_bit_for_bit() {
    // End to end over actual model output: run HPL/HPCG/an app cold, then
    // re-run against the reopened store and compare the *encoded bytes*.
    let dir = TempDir::new("e2e");
    let machine = arch::machines::cte_arm();
    let link = interconnect::link::LinkModel::tofud();
    let cfg = hpl::paper_config(&machine, 48);

    let cold = {
        let store = Arc::new(Store::open(dir.path(), 3).expect("open"));
        let cache = Cache::with_store(store);
        encode_to_vec(&hpl::simulate_cached(&cache, &machine, &link, 48, &cfg))
    };
    let warm_cache = Cache::with_store(Arc::new(Store::open(dir.path(), 3).expect("reopen")));
    let warm = encode_to_vec(&hpl::simulate_cached(
        &warm_cache,
        &machine,
        &link,
        48,
        &cfg,
    ));
    assert_eq!(cold, warm, "HPL result changed across a store restart");
    let c = warm_cache.counters();
    assert_eq!(
        (c.disk_hits, c.misses),
        (1, 0),
        "warm run must be engine-free"
    );
}
