//! Disk-backed, content-addressed persistence for cached simulation
//! results.
//!
//! The in-memory [`Cache`](crate::cache::Cache) dies with the process, so
//! every CLI invocation used to re-simulate everything. A [`Store`] makes
//! the `(machine, workload, params)` → result mapping durable:
//!
//! * **Segment file** (`seg-<model>.bin`): an append-only log of records.
//!   Each record is `[u32 payload_len][u64 fnv-1a checksum][payload]`,
//!   where the payload carries the full cache key (three length-prefixed
//!   strings), a type tag ([`StoreValue::type_tag`]) and the
//!   [`serde::bin`]-encoded value bytes. Records are never rewritten in
//!   place.
//! * **Index file** (`idx-<model>.bin`): an acceleration structure
//!   mapping the 64-bit key hash to segment offsets, rewritten atomically
//!   (temp file + rename) on flush and on drop. The index is *never
//!   trusted blindly*: it records how many segment bytes it covers, and a
//!   missing, corrupt or stale index merely costs a full segment scan.
//! * **Model-code versioning**: both file names and headers embed a
//!   64-bit hash of the simulation source tree (see
//!   `cluster_eval::serve::model_code_hash`). Results computed by a
//!   different model revision live in differently-named files and are
//!   simply ignored — a stale store can never leak old numbers into new
//!   goldens.
//!
//! # Crash-safety contract
//!
//! Appends are buffered by the OS and not fsynced; a crash may therefore
//! leave a *torn tail*: a partially-written final record. On open, the
//! store validates every record past the index's committed watermark
//! (length bounds + checksum) and truncates the segment back to the last
//! valid record. A torn tail thus costs exactly the recomputation of the
//! results it contained — never a wrong answer, because a record is only
//! served after its checksum and its full key match. Index writes go to a
//! temp file first and are renamed into place, so a crash mid-flush
//! leaves the previous (older but valid) index behind.
//!
//! Hash collisions are handled, not assumed away: the index maps a key
//! *hash* to candidate offsets, and `get` decodes each candidate's stored
//! key and compares it to the queried key before serving the value.

use crate::cache::CacheKey;
use serde::bin::{self, Decode, Encode, Reader};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes opening a segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"CESSEG01";
/// Magic bytes opening an index file.
pub const INDEX_MAGIC: [u8; 8] = *b"CESIDX01";
/// Segment header: magic + model hash.
const SEGMENT_HEADER_LEN: u64 = 16;
/// Per-record header: u32 payload length + u64 payload checksum.
const RECORD_HEADER_LEN: u64 = 12;
/// Rewrite the index after this many appends (a crash between flushes
/// only costs a tail scan, so this is a latency/durability knob, not a
/// correctness one).
const INDEX_FLUSH_EVERY: u64 = 64;
/// Upper bound on a single record payload; anything larger is treated as
/// corruption during recovery scans.
const MAX_PAYLOAD: u32 = 1 << 30;

/// 64-bit FNV-1a over `bytes` — the checksum and key-hash function of the
/// store format (stable across platforms and compilations).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable content hash of a cache key. Fields are length-prefixed before
/// hashing so `("ab","c")` and `("a","bc")` cannot collide structurally.
pub fn key_hash(key: &CacheKey) -> u64 {
    let mut buf =
        Vec::with_capacity(key.machine.len() + key.workload.len() + key.params.len() + 24);
    key.machine.encode(&mut buf);
    key.workload.encode(&mut buf);
    key.params.encode(&mut buf);
    fnv1a64(&buf)
}

/// A value type the store can persist. [`StoreValue::type_tag`] is written
/// into each record; reading a key back as a different type is detected
/// and panics, mirroring the in-memory cache's type-confusion contract.
pub trait StoreValue: Encode + Decode {
    /// Stable, globally-unique name of this value type.
    const TYPE_NAME: &'static str;

    /// 64-bit tag stored in each record. The default hashes `TYPE_NAME`;
    /// container impls compose it structurally so `Vec<T>` and `T` can
    /// never share a tag.
    fn type_tag() -> u64 {
        fnv1a64(Self::TYPE_NAME.as_bytes())
    }
}

impl StoreValue for f64 {
    const TYPE_NAME: &'static str = "f64";
}

impl StoreValue for u64 {
    const TYPE_NAME: &'static str = "u64";
}

/// Vectors of any storable value are storable; the orphan rule keeps
/// downstream crates from writing this impl for their own element types,
/// so it lives here as a blanket.
impl<T: StoreValue> StoreValue for Vec<T> {
    const TYPE_NAME: &'static str = T::TYPE_NAME;

    fn type_tag() -> u64 {
        let mut buf = [0u8; 13];
        buf[..4].copy_from_slice(b"Vec<");
        buf[4..12].copy_from_slice(&T::type_tag().to_le_bytes());
        buf[12] = b'>';
        fnv1a64(&buf)
    }
}

impl Encode for crate::units::Time {
    fn encode(&self, out: &mut Vec<u8>) {
        self.value().encode(out);
    }
}

impl Decode for crate::units::Time {
    fn decode(r: &mut Reader<'_>) -> Result<Self, bin::DecodeError> {
        Ok(crate::units::Time::seconds(f64::decode(r)?))
    }
}

struct Inner {
    file: File,
    /// Bytes of the segment known to hold valid records (header included).
    len: u64,
    /// key hash → offsets of candidate records, in append order.
    index: HashMap<u64, Vec<u64>>,
    /// Number of records appended since the index file was last rewritten.
    appends_since_flush: u64,
    /// True when the on-disk index lags the in-memory one.
    dirty: bool,
}

/// A disk-backed content-addressed result store. Concurrency-safe; one
/// instance is typically shared behind an `Arc` by every
/// [`Cache`](crate::cache::Cache) tier of a process.
pub struct Store {
    inner: Mutex<Inner>,
    model_hash: u64,
    seg_path: PathBuf,
    idx_path: PathBuf,
}

/// What `open` had to do to bring the store up — exposed so tests (and
/// curious operators) can verify the recovery path that actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenReport {
    /// Records now served by the store.
    pub records: usize,
    /// Bytes dropped from a torn tail (0 on a clean open).
    pub truncated_bytes: u64,
    /// True when the index file was missing/corrupt/stale and the segment
    /// had to be scanned from the start.
    pub full_scan: bool,
}

impl Store {
    /// Open (or create) the store for `model_hash` under `dir`.
    pub fn open(dir: impl AsRef<Path>, model_hash: u64) -> io::Result<Self> {
        Self::open_with_report(dir, model_hash).map(|(s, _)| s)
    }

    /// [`Store::open`], also reporting what recovery work was needed.
    pub fn open_with_report(
        dir: impl AsRef<Path>,
        model_hash: u64,
    ) -> io::Result<(Self, OpenReport)> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let seg_path = dir.join(format!("seg-{model_hash:016x}.bin"));
        let idx_path = dir.join(format!("idx-{model_hash:016x}.bin"));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&seg_path)?;

        let seg_len = file.metadata()?.len();
        let mut header_ok = false;
        if seg_len >= SEGMENT_HEADER_LEN {
            let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut header)?;
            header_ok = header[..8] == SEGMENT_MAGIC
                && u64::from_le_bytes(header[8..16].try_into().unwrap()) == model_hash;
        }
        if !header_ok {
            // Fresh store (or unrecognizable file): start over. A segment
            // written by a different model revision has a different file
            // name, so this only discards garbage, never valid results.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&SEGMENT_MAGIC)?;
            file.write_all(&model_hash.to_le_bytes())?;
            file.flush()?;
        }
        let seg_len = file.metadata()?.len();

        // Try the index; fall back to a full scan when it is unusable.
        let (mut index, mut committed, full_scan) =
            match Self::load_index(&idx_path, model_hash, seg_len) {
                Some((index, committed)) => (index, committed, false),
                None => (HashMap::new(), SEGMENT_HEADER_LEN, true),
            };

        // Scan (and validate) everything past the committed watermark.
        let mut tail = Vec::new();
        file.seek(SeekFrom::Start(committed))?;
        file.read_to_end(&mut tail)?;
        let mut scanned = 0usize;
        let mut recovered = 0u64;
        loop {
            let rest = &tail[scanned..];
            if rest.len() < RECORD_HEADER_LEN as usize {
                break;
            }
            let plen = u32::from_le_bytes(rest[0..4].try_into().unwrap());
            if plen > MAX_PAYLOAD {
                break;
            }
            let plen = plen as usize;
            let checksum = u64::from_le_bytes(rest[4..12].try_into().unwrap());
            let Some(payload) = rest.get(12..12 + plen) else {
                break;
            };
            if fnv1a64(payload) != checksum {
                break;
            }
            let Ok(khash) = decode_record_key_hash(payload) else {
                break;
            };
            index
                .entry(khash)
                .or_default()
                .push(committed + scanned as u64);
            scanned += RECORD_HEADER_LEN as usize + plen;
            recovered += 1;
        }
        committed += scanned as u64;
        let truncated = seg_len - committed;
        if truncated > 0 {
            // Torn tail: drop the partial record so future appends start
            // on a clean boundary.
            file.set_len(committed)?;
        }

        let records = index.values().map(Vec::len).sum();
        let store = Self {
            inner: Mutex::new(Inner {
                file,
                len: committed,
                index,
                appends_since_flush: 0,
                // A recovered tail or rescanned segment means the on-disk
                // index lags reality; rewrite it eagerly.
                dirty: truncated > 0 || recovered > 0 || full_scan,
            }),
            model_hash,
            seg_path,
            idx_path,
        };
        {
            let mut inner = store.inner.lock().expect("store lock");
            if inner.dirty {
                store.flush_index_locked(&mut inner)?;
            }
        }
        Ok((
            store,
            OpenReport {
                records,
                truncated_bytes: truncated,
                full_scan,
            },
        ))
    }

    /// Parse the index file. Returns `None` (forcing a full segment scan)
    /// on any inconsistency: wrong magic/model, bad checksum, or a
    /// committed watermark the segment cannot actually back.
    fn load_index(
        idx_path: &Path,
        model_hash: u64,
        seg_len: u64,
    ) -> Option<(HashMap<u64, Vec<u64>>, u64)> {
        let bytes = fs::read(idx_path).ok()?;
        if bytes.len() < 8 || bytes[..8] != INDEX_MAGIC {
            return None;
        }
        let body = &bytes[8..bytes.len().checked_sub(8)?];
        let stored_sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().ok()?);
        if fnv1a64(body) != stored_sum {
            return None;
        }
        let mut r = Reader::new(body);
        let hash = u64::decode(&mut r).ok()?;
        let committed = u64::decode(&mut r).ok()?;
        let count = usize::decode(&mut r).ok()?;
        if hash != model_hash || committed < SEGMENT_HEADER_LEN || committed > seg_len {
            return None;
        }
        let mut index: HashMap<u64, Vec<u64>> = HashMap::with_capacity(count);
        for _ in 0..count {
            let khash = u64::decode(&mut r).ok()?;
            let offset = u64::decode(&mut r).ok()?;
            if offset < SEGMENT_HEADER_LEN || offset >= committed {
                return None;
            }
            index.entry(khash).or_default().push(offset);
        }
        if r.remaining() != 0 {
            return None;
        }
        Some((index, committed))
    }

    /// The model-code hash this store is bound to.
    pub fn model_hash(&self) -> u64 {
        self.model_hash
    }

    /// Path of the append-only segment file.
    pub fn segment_path(&self) -> &Path {
        &self.seg_path
    }

    /// Path of the index file.
    pub fn index_path(&self) -> &Path {
        &self.idx_path
    }

    /// Number of records currently indexed.
    pub fn records(&self) -> usize {
        let inner = self.inner.lock().expect("store lock");
        inner.index.values().map(Vec::len).sum()
    }

    /// Committed segment size in bytes (header included).
    pub fn segment_bytes(&self) -> u64 {
        self.inner.lock().expect("store lock").len
    }

    /// True when the index holds a record under `key`'s hash. Reads no
    /// record, so a hash collision answers true for a key that [`Self::get`]
    /// then does not find.
    pub fn contains(&self, key: &CacheKey) -> bool {
        let inner = self.inner.lock().expect("store lock");
        inner.index.contains_key(&key_hash(key))
    }

    /// Look up `key`, decoding the stored value.
    ///
    /// # Panics
    /// Panics if the stored record for this exact key carries a different
    /// value type — two workloads sharing a key is a key-construction bug,
    /// the same contract as the in-memory cache.
    pub fn get<T: StoreValue>(&self, key: &CacheKey) -> Option<T> {
        let mut inner = self.inner.lock().expect("store lock");
        let offsets = inner.index.get(&key_hash(key))?.clone();
        for offset in offsets {
            let Ok(payload) = read_record(&mut inner.file, offset) else {
                continue;
            };
            match decode_record::<T>(&payload, key) {
                RecordMatch::Value(v) => return Some(v),
                RecordMatch::WrongKey => continue,
                RecordMatch::WrongType(tag) => panic!(
                    "store key {key:?} holds type tag {tag:#018x}, \
                     requested {} — cache key reused with a different type",
                    T::TYPE_NAME
                ),
                RecordMatch::Corrupt => continue,
            }
        }
        None
    }

    /// Persist `value` under `key`. Idempotent: a key that already
    /// resolves on disk is left untouched (first write wins, matching the
    /// compute-once cache semantics).
    pub fn put<T: StoreValue>(&self, key: &CacheKey, value: &T) -> io::Result<()> {
        let khash = key_hash(key);
        let mut inner = self.inner.lock().expect("store lock");
        if let Some(offsets) = inner.index.get(&khash).cloned() {
            for offset in offsets {
                if let Ok(payload) = read_record(&mut inner.file, offset) {
                    if record_key_matches(&payload, key) {
                        return Ok(());
                    }
                }
            }
        }

        let mut payload = Vec::new();
        key.machine.encode(&mut payload);
        key.workload.encode(&mut payload);
        key.params.encode(&mut payload);
        T::type_tag().encode(&mut payload);
        bin::encode_to_vec(value).encode(&mut payload);

        let offset = inner.len;
        inner.file.seek(SeekFrom::Start(offset))?;
        inner
            .file
            .write_all(&(payload.len() as u32).to_le_bytes())?;
        inner.file.write_all(&fnv1a64(&payload).to_le_bytes())?;
        inner.file.write_all(&payload)?;
        inner.file.flush()?;
        inner.len += RECORD_HEADER_LEN + payload.len() as u64;
        inner.index.entry(khash).or_default().push(offset);
        inner.appends_since_flush += 1;
        inner.dirty = true;
        if inner.appends_since_flush >= INDEX_FLUSH_EVERY {
            self.flush_index_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Rewrite the index file to cover everything appended so far.
    pub fn flush_index(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("store lock");
        self.flush_index_locked(&mut inner)
    }

    fn flush_index_locked(&self, inner: &mut Inner) -> io::Result<()> {
        if !inner.dirty {
            return Ok(());
        }
        let mut body = Vec::new();
        self.model_hash.encode(&mut body);
        inner.len.encode(&mut body);
        let count: usize = inner.index.values().map(Vec::len).sum();
        count.encode(&mut body);
        // Deterministic entry order: sorted by (hash, offset).
        let mut entries: Vec<(u64, u64)> = inner
            .index
            .iter()
            .flat_map(|(&h, offs)| offs.iter().map(move |&o| (h, o)))
            .collect();
        entries.sort_unstable();
        for (h, o) in entries {
            h.encode(&mut body);
            o.encode(&mut body);
        }
        let mut bytes = Vec::with_capacity(body.len() + 16);
        bytes.extend_from_slice(&INDEX_MAGIC);
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        // Atomic replace: a crash mid-write leaves the old index intact.
        let tmp = self.idx_path.with_extension("tmp");
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, &self.idx_path)?;
        inner.appends_since_flush = 0;
        inner.dirty = false;
        Ok(())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Ok(mut inner) = self.inner.lock() {
            let _ = self.flush_index_locked(&mut inner);
        }
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("segment", &self.seg_path)
            .field("model_hash", &format_args!("{:016x}", self.model_hash))
            .field("records", &self.records())
            .finish()
    }
}

/// Read one record's payload (checksum-verified) at `offset`.
fn read_record(file: &mut File, offset: u64) -> io::Result<Vec<u8>> {
    file.seek(SeekFrom::Start(offset))?;
    let mut header = [0u8; RECORD_HEADER_LEN as usize];
    file.read_exact(&mut header)?;
    let plen = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if plen > MAX_PAYLOAD {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "record length"));
    }
    let checksum = u64::from_le_bytes(header[4..12].try_into().unwrap());
    let mut payload = vec![0u8; plen as usize];
    file.read_exact(&mut payload)?;
    if fnv1a64(&payload) != checksum {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "record checksum",
        ));
    }
    Ok(payload)
}

/// Decode just enough of a record payload to hash its key.
fn decode_record_key_hash(payload: &[u8]) -> Result<u64, bin::DecodeError> {
    let mut r = Reader::new(payload);
    let machine = String::decode(&mut r)?;
    let workload = String::decode(&mut r)?;
    let params = String::decode(&mut r)?;
    Ok(key_hash(&CacheKey::new(machine, workload, params)))
}

/// Does this record payload belong to exactly `key`?
fn record_key_matches(payload: &[u8], key: &CacheKey) -> bool {
    let mut r = Reader::new(payload);
    matches!(
        (
            String::decode(&mut r),
            String::decode(&mut r),
            String::decode(&mut r),
        ),
        (Ok(m), Ok(w), Ok(p)) if m == key.machine && w == key.workload && p == key.params
    )
}

enum RecordMatch<T> {
    Value(T),
    WrongKey,
    WrongType(u64),
    Corrupt,
}

fn decode_record<T: StoreValue>(payload: &[u8], key: &CacheKey) -> RecordMatch<T> {
    let mut r = Reader::new(payload);
    let (Ok(machine), Ok(workload), Ok(params)) = (
        String::decode(&mut r),
        String::decode(&mut r),
        String::decode(&mut r),
    ) else {
        return RecordMatch::Corrupt;
    };
    if machine != key.machine || workload != key.workload || params != key.params {
        return RecordMatch::WrongKey;
    }
    let Ok(tag) = u64::decode(&mut r) else {
        return RecordMatch::Corrupt;
    };
    if tag != T::type_tag() {
        return RecordMatch::WrongType(tag);
    }
    let Ok(value_bytes) = Vec::<u8>::decode(&mut r) else {
        return RecordMatch::Corrupt;
    };
    match bin::decode_from_slice::<T>(&value_bytes) {
        Ok(v) => RecordMatch::Value(v),
        Err(_) => RecordMatch::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "simkit-store-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_reopen() {
        let dir = temp_dir("basic");
        let key = CacheKey::new("CTE-Arm", "alya", "nodes=16");
        {
            let store = Store::open(&dir, 7).unwrap();
            assert_eq!(store.get::<f64>(&key), None);
            store.put(&key, &1.5f64).unwrap();
            assert_eq!(store.get::<f64>(&key), Some(1.5));
        }
        let (store, report) = Store::open_with_report(&dir, 7).unwrap();
        assert_eq!(report.records, 1);
        assert_eq!(report.truncated_bytes, 0);
        assert!(!report.full_scan, "a clean close leaves a usable index");
        assert_eq!(store.get::<f64>(&key), Some(1.5));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn puts_are_idempotent() {
        let dir = temp_dir("idem");
        let store = Store::open(&dir, 1).unwrap();
        let key = CacheKey::new("m", "w", "p");
        store.put(&key, &vec![1.0f64, 2.0]).unwrap();
        let len = store.segment_bytes();
        store.put(&key, &vec![9.0f64]).unwrap();
        assert_eq!(store.segment_bytes(), len, "duplicate put must not append");
        assert_eq!(store.get::<Vec<f64>>(&key), Some(vec![1.0, 2.0]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_hash_partitions_the_store() {
        let dir = temp_dir("model");
        let key = CacheKey::new("m", "w", "p");
        Store::open(&dir, 1).unwrap().put(&key, &1.0f64).unwrap();
        let bumped = Store::open(&dir, 2).unwrap();
        assert_eq!(
            bumped.get::<f64>(&key),
            None,
            "new model ignores old results"
        );
        bumped.put(&key, &2.0f64).unwrap();
        drop(bumped);
        assert_eq!(Store::open(&dir, 1).unwrap().get::<f64>(&key), Some(1.0));
        assert_eq!(Store::open(&dir, 2).unwrap().get::<f64>(&key), Some(2.0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let dir = temp_dir("type");
        let store = Store::open(&dir, 1).unwrap();
        let key = CacheKey::new("m", "w", "p");
        store.put(&key, &1.0f64).unwrap();
        let _ = store.get::<Vec<f64>>(&key);
    }

    #[test]
    fn torn_tail_is_dropped_on_reopen() {
        let dir = temp_dir("torn");
        let (k1, k2) = (CacheKey::new("m", "w", "1"), CacheKey::new("m", "w", "2"));
        let seg = {
            let store = Store::open(&dir, 3).unwrap();
            store.put(&k1, &10.0f64).unwrap();
            store.flush_index().unwrap();
            store.put(&k2, &20.0f64).unwrap();
            store.segment_path().to_path_buf()
        };
        // Tear the last record: chop 5 bytes off the segment.
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (store, report) = Store::open_with_report(&dir, 3).unwrap();
        assert_eq!(report.records, 1);
        assert!(report.truncated_bytes > 0);
        assert_eq!(store.get::<f64>(&k1), Some(10.0));
        assert_eq!(store.get::<f64>(&k2), None, "torn record must vanish");
        // The store keeps working after recovery.
        store.put(&k2, &21.0f64).unwrap();
        drop(store);
        assert_eq!(Store::open(&dir, 3).unwrap().get::<f64>(&k2), Some(21.0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_index_falls_back_to_full_scan() {
        let dir = temp_dir("idx");
        let key = CacheKey::new("m", "w", "p");
        let idx = {
            let store = Store::open(&dir, 4).unwrap();
            store.put(&key, &5.0f64).unwrap();
            store.index_path().to_path_buf()
        };
        fs::write(&idx, b"garbage").unwrap();
        let (store, report) = Store::open_with_report(&dir, 4).unwrap();
        assert!(report.full_scan);
        assert_eq!(store.get::<f64>(&key), Some(5.0));
        let _ = fs::remove_dir_all(&dir);
    }
}
