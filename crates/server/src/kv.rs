//! The sharded key-value/session store over coherent pages.
//!
//! Layout (§6 discipline: separate zones for data with different access
//! patterns):
//!
//! * **Table zone** — one page-aligned open-addressing slot array per
//!   shard. A slot is `2 + VALUE_WORDS` words: a tag word (`key + 1`,
//!   0 = empty), a version word (the serial of the last write), and the
//!   value. With 6-word values a 4 KB page holds 128 slots,
//!   so hot keys and cold keys share pages — the false-sharing terrain
//!   a page-granular coherence protocol actually faces in a server.
//! * **Lock zone** — one spin lock per shard, each on its own page
//!   (fine-grain modifiable data separated from everything else).
//!
//! Keys map to shards round-robin (`key % shards`) so a Zipf-hot rank
//! prefix spreads across shards, and to slots by a mixed hash with
//! linear probing. The measured phase only reads and updates keys that
//! the populate phase inserted; the table never grows.
//!
//! Values are self-verifying: a write with serial `s` installs
//! `base(key, s) + i` in value word `i`. [`KvTable::verify`] sweeps the
//! quiesced table and asserts every slot is internally consistent — a
//! torn write (two writers' words interleaved, or a recovery path
//! replaying half an update) breaks the arithmetic progression and is
//! caught, which is what the chaos soak's checksum pass relies on.

use numa_machine::Va;
use platinum_runtime::sync::SpinLock;
use platinum_runtime::zones::Zone;
use platinum_runtime::Stage;

use crate::drive::Workload;
use crate::rng::mix;
use crate::traffic::Request;
use crate::ServerMem;

/// Value payload words per slot.
pub(crate) const VALUE_WORDS: usize = 6;
/// Words per slot: tag, version, value.
const SLOT_WORDS: usize = 2 + VALUE_WORDS;

/// Table geometry.
#[derive(Clone, Debug)]
pub struct KvConfig {
    /// Keys inserted by the populate phase (`0..keys`).
    pub keys: u64,
    /// Shard count (locks, slot arrays, and throughput accounting).
    pub shards: usize,
    /// Slots per shard; power of two, with headroom over `keys/shards`.
    slots_per_shard: usize,
}

impl KvConfig {
    /// A geometry for `keys` keys over `shards` shards: ~75% maximum
    /// fill rounded up to a power of two.
    pub fn for_keys(keys: u64, shards: usize) -> Self {
        let per_shard = (keys as usize).div_ceil(shards);
        KvConfig {
            keys,
            shards,
            slots_per_shard: (per_shard * 4 / 3).max(8).next_power_of_two(),
        }
    }

    /// Pages needed for the table zone (each shard page-aligned).
    pub fn table_pages(&self, page_words: usize) -> usize {
        let shard_words = self.slots_per_shard * SLOT_WORDS;
        self.shards * shard_words.div_ceil(page_words)
    }

    /// Pages needed for the lock zone (one page per shard).
    pub fn lock_pages(&self) -> usize {
        self.shards
    }
}

/// Post-soak audit result: see [`KvTable::verify`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvAudit {
    /// Occupied slots found (must equal the keys populated).
    pub occupied: u64,
    /// Order-sensitive fold over every occupied slot's contents. Two
    /// runs that performed the same writes agree; a lost or torn write
    /// diverges.
    pub checksum: u64,
}

/// The laid-out store (addresses only — all state lives in simulated
/// memory, so one `KvTable` is shared by every worker).
pub struct KvTable {
    cfg: KvConfig,
    /// Per-shard slot-array base addresses.
    shard_base: Vec<Va>,
    /// Per-shard writer locks.
    locks: Vec<SpinLock>,
}

/// Salt for the slot hash (distinct from every traffic-stream salt).
const SLOT_SALT: u64 = 0x6B76_736C_6F74;

impl KvTable {
    /// Carves the table out of `data` and the locks out of `lock_zone`.
    /// Size the zones with [`KvConfig::table_pages`] and
    /// [`KvConfig::lock_pages`].
    pub fn layout(cfg: KvConfig, data: &mut Zone, lock_zone: &mut Zone) -> Self {
        let shard_words = cfg.slots_per_shard * SLOT_WORDS;
        let shard_base = (0..cfg.shards)
            .map(|_| data.alloc_page_aligned(shard_words))
            .collect();
        let locks = (0..cfg.shards)
            .map(|_| SpinLock::new(lock_zone.alloc_page_aligned(1)))
            .collect();
        KvTable {
            cfg,
            shard_base,
            locks,
        }
    }

    /// Allocates the table zone and the lock zone on `stage` and lays
    /// the store out in them.
    pub fn stage<S: Stage>(cfg: KvConfig, stage: &mut S) -> Self {
        let mut data = stage.alloc_zone(cfg.table_pages(stage.page_words()));
        let mut locks = stage.alloc_zone(cfg.lock_pages());
        Self::layout(cfg, &mut data, &mut locks)
    }

    /// The shard owning `key`.
    pub(crate) fn shard_of(&self, key: u64) -> usize {
        (key % self.cfg.shards as u64) as usize
    }

    /// Address of slot `idx` of `shard`.
    fn slot_va(&self, shard: usize, idx: usize) -> Va {
        self.shard_base[shard] + 4 * (idx * SLOT_WORDS) as u64
    }

    /// First value word a write with `serial` installs for `key`.
    fn value_base(key: u64, serial: u64) -> u32 {
        mix(key, serial) as u32
    }

    /// Walks `shard`'s probe sequence for `key` until `visit` returns
    /// a result (`Some(tag)` observed at each slot).
    fn probe<M: ServerMem, R>(
        &self,
        m: &mut M,
        key: u64,
        mut visit: impl FnMut(&mut M, Va, u32) -> platinum::Result<Option<R>>,
    ) -> platinum::Result<R> {
        let shard = self.shard_of(key);
        let mask = self.cfg.slots_per_shard - 1;
        let start = mix(key, SLOT_SALT) as usize & mask;
        for step in 0..=mask {
            let va = self.slot_va(shard, (start + step) & mask);
            let tag = m.try_load(va)?;
            if let Some(r) = visit(m, va, tag)? {
                return Ok(r);
            }
        }
        panic!("kv probe wrapped shard {shard}: table over-full or key {key} lost");
    }

    /// Inserts `key` with its serial-0 value. Populate-phase only: the
    /// caller partitions keys between workers, so no lock is taken.
    pub(crate) fn insert<M: ServerMem>(&self, m: &mut M, key: u64) -> platinum::Result<()> {
        let tag = (key + 1) as u32;
        self.probe(m, key, |m, va, t| {
            if t != 0 {
                assert_ne!(t, tag, "duplicate insert of key {key}");
                return Ok(None);
            }
            m.try_store(va, tag)?;
            m.try_store(va + 4, 0)?;
            let base = Self::value_base(key, 0);
            for i in 0..VALUE_WORDS {
                m.try_store(va + 4 * (2 + i) as u64, base.wrapping_add(i as u32))?;
            }
            Ok(Some(()))
        })
    }

    /// Inserts every key this worker owns (shards striped round-robin
    /// over workers, so the populate phase first-touches each shard on
    /// its owner's node).
    pub fn populate_owned<M: ServerMem>(
        &self,
        m: &mut M,
        worker: usize,
        workers: usize,
    ) -> platinum::Result<()> {
        for shard in (0..self.cfg.shards).filter(|s| s % workers == worker) {
            let mut key = shard as u64;
            while key < self.cfg.keys {
                self.insert(m, key)?;
                key += self.cfg.shards as u64;
            }
        }
        Ok(())
    }

    /// Looks `key` up and folds its value words (the read path: a
    /// session lookup touching the whole value).
    ///
    /// # Panics
    ///
    /// Panics if `key` was never inserted — the generator only issues
    /// populated keys, so a miss is a table bug.
    pub fn get<M: ServerMem>(&self, m: &mut M, key: u64) -> platinum::Result<u32> {
        let tag = (key + 1) as u32;
        self.probe(m, key, |m, va, t| {
            assert_ne!(t, 0, "key {key} missing from the table");
            if t != tag {
                return Ok(None);
            }
            let mut fold = m.try_load(va + 4)?;
            for i in 0..VALUE_WORDS {
                fold = fold.wrapping_add(m.try_load(va + 4 * (2 + i) as u64)?);
            }
            Ok(Some(fold))
        })
    }

    /// Updates `key`'s value to the `serial` version under the shard
    /// lock (the write path: a session checkpoint).
    pub fn put<M: ServerMem>(&self, m: &mut M, key: u64, serial: u64) -> platinum::Result<()> {
        let shard = self.shard_of(key);
        let tag = (key + 1) as u32;
        self.locks[shard].with(m, |m| {
            self.probe(m, key, |m, va, t| {
                assert_ne!(t, 0, "key {key} missing from the table");
                if t != tag {
                    return Ok(None);
                }
                m.try_store(va + 4, serial as u32)?;
                let base = Self::value_base(key, serial);
                for i in 0..VALUE_WORDS {
                    m.try_store(va + 4 * (2 + i) as u64, base.wrapping_add(i as u32))?;
                }
                Ok(Some(()))
            })
        })
    }

    /// Sweeps the quiesced table: asserts every occupied slot's value is
    /// a consistent single write (tag, version, and the arithmetic
    /// progression `base(key, version) + i` agree) and folds the
    /// contents into a checksum. Run from one processor after the
    /// workers have finished.
    ///
    /// # Panics
    ///
    /// Panics on a torn or corrupt slot — that is the post-chaos
    /// correctness condition.
    pub fn verify<M: ServerMem>(&self, m: &mut M) -> platinum::Result<KvAudit> {
        let mut occupied = 0u64;
        let mut checksum = 0u64;
        for shard in 0..self.cfg.shards {
            for idx in 0..self.cfg.slots_per_shard {
                let va = self.slot_va(shard, idx);
                let tag = m.try_load(va)?;
                if tag == 0 {
                    continue;
                }
                occupied += 1;
                let key = (tag - 1) as u64;
                assert_eq!(
                    self.shard_of(key),
                    shard,
                    "key {key} filed under the wrong shard"
                );
                let serial = m.try_load(va + 4)? as u64;
                let base = Self::value_base(key, serial);
                let mut slot_sum = 0u64;
                for i in 0..VALUE_WORDS {
                    let w = m.try_load(va + 4 * (2 + i) as u64)?;
                    assert_eq!(
                        w,
                        base.wrapping_add(i as u32),
                        "torn value: key {key} serial {serial} word {i}"
                    );
                    slot_sum += w as u64;
                }
                checksum = checksum
                    .rotate_left(1)
                    .wrapping_add(tag as u64 ^ (serial << 32) ^ slot_sum);
            }
        }
        Ok(KvAudit { occupied, checksum })
    }
}

impl Workload for KvTable {
    fn populate<M: ServerMem>(
        &self,
        m: &mut M,
        worker: usize,
        workers: usize,
    ) -> platinum::Result<()> {
        self.populate_owned(m, worker, workers)
    }

    fn execute<M: ServerMem>(&self, m: &mut M, req: &Request) -> platinum::Result<()> {
        if req.write {
            self.put(m, req.key % self.cfg.keys, req.serial)
        } else {
            self.get(m, req.key % self.cfg.keys).map(|_| ())
        }
    }

    fn class(&self, req: &Request) -> u8 {
        req.write as u8
    }

    fn shards(&self) -> usize {
        self.cfg.shards
    }

    fn shard_of(&self, key: u64) -> usize {
        KvTable::shard_of(self, key % self.cfg.keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::mem_iface::test_support::FlatMem;

    fn table(keys: u64, shards: usize) -> (KvTable, FlatMem) {
        let cfg = KvConfig::for_keys(keys, shards);
        let page_words = 1024;
        let mut data = Zone::new(
            0x1_0000,
            cfg.table_pages(page_words) * page_words,
            page_words,
        );
        let mut locks = Zone::new(0x4000_0000, cfg.lock_pages() * page_words, page_words);
        (
            KvTable::layout(cfg, &mut data, &mut locks),
            FlatMem::new(0, 1),
        )
    }

    #[test]
    fn insert_get_put_roundtrip() {
        let (kv, mut m) = table(500, 4);
        kv.populate_owned(&mut m, 0, 1).unwrap();
        let a = kv.get(&mut m, 123).unwrap();
        kv.put(&mut m, 123, 77).unwrap();
        let b = kv.get(&mut m, 123).unwrap();
        assert_ne!(a, b, "put must change the folded value");
        let audit = kv.verify(&mut m).unwrap();
        assert_eq!(audit.occupied, 500);
    }

    #[test]
    fn checksum_tracks_writes() {
        let (kv, mut m) = table(200, 2);
        kv.populate_owned(&mut m, 0, 1).unwrap();
        let before = kv.verify(&mut m).unwrap();
        kv.put(&mut m, 7, 1).unwrap();
        let after = kv.verify(&mut m).unwrap();
        assert_eq!(before.occupied, after.occupied);
        assert_ne!(before.checksum, after.checksum);
        // Same writes ⇒ same checksum.
        let (kv2, mut m2) = table(200, 2);
        kv2.populate_owned(&mut m2, 0, 1).unwrap();
        kv2.put(&mut m2, 7, 1).unwrap();
        assert_eq!(kv2.verify(&mut m2).unwrap(), after);
    }

    #[test]
    #[should_panic(expected = "torn value")]
    fn verify_catches_torn_writes() {
        let (kv, mut m) = table(100, 2);
        kv.populate_owned(&mut m, 0, 1).unwrap();
        // Corrupt one value word of key 5 behind the table's back.
        let shard = kv.shard_of(5);
        for idx in 0..kv.cfg.slots_per_shard {
            let va = kv.slot_va(shard, idx);
            if *m.words.get(&va).unwrap_or(&0) == 6 {
                let word = va + 4 * 3;
                let old = *m.words.get(&word).unwrap();
                m.words.insert(word, old ^ 0x8000_0000);
                break;
            }
        }
        let _ = kv.verify(&mut m);
    }

    #[test]
    fn populate_partition_covers_all_keys() {
        let (kv, mut m) = table(300, 8);
        for w in 0..3 {
            kv.populate_owned(&mut m, w, 3).unwrap();
        }
        assert_eq!(kv.verify(&mut m).unwrap().occupied, 300);
        for key in [0u64, 1, 150, 299] {
            kv.get(&mut m, key).unwrap();
        }
    }
}
