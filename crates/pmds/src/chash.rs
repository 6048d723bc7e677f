//! Resizable concurrent durable hash table with detectable recovery.
//!
//! The WHISPER stores that matter most — Memcached's object table,
//! Redis's keyspace — are hash tables that *grow* while serving
//! traffic. This structure implements the clevel-style approach: two
//! bucket directories coexist during a resize, and every writer
//! migrates a few buckets of the old directory before touching the
//! new one ("help along"), so the resize is incremental, concurrent
//! with normal operations, and never needs a stop-the-world pass.
//!
//! Crash-consistency discipline (no transaction engine; everything is
//! line-granular old-or-new):
//!
//! * Nodes are single 64-byte lines, written completely in the epoch
//!   *before* the single pointer store that links them — a node is
//!   never half-visible.
//! * The table is prepend-only: an upsert links a fresh version at
//!   the bucket head (lookups stop at the first match, so the newest
//!   version wins) and a remove links a tombstone version. Nothing is
//!   ever unlinked in place, so readers can never observe a torn
//!   chain.
//! * All resize state — both directory pointers, both sizes, the
//!   migration watermark, the allocation cursor — lives in the one
//!   header line, so each transition (start resize, advance the
//!   watermark, finish resize) is a single atomic line update.
//! * Bucket migration copies nodes (never modifies the old
//!   directory), bumps the watermark only after the copies are
//!   fenced, and is idempotent: a re-run after a crash skips keys the
//!   new directory already holds.
//!
//! Detectability: every upsert and remove runs the announce protocol
//! of [`crate::header`] (shared with [`crate::DurableQueue`]) around
//! its link; [`CHash::recover`] reports, per in-flight operation,
//! whether it completed, was rolled forward, or was discarded.

use crate::header::{self, Announces, OpFate, Recovery, NODE_SEQ};
use crate::{fnv1a, DsError};
use memsim::{Machine, PmWriter};
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};

const MAGIC: u64 = 0x5043_4841_5348_3156; // "PCHASH1V"

// Header line layout: exactly 64 bytes. The resize fields are
// contiguous so each resize transition (start, finish) is ONE store —
// a crash can split distinct stores to the same line, but never one
// store.
const H_MAGIC: u64 = 0;
const H_DIR: u64 = 8;
const H_NBUCKETS: u64 = 16;
const H_NEW_DIR: u64 = 24;
const H_NEW_NBUCKETS: u64 = 32;
const H_MIGRATED: u64 = 40;
const H_CURSOR: u64 = 48;
const H_SLOTS: u64 = 56;

// Node line layout (single 64-byte line).
const N_NEXT: u64 = 0;
const N_SEQ: u64 = NODE_SEQ;
const N_KLEN: u64 = 16;
const N_VLEN: u64 = 20;
const N_PAYLOAD: u64 = 24;

/// Largest key+value an inline single-line node can carry.
pub const CHASH_MAX_ITEM: usize = 40;

/// Value-length marker for a tombstone (removed key) version.
const TOMBSTONE: u32 = u32::MAX;

/// Grow when `count > GROW_NUM * nbuckets` (chains of ~2 on average).
const GROW_NUM: u64 = 2;
/// Old buckets each writer migrates per operation, beyond its own.
const MIGRATE_BATCH: u64 = 2;

/// A resizable concurrent durable hash table: prepend-only versioned
/// chains, two-directory incremental migration, per-slot announces.
///
/// `count` is a volatile estimate (rebuilt on [`CHash::open`]) used
/// only to trigger growth; correctness never depends on it.
#[derive(Debug, Clone)]
pub struct CHash {
    head: Addr,
    slots: u64,
    region: AddrRange,
    count: u64,
}

impl CHash {
    /// Bytes of PM for the header, `slots` announce lines, and
    /// `arena_lines` 64-byte lines shared by directories and nodes.
    pub fn region_bytes(slots: u32, arena_lines: u64) -> u64 {
        Announces::new(0, u64::from(slots)).end() + arena_lines * 64
    }

    fn announces(&self) -> Announces {
        Announces::new(self.head, self.slots)
    }

    fn arena(&self) -> Addr {
        self.announces().end()
    }

    fn arena_lines(&self) -> u64 {
        (self.region.end() - self.arena()) / 64
    }

    /// Allocate `lines` fresh 64-byte lines from the bump cursor and
    /// durably publish the bump (fresh lines are never-written PM, so
    /// they read as zero). Returns the base address.
    fn alloc_lines(
        &self,
        m: &mut Machine,
        w: &mut PmWriter,
        tid: Tid,
        lines: u64,
    ) -> Result<Addr, DsError> {
        let cursor = m.load_u64(tid, self.head + H_CURSOR);
        if cursor + lines > self.arena_lines() {
            return Err(DsError::Full {
                capacity: self.arena_lines(),
            });
        }
        w.write_u64(m, self.head + H_CURSOR, cursor + lines, Category::AllocMeta);
        Ok(self.arena() + cursor * 64)
    }

    /// Create a fresh table in `region` (never-written, zeroed PM).
    ///
    /// # Errors
    ///
    /// [`DsError::Full`] if the region cannot hold the initial
    /// directory.
    ///
    /// # Panics
    ///
    /// Panics on a zero `slots`/`nbuckets` or an undersized region.
    pub fn create(
        m: &mut Machine,
        tid: Tid,
        region: AddrRange,
        slots: u32,
        nbuckets: u64,
    ) -> Result<CHash, DsError> {
        assert!(slots > 0, "need at least one writer slot");
        assert!(nbuckets > 0, "need at least one bucket");
        assert!(
            region.len >= Self::region_bytes(slots, nbuckets.div_ceil(8) + 8),
            "region too small"
        );
        let table = CHash {
            head: region.base,
            slots: u64::from(slots),
            region,
            count: 0,
        };
        let mut w = PmWriter::new(tid);
        let dir_lines = (nbuckets * 8).div_ceil(64);
        let dir = table.alloc_lines(m, &mut w, tid, dir_lines)?;
        w.write_u64(m, region.base + H_DIR, dir, Category::AppMeta);
        w.write_u64(m, region.base + H_NBUCKETS, nbuckets, Category::AppMeta);
        w.write_u64(m, region.base + H_SLOTS, table.slots, Category::AppMeta);
        // Magic last on the same line: header valid atomically.
        w.write_u64(m, region.base + H_MAGIC, MAGIC, Category::AppMeta);
        w.durability_fence(m);
        Ok(table)
    }

    /// Re-attach after a crash. Call [`CHash::recover`] next.
    ///
    /// # Errors
    ///
    /// [`DsError::BadHeader`] if `region` does not hold a table.
    pub fn open(m: &mut Machine, tid: Tid, region: AddrRange) -> Result<CHash, DsError> {
        header::open(m, tid, region.base + H_MAGIC, MAGIC)?;
        let slots = m.load_u64(tid, region.base + H_SLOTS);
        let mut table = CHash {
            head: region.base,
            slots,
            region,
            count: 0,
        };
        table.count = table.live_count(m, tid);
        Ok(table)
    }

    /// The directory and bucket index a key currently routes to.
    /// During a resize, buckets below the watermark route to the new
    /// directory; the rest still route to the old one.
    fn route(&self, m: &mut Machine, tid: Tid, hash: u64) -> (Addr, u64) {
        let dir = m.load_u64(tid, self.head + H_DIR);
        let nb = m.load_u64(tid, self.head + H_NBUCKETS);
        let new_dir = m.load_u64(tid, self.head + H_NEW_DIR);
        if new_dir == 0 {
            return (dir, hash % nb);
        }
        let migrated = m.load_u64(tid, self.head + H_MIGRATED);
        let old_b = hash % nb;
        if old_b < migrated {
            let new_nb = m.load_u64(tid, self.head + H_NEW_NBUCKETS);
            (new_dir, hash % new_nb)
        } else {
            (dir, old_b)
        }
    }

    /// First (newest) version of `key` in the chain at `bucket_head`,
    /// or 0. Tombstones are returned like any version.
    fn find_in_bucket(&self, m: &mut Machine, tid: Tid, bucket: Addr, key: &[u8]) -> Addr {
        let mut node = m.load_u64(tid, bucket);
        while node != 0 {
            let klen = m.load_u32(tid, node + N_KLEN) as usize;
            if klen == key.len() && m.load_vec(tid, node + N_PAYLOAD, klen) == key {
                return node;
            }
            node = m.load_u64(tid, node + N_NEXT);
        }
        0
    }

    /// Migrate old bucket `b` into the new directory: copy the newest
    /// version of every key (tombstones included, so deletions don't
    /// resurrect), oldest-last so the copies preserve recency order.
    /// Never modifies the old directory; idempotent, so a crashed
    /// migration simply re-runs.
    fn migrate_bucket(
        &self,
        m: &mut Machine,
        w: &mut PmWriter,
        tid: Tid,
        b: u64,
    ) -> Result<(), DsError> {
        let dir = m.load_u64(tid, self.head + H_DIR);
        let new_dir = m.load_u64(tid, self.head + H_NEW_DIR);
        let new_nb = m.load_u64(tid, self.head + H_NEW_NBUCKETS);

        // Collect the newest version of each key, head-first.
        let mut node = m.load_u64(tid, dir + b * 8);
        let mut newest: Vec<(Vec<u8>, Addr)> = Vec::new();
        while node != 0 {
            let klen = m.load_u32(tid, node + N_KLEN) as usize;
            let key = m.load_vec(tid, node + N_PAYLOAD, klen);
            if !newest.iter().any(|(k, _)| *k == key) {
                newest.push((key, node));
            }
            node = m.load_u64(tid, node + N_NEXT);
        }

        // Copy epoch: write every copy line (skipping keys the new
        // directory already holds from a torn earlier attempt), then
        // one fence; link epoch: bucket-head stores, then one fence.
        let mut links: Vec<(Addr, Addr)> = Vec::new(); // (bucket slot, node)
        for (key, src) in newest.iter().rev() {
            let nb_addr = new_dir + (fnv1a(key) % new_nb) * 8;
            if self.find_in_bucket(m, tid, nb_addr, key) != 0 {
                continue;
            }
            let seq = m.load_u64(tid, *src + N_SEQ);
            let vlen = m.load_u32(tid, *src + N_VLEN);
            let val = if vlen == TOMBSTONE {
                Vec::new()
            } else {
                m.load_vec(tid, *src + N_PAYLOAD + key.len() as u64, vlen as usize)
            };
            // The head this copy will chain behind: a link from this
            // same batch if one targets the bucket, else the durable
            // head.
            let next = links
                .iter()
                .rev()
                .find(|(slot, _)| *slot == nb_addr)
                .map(|&(_, n)| n)
                .unwrap_or_else(|| m.load_u64(tid, nb_addr));
            let copy = self.alloc_lines(m, w, tid, 1)?;
            self.write_node(m, w, copy, next, seq, key, &val, vlen == TOMBSTONE);
            links.push((nb_addr, copy));
        }
        if !links.is_empty() {
            w.durability_fence(m);
            // Last link per bucket wins (it chains to the earlier ones).
            for (slot, node) in &links {
                w.write_u64(m, *slot, *node, Category::UserData);
            }
            w.durability_fence(m);
        }
        Ok(())
    }

    /// Help the resize along: migrate up to `MIGRATE_BATCH` buckets at
    /// the watermark plus (if given) the bucket `hash` routes to, then
    /// advance the watermark / finish the resize.
    fn help_migrate(
        &mut self,
        m: &mut Machine,
        w: &mut PmWriter,
        tid: Tid,
        hash: Option<u64>,
    ) -> Result<(), DsError> {
        if m.load_u64(tid, self.head + H_NEW_DIR) == 0 {
            return Ok(());
        }
        let nb = m.load_u64(tid, self.head + H_NBUCKETS);
        let mut migrated = m.load_u64(tid, self.head + H_MIGRATED);
        // The contiguous watermark batch.
        let batch_end = (migrated + MIGRATE_BATCH).min(nb);
        // Make sure the key's own bucket is covered this round, so the
        // caller can insert into the new directory immediately.
        let own = hash.map(|h| h % nb);
        for b in migrated..batch_end {
            self.migrate_bucket(m, w, tid, b)?;
        }
        if let Some(own_b) = own {
            if own_b >= batch_end {
                self.migrate_bucket(m, w, tid, own_b)?;
                // Out-of-order single bucket: copies are durable and
                // idempotent, but the watermark can only advance
                // contiguously, so it stays put. The caller still
                // can't use the new bucket (route() follows the
                // watermark); migrate everything up to it instead.
                for b in batch_end..own_b {
                    self.migrate_bucket(m, w, tid, b)?;
                }
                migrated = own_b + 1;
            } else {
                migrated = batch_end;
            }
        } else {
            migrated = batch_end;
        }
        // Watermark epoch: a single header-line store after the copies
        // fenced.
        w.write_u64(m, self.head + H_MIGRATED, migrated, Category::AppMeta);
        w.durability_fence(m);
        if migrated == nb {
            // Finish: swing the directory. DIR..MIGRATED are
            // contiguous, so the whole transition is one store —
            // atomic even against a mid-epoch crash snapshot.
            let new_dir = m.load_u64(tid, self.head + H_NEW_DIR);
            let new_nb = m.load_u64(tid, self.head + H_NEW_NBUCKETS);
            // DIR, NBUCKETS, NEW_DIR, NEW_NBUCKETS, MIGRATED.
            let buf = [new_dir, new_nb, 0, 0, 0].map(u64::to_le_bytes).concat();
            w.write(m, self.head + H_DIR, &buf, Category::AppMeta);
            w.durability_fence(m);
        }
        Ok(())
    }

    /// Begin a resize to double the bucket count, if none is active
    /// and the arena can hold the new directory.
    fn maybe_start_resize(&mut self, m: &mut Machine, tid: Tid) -> Result<(), DsError> {
        if m.load_u64(tid, self.head + H_NEW_DIR) != 0 {
            return Ok(());
        }
        let nb = m.load_u64(tid, self.head + H_NBUCKETS);
        if self.count <= GROW_NUM * nb {
            return Ok(());
        }
        let new_nb = nb * 2;
        let mut w = PmWriter::new(tid);
        let dir_lines = (new_nb * 8).div_ceil(64);
        let new_dir = match self.alloc_lines(m, &mut w, tid, dir_lines) {
            Ok(a) => a,
            // Out of arena: keep serving with longer chains.
            Err(DsError::Full { .. }) => return Ok(()),
            Err(e) => return Err(e),
        };
        // NEW_DIR..MIGRATED are contiguous: the start transition is
        // one store, atomic at any crash point.
        let buf = [new_dir, new_nb, 0].map(u64::to_le_bytes).concat();
        w.write(m, self.head + H_NEW_DIR, &buf, Category::AppMeta);
        w.durability_fence(m);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)] // writer + machine plumbing
    fn write_node(
        &self,
        m: &mut Machine,
        w: &mut PmWriter,
        node: Addr,
        next: Addr,
        seq: u64,
        key: &[u8],
        val: &[u8],
        tombstone: bool,
    ) {
        let vlen = if tombstone {
            TOMBSTONE
        } else {
            val.len() as u32
        };
        let mut line = Vec::with_capacity(N_PAYLOAD as usize + key.len() + val.len());
        line.extend_from_slice(&next.to_le_bytes());
        line.extend_from_slice(&seq.to_le_bytes());
        line.extend_from_slice(&(key.len() as u32).to_le_bytes());
        line.extend_from_slice(&vlen.to_le_bytes());
        line.extend_from_slice(key);
        line.extend_from_slice(val);
        w.write(m, node, &line, Category::UserData);
    }

    /// The version-prepend shared by upsert and remove.
    #[allow(clippy::too_many_arguments)]
    fn put_version(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        slot: u32,
        seq: u64,
        key: &[u8],
        val: &[u8],
        tombstone: bool,
    ) -> Result<bool, DsError> {
        header::check_slot(slot, self.slots as u32)?;
        assert!(seq != 0, "sequence tags start at 1");
        if key.len() + val.len() > CHASH_MAX_ITEM {
            return Err(DsError::TooLarge {
                len: key.len() + val.len(),
            });
        }
        let hash = fnv1a(key);
        let mut w = PmWriter::new(tid);
        self.maybe_start_resize(m, tid)?;
        self.help_migrate(m, &mut w, tid, Some(hash))?;

        let (dir, b) = self.route(m, tid, hash);
        let bucket = dir + b * 8;
        let prior = self.find_in_bucket(m, tid, bucket, key);
        let existed = prior != 0 && m.load_u32(tid, prior + N_VLEN) != TOMBSTONE;

        // Prepare epoch: node line + cursor bump + announce, one fence.
        let head = m.load_u64(tid, bucket);
        let node = self.alloc_lines(m, &mut w, tid, 1)?;
        self.write_node(m, &mut w, node, head, seq, key, val, tombstone);
        self.announces().publish(m, &mut w, slot, node, seq);

        // Link epoch: one bucket-head store publishes the version.
        w.write_u64(m, bucket, node, Category::UserData);
        w.durability_fence(m);

        self.announces().retire(m, &mut w, slot);

        if tombstone {
            self.count = self.count.saturating_sub(u64::from(existed));
        } else {
            self.count += u64::from(!existed);
        }
        Ok(!existed)
    }

    /// Insert or replace `key`, tagging the version with the non-zero
    /// application sequence `seq`. Returns `true` if the key was new.
    ///
    /// # Errors
    ///
    /// [`DsError::BadSlot`], [`DsError::TooLarge`], or
    /// [`DsError::Full`] when the arena is exhausted.
    pub fn upsert(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        slot: u32,
        seq: u64,
        key: &[u8],
        val: &[u8],
    ) -> Result<bool, DsError> {
        self.put_version(m, tid, slot, seq, key, val, false)
    }

    /// Remove `key` (links a tombstone version). Returns whether the
    /// key was present.
    ///
    /// # Errors
    ///
    /// Same as [`CHash::upsert`].
    pub fn remove(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        slot: u32,
        seq: u64,
        key: &[u8],
    ) -> Result<bool, DsError> {
        Ok(!self.put_version(m, tid, slot, seq, key, &[], true)?)
    }

    /// Look up `key`. During a resize a not-yet-migrated bucket is
    /// consulted in the old directory, so reads never block on the
    /// migration.
    pub fn get(&self, m: &mut Machine, tid: Tid, key: &[u8]) -> Option<Vec<u8>> {
        let hash = fnv1a(key);
        let (dir, b) = self.route(m, tid, hash);
        let node = self.find_in_bucket(m, tid, dir + b * 8, key);
        if node == 0 {
            return None;
        }
        let vlen = m.load_u32(tid, node + N_VLEN);
        if vlen == TOMBSTONE {
            return None;
        }
        Some(m.load_vec(tid, node + N_PAYLOAD + key.len() as u64, vlen as usize))
    }

    /// Live (non-tombstoned) key count — a full scan; the cheap
    /// volatile estimate drives resizing instead.
    pub fn live_count(&self, m: &mut Machine, tid: Tid) -> u64 {
        let mut n = 0;
        self.for_each(m, tid, |_, _| n += 1);
        n
    }

    /// Visit the newest live version of every key.
    pub fn for_each(&self, m: &mut Machine, tid: Tid, mut f: impl FnMut(&[u8], &[u8])) {
        let dir = m.load_u64(tid, self.head + H_DIR);
        let nb = m.load_u64(tid, self.head + H_NBUCKETS);
        let new_dir = m.load_u64(tid, self.head + H_NEW_DIR);
        let migrated = if new_dir == 0 {
            0
        } else {
            m.load_u64(tid, self.head + H_MIGRATED)
        };
        let visit_chain = |m: &mut Machine, head_slot: Addr, f: &mut dyn FnMut(&[u8], &[u8])| {
            let mut seen: Vec<Vec<u8>> = Vec::new();
            let mut node = m.load_u64(tid, head_slot);
            while node != 0 {
                let klen = m.load_u32(tid, node + N_KLEN) as usize;
                let key = m.load_vec(tid, node + N_PAYLOAD, klen);
                if !seen.contains(&key) {
                    let vlen = m.load_u32(tid, node + N_VLEN);
                    if vlen != TOMBSTONE {
                        let v = m.load_vec(tid, node + N_PAYLOAD + klen as u64, vlen as usize);
                        f(&key, &v);
                    }
                    seen.push(key);
                }
                node = m.load_u64(tid, node + N_NEXT);
            }
        };
        if new_dir != 0 {
            let new_nb = m.load_u64(tid, self.head + H_NEW_NBUCKETS);
            for b in 0..new_nb {
                // Keys in the new directory are exactly those whose old
                // bucket is below the watermark.
                let mut g = |k: &[u8], v: &[u8]| {
                    if fnv1a(k) % nb < migrated {
                        f(k, v);
                    }
                };
                visit_chain(m, new_dir + b * 8, &mut g);
            }
        }
        for b in migrated..nb {
            visit_chain(m, dir + b * 8, &mut f);
        }
    }

    /// Resolve in-flight operations after a crash: roll forward
    /// prepared-but-unlinked versions, detect completed ones, discard
    /// torn preparations, and repair the allocation cursor. Idempotent.
    pub fn recover(&mut self, m: &mut Machine, tid: Tid) -> Recovery {
        let mut w = PmWriter::new(tid);

        // Repair the cursor first: it must clear every reachable node
        // and both directories.
        let arena = self.arena();
        let mut cursor = m.load_u64(tid, self.head + H_CURSOR);
        let clear = |addr: Addr, lines: u64, cursor: &mut u64| {
            if addr != 0 {
                *cursor = (*cursor).max((addr - arena) / 64 + lines);
            }
        };
        let dir = m.load_u64(tid, self.head + H_DIR);
        let nb = m.load_u64(tid, self.head + H_NBUCKETS);
        clear(dir, (nb * 8).div_ceil(64), &mut cursor);
        let new_dir = m.load_u64(tid, self.head + H_NEW_DIR);
        if new_dir != 0 {
            let new_nb = m.load_u64(tid, self.head + H_NEW_NBUCKETS);
            clear(new_dir, (new_nb * 8).div_ceil(64), &mut cursor);
        }
        let walk_dir = |m: &mut Machine, d: Addr, n: u64, cursor: &mut u64| {
            for b in 0..n {
                let mut node = m.load_u64(tid, d + b * 8);
                while node != 0 {
                    clear(node, 1, cursor);
                    node = m.load_u64(tid, node + N_NEXT);
                }
            }
        };
        walk_dir(m, dir, nb, &mut cursor);
        if new_dir != 0 {
            let new_nb = m.load_u64(tid, self.head + H_NEW_NBUCKETS);
            walk_dir(m, new_dir, new_nb, &mut cursor);
        }

        let report = self.announces().recover(m, &mut w, |m, w, _, node, seq| {
            if !header::prepared(m, tid, node, seq) {
                return OpFate::Discarded;
            }
            let klen = m.load_u32(tid, node + N_KLEN) as usize;
            let key = m.load_vec(tid, node + N_PAYLOAD, klen);
            let (d, b) = self.route(m, tid, fnv1a(&key));
            let bucket = d + b * 8;
            // Linked iff it is on its bucket chain.
            let mut cur = m.load_u64(tid, bucket);
            while cur != 0 {
                if cur == node {
                    return OpFate::Completed;
                }
                cur = m.load_u64(tid, cur + N_NEXT);
            }
            // Roll forward: re-prepend (the node's stored next may be
            // stale only if another version linked after it was
            // prepared — impossible, the slot owner had at most one op
            // in flight and other slots' links happened before this
            // prepare).
            clear(node, 1, &mut cursor);
            let head = m.load_u64(tid, bucket);
            w.write_u64(m, node + N_NEXT, head, Category::UserData);
            w.durability_fence(m);
            w.write_u64(m, bucket, node, Category::UserData);
            w.durability_fence(m);
            OpFate::RolledForward
        });
        w.write_u64(m, self.head + H_CURSOR, cursor, Category::AllocMeta);
        w.durability_fence(m);
        self.count = self.live_count(m, tid);
        report
    }

    /// Current bucket count (the new directory's during a resize).
    pub fn nbuckets(&self, m: &mut Machine, tid: Tid) -> u64 {
        let new_nb = m.load_u64(tid, self.head + H_NEW_NBUCKETS);
        if new_nb != 0 {
            new_nb
        } else {
            m.load_u64(tid, self.head + H_NBUCKETS)
        }
    }

    /// Whether a resize is in progress.
    pub fn resizing(&self, m: &mut Machine, tid: Tid) -> bool {
        m.load_u64(tid, self.head + H_NEW_DIR) != 0
    }

    /// The volatile live-key estimate.
    pub fn estimated_len(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{CrashCounter, CrashPlan, CrashSpec, MachineConfig};

    const TID: Tid = Tid(0);

    fn region(m: &Machine) -> AddrRange {
        AddrRange::new(m.config().map.pm.base, CHash::region_bytes(4, 4096))
    }

    fn setup() -> (Machine, CHash) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let r = region(&m);
        let t = CHash::create(&mut m, TID, r, 4, 4).unwrap();
        (m, t)
    }

    fn model_check(
        m: &mut Machine,
        t: &CHash,
        model: &std::collections::BTreeMap<Vec<u8>, Vec<u8>>,
    ) {
        for (k, v) in model {
            assert_eq!(t.get(m, TID, k).as_deref(), Some(&v[..]), "key {k:?}");
        }
        let mut seen = 0;
        t.for_each(m, TID, |k, v| {
            assert_eq!(model.get(k).map(|v| &v[..]), Some(v), "scan key {k:?}");
            seen += 1;
        });
        assert_eq!(seen, model.len(), "scan cardinality");
    }

    #[test]
    fn upsert_get_remove_round_trip() {
        let (mut m, mut t) = setup();
        assert!(t.upsert(&mut m, TID, 0, 1, b"k1", b"v1").unwrap());
        assert!(!t.upsert(&mut m, TID, 1, 2, b"k1", b"v2").unwrap());
        assert_eq!(t.get(&mut m, TID, b"k1").as_deref(), Some(&b"v2"[..]));
        assert!(t.remove(&mut m, TID, 2, 3, b"k1").unwrap());
        assert_eq!(t.get(&mut m, TID, b"k1"), None);
        assert!(!t.remove(&mut m, TID, 3, 4, b"k1").unwrap());
        // Reinsert after a tombstone works.
        assert!(t.upsert(&mut m, TID, 0, 5, b"k1", b"v3").unwrap());
        assert_eq!(t.get(&mut m, TID, b"k1").as_deref(), Some(&b"v3"[..]));
    }

    #[test]
    fn rejects_bad_slot_and_oversize() {
        let (mut m, mut t) = setup();
        assert!(matches!(
            t.upsert(&mut m, TID, 4, 1, b"k", b"v"),
            Err(DsError::BadSlot { slot: 4, slots: 4 })
        ));
        let big = vec![0u8; CHASH_MAX_ITEM];
        assert!(matches!(
            t.upsert(&mut m, TID, 0, 1, b"k", &big),
            Err(DsError::TooLarge { .. })
        ));
    }

    #[test]
    fn grows_through_multiple_resizes_without_losing_keys() {
        let (mut m, mut t) = setup();
        let mut model = std::collections::BTreeMap::new();
        // 4 initial buckets, grow threshold 2x: 60 keys force several
        // doublings, exercising migration from all four writer slots.
        for i in 0..60u64 {
            let k = format!("key-{i:03}").into_bytes();
            let v = format!("val-{i}").into_bytes();
            t.upsert(&mut m, TID, (i % 4) as u32, i + 1, &k, &v)
                .unwrap();
            model.insert(k, v);
        }
        assert!(t.nbuckets(&mut m, TID) > 4, "table never grew");
        // Updates and removes through and after the resizes.
        for i in (0..60u64).step_by(3) {
            let k = format!("key-{i:03}").into_bytes();
            if i % 2 == 0 {
                let v = format!("VAL-{i}").into_bytes();
                t.upsert(&mut m, TID, (i % 4) as u32, 100 + i, &k, &v)
                    .unwrap();
                model.insert(k, v);
            } else {
                t.remove(&mut m, TID, (i % 4) as u32, 100 + i, &k).unwrap();
                model.remove(&k);
            }
        }
        // Drive any in-flight migration to completion.
        let mut spins = 0;
        while t.resizing(&mut m, TID) {
            let mut w = PmWriter::new(TID);
            t.help_migrate(&mut m, &mut w, TID, None).unwrap();
            spins += 1;
            assert!(spins < 1000, "migration never finished");
        }
        model_check(&mut m, &t, &model);
    }

    #[test]
    fn reopen_after_clean_crash_preserves_contents() {
        let (mut m, mut t) = setup();
        for i in 0..20u64 {
            t.upsert(
                &mut m,
                TID,
                0,
                i + 1,
                format!("k{i}").as_bytes(),
                format!("v{i}").as_bytes(),
            )
            .unwrap();
        }
        let r = region(&m);
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let mut t2 = CHash::open(&mut m2, TID, r).unwrap();
        let report = t2.recover(&mut m2, TID);
        assert!(report.ops.is_empty());
        assert_eq!(t2.live_count(&mut m2, TID), 20);
        for i in 0..20u64 {
            assert_eq!(
                t2.get(&mut m2, TID, format!("k{i}").as_bytes()).as_deref(),
                Some(format!("v{i}").as_bytes())
            );
        }
    }

    #[test]
    fn open_rejects_garbage() {
        let mut m = Machine::new(MachineConfig::asplos17());
        let r = region(&m);
        assert!(matches!(
            CHash::open(&mut m, TID, r),
            Err(DsError::BadHeader { .. })
        ));
    }

    /// Crash at every PM event of an in-flight upsert under the crash
    /// lattice: committed keys always readable, the in-flight key
    /// either wholly present or absent, recovery report says which.
    #[test]
    fn crash_at_every_point_of_an_upsert_is_detectable() {
        let mut rolled = 0u32;
        let mut discarded = 0u32;
        let (mut m, mut t) = setup();
        let r = region(&m);
        t.upsert(&mut m, TID, 0, 1, b"stable", b"old").unwrap();
        m.set_crash_plan(CrashPlan::at_points(
            CrashCounter::PmEvents,
            (1..=30).collect(),
        ));
        t.upsert(&mut m, TID, 1, 2, b"torn", b"new").unwrap();
        let states = m.take_crash_states();
        assert!(!states.is_empty());
        for state in &states {
            for spec in std::iter::once(CrashSpec::DropVolatile)
                .chain(std::iter::once(CrashSpec::PersistAll))
                .chain((1..=8).map(|seed| CrashSpec::Adversarial { seed }))
            {
                let img = state.materialize(spec);
                let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
                let mut t2 = CHash::open(&mut m2, TID, r).unwrap();
                let report = t2.recover(&mut m2, TID);
                assert_eq!(
                    t2.get(&mut m2, TID, b"stable").as_deref(),
                    Some(&b"old"[..]),
                    "{spec:?} at {}: committed key lost",
                    state.at()
                );
                let torn = t2.get(&mut m2, TID, b"torn");
                for (slot, seq, fate) in &report.ops {
                    assert_eq!((*slot, *seq), (1, 2));
                    match fate {
                        OpFate::RolledForward => {
                            rolled += 1;
                            assert_eq!(torn.as_deref(), Some(&b"new"[..]));
                        }
                        OpFate::Discarded => {
                            discarded += 1;
                            assert_eq!(torn, None);
                        }
                        OpFate::Completed => {
                            assert_eq!(torn.as_deref(), Some(&b"new"[..]));
                        }
                    }
                }
                // Post-recovery the table accepts writes.
                t2.upsert(&mut m2, TID, 0, 50, b"post", b"ok").unwrap();
                assert_eq!(t2.get(&mut m2, TID, b"post").as_deref(), Some(&b"ok"[..]));
            }
        }
        assert!(rolled > 0, "no prepared-but-unlinked op rolled forward");
        assert!(discarded > 0, "no torn preparation discarded");
    }

    /// Crash mid-migration at many points: after reopening, every key
    /// is intact regardless of where the copy/watermark/swing stood.
    #[test]
    fn crash_mid_resize_never_loses_keys() {
        let mut model = std::collections::BTreeMap::new();
        let mut m = Machine::new(MachineConfig::asplos17());
        let r = region(&m);
        let mut t = CHash::create(&mut m, TID, r, 4, 4).unwrap();
        for i in 0..9u64 {
            let k = format!("k{i}").into_bytes();
            let v = format!("v{i}").into_bytes();
            t.upsert(&mut m, TID, (i % 4) as u32, i + 1, &k, &v)
                .unwrap();
            model.insert(k, v);
        }
        // With 9 keys in 4 buckets the threshold (2x) is crossed: the
        // next insert starts the resize + migration; crash throughout.
        m.set_crash_plan(CrashPlan::at_points(
            CrashCounter::PmEvents,
            (1..=200).collect(),
        ));
        let k9 = b"k-final".to_vec();
        t.upsert(&mut m, TID, 0, 99, &k9, b"v-final").unwrap();
        let states = m.take_crash_states();
        let mid_resize = states
            .iter()
            .filter(|s| {
                let img = s.materialize(CrashSpec::PersistAll);
                let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
                let t2 = CHash::open(&mut m2, TID, r).unwrap();
                t2.resizing(&mut m2, TID)
            })
            .count();
        assert!(mid_resize > 0, "sweep never caught the resize in flight");
        for state in &states {
            for spec in [
                CrashSpec::DropVolatile,
                CrashSpec::PersistAll,
                CrashSpec::Adversarial { seed: 5 },
            ] {
                let img = state.materialize(spec);
                let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
                let mut t2 = CHash::open(&mut m2, TID, r).unwrap();
                t2.recover(&mut m2, TID);
                for (k, v) in &model {
                    assert_eq!(
                        t2.get(&mut m2, TID, k).as_deref(),
                        Some(&v[..]),
                        "{spec:?} at {}: lost {k:?} mid-resize",
                        state.at()
                    );
                }
                // And the table still functions (including finishing
                // the interrupted migration).
                t2.upsert(&mut m2, TID, 2, 500, b"after", b"crash").unwrap();
                assert_eq!(
                    t2.get(&mut m2, TID, b"after").as_deref(),
                    Some(&b"crash"[..])
                );
            }
        }
    }

    #[test]
    fn recovery_is_idempotent() {
        let (mut m, mut t) = setup();
        let r = region(&m);
        t.upsert(&mut m, TID, 0, 1, b"x", b"y").unwrap();
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let mut t2 = CHash::open(&mut m2, TID, r).unwrap();
        t2.recover(&mut m2, TID);
        let again = t2.recover(&mut m2, TID);
        assert!(again.ops.is_empty());
        assert_eq!(t2.get(&mut m2, TID, b"x").as_deref(), Some(&b"y"[..]));
    }
}
