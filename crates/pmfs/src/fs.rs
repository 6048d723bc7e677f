//! Filesystem operations (the simulated syscall layer).

use crate::journal::Journal;
use crate::layout::*;
use crate::FsError;
use memsim::{Machine, PmWriter};
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};

/// Result of [`Pmfs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// Inode number.
    pub ino: u32,
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Whether this is a directory.
    pub is_dir: bool,
    /// Last-modification time, simulated nanoseconds.
    pub mtime_ns: u64,
}

/// The mounted filesystem. See the crate docs for the design points
/// reproduced from PMFS.
#[derive(Debug, Clone)]
pub struct Pmfs {
    layout: Layout,
    journal: Journal,
    free_block_hint: u64,
    free_inode_hint: u32,
}

impl Pmfs {
    /// Format a fresh filesystem over `region`.
    ///
    /// # Errors
    ///
    /// Currently formatting cannot fail once the region fits the
    /// layout; the `Result` leaves room for richer validation.
    ///
    /// # Panics
    ///
    /// Panics if `region` is too small for `cfg` (see
    /// [`PmfsConfig::default`]: 64 MB is comfortable).
    pub fn mkfs(
        m: &mut Machine,
        tid: Tid,
        region: AddrRange,
        cfg: PmfsConfig,
    ) -> Result<Pmfs, FsError> {
        let layout = Layout::compute(region, cfg);
        let journal = Journal::new(layout.journal, layout.journal_bytes);
        journal.format(m, tid);
        let mut w = PmWriter::new(tid);
        // Superblock.
        w.write_u64(m, layout.base, SB_MAGIC, Category::FsMeta);
        w.write_u64(m, layout.base + 8, cfg.data_blocks, Category::FsMeta);
        w.write_u32(m, layout.base + 16, cfg.inodes, Category::FsMeta);
        w.write_u64(m, layout.base + 24, cfg.journal_bytes, Category::FsMeta);
        // Root directory inode.
        let root = layout.inode_addr(ROOT_INO);
        w.write_u32(m, root + I_MODE, MODE_DIR, Category::FsMeta);
        w.write_u64(m, root + I_SIZE, 0, Category::FsMeta);
        w.durability_fence(m);
        Ok(Pmfs {
            layout,
            journal,
            free_block_hint: 1,
            free_inode_hint: 2,
        })
    }

    /// Mount an existing filesystem, running journal recovery —
    /// the crash path. Returns the filesystem and whether a rollback
    /// occurred.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if `region` holds no filesystem.
    pub fn mount(m: &mut Machine, tid: Tid, region: AddrRange) -> Result<(Pmfs, bool), FsError> {
        if m.load_u64(tid, region.base) != SB_MAGIC {
            return Err(FsError::NotFound {
                path: "<superblock>".into(),
            });
        }
        let cfg = PmfsConfig {
            data_blocks: m.load_u64(tid, region.base + 8),
            inodes: m.load_u32(tid, region.base + 16),
            journal_bytes: m.load_u64(tid, region.base + 24),
        };
        let layout = Layout::compute(region, cfg);
        let mut journal = Journal::new(layout.journal, layout.journal_bytes);
        assert!(journal.is_formatted(m, tid), "superblock without journal");
        let rolled_back = journal.recover(m, tid);
        Ok((
            Pmfs {
                layout,
                journal,
                free_block_hint: 1,
                free_inode_hint: 2,
            },
            rolled_back,
        ))
    }

    // -----------------------------------------------------------------
    // Journaled metadata helpers
    // -----------------------------------------------------------------

    fn meta_write(&mut self, m: &mut Machine, w: &mut PmWriter, addr: Addr, bytes: &[u8]) {
        self.journal.log_old(m, w, addr, bytes.len());
        w.write(m, addr, bytes, Category::FsMeta);
    }

    fn meta_write_u64(&mut self, m: &mut Machine, w: &mut PmWriter, addr: Addr, v: u64) {
        self.meta_write(m, w, addr, &v.to_le_bytes());
    }

    fn meta_write_u32(&mut self, m: &mut Machine, w: &mut PmWriter, addr: Addr, v: u32) {
        self.meta_write(m, w, addr, &v.to_le_bytes());
    }

    // -----------------------------------------------------------------
    // Allocation
    // -----------------------------------------------------------------

    fn alloc_block(&mut self, m: &mut Machine, w: &mut PmWriter) -> Result<u64, FsError> {
        let tid = w.tid();
        let total = self.layout.data_blocks;
        for i in 0..total {
            let block = (self.free_block_hint + i - 1) % total + 1;
            let byte_addr = self.layout.bitmap_byte_addr(block);
            let byte = m.load_vec(tid, byte_addr, 1)[0];
            let mask = 1u8 << ((block - 1) % 8);
            if byte & mask == 0 {
                self.meta_write(m, w, byte_addr, &[byte | mask]);
                self.free_block_hint = block % total + 1;
                return Ok(block);
            }
        }
        Err(FsError::NoSpace)
    }

    fn free_block(&mut self, m: &mut Machine, w: &mut PmWriter, block: u64) {
        let tid = w.tid();
        let byte_addr = self.layout.bitmap_byte_addr(block);
        let byte = m.load_vec(tid, byte_addr, 1)[0];
        let mask = 1u8 << ((block - 1) % 8);
        self.meta_write(m, w, byte_addr, &[byte & !mask]);
    }

    fn alloc_inode(
        &mut self,
        m: &mut Machine,
        w: &mut PmWriter,
        mode: u32,
    ) -> Result<u32, FsError> {
        let tid = w.tid();
        let total = self.layout.inodes;
        for i in 0..total {
            let ino = (self.free_inode_hint + i - 2) % (total - 1) + 2; // skip root
            let addr = self.layout.inode_addr(ino);
            if m.load_u32(tid, addr + I_MODE) == MODE_FREE {
                self.meta_write_u32(m, w, addr + I_MODE, mode);
                self.meta_write_u64(m, w, addr + I_SIZE, 0);
                self.meta_write_u64(m, w, addr + I_MTIME, m.now_ns());
                self.free_inode_hint = ino % total + 1;
                return Ok(ino);
            }
        }
        Err(FsError::NoInodes)
    }

    // -----------------------------------------------------------------
    // Block mapping
    // -----------------------------------------------------------------

    /// Block number backing file block index `idx`, or 0 for a hole.
    fn get_block(&self, m: &mut Machine, tid: Tid, ino: u32, idx: u64) -> u64 {
        let inode = self.layout.inode_addr(ino);
        if idx < DIRECT_PTRS {
            m.load_u64(tid, inode + I_DIRECT + idx * 8)
        } else {
            let ind = m.load_u64(tid, inode + I_INDIRECT);
            if ind == 0 {
                return 0;
            }
            m.load_u64(tid, self.layout.block_addr(ind) + (idx - DIRECT_PTRS) * 8)
        }
    }

    /// Ensure file block `idx` is mapped; allocate if needed.
    fn ensure_block(
        &mut self,
        m: &mut Machine,
        w: &mut PmWriter,
        ino: u32,
        idx: u64,
    ) -> Result<u64, FsError> {
        let tid = w.tid();
        let existing = self.get_block(m, tid, ino, idx);
        if existing != 0 {
            return Ok(existing);
        }
        let inode = self.layout.inode_addr(ino);
        let block = self.alloc_block(m, w)?;
        if idx < DIRECT_PTRS {
            self.meta_write_u64(m, w, inode + I_DIRECT + idx * 8, block);
        } else {
            let mut ind = m.load_u64(tid, inode + I_INDIRECT);
            if ind == 0 {
                ind = self.alloc_block(m, w)?;
                // A fresh indirect block must be zeroed; PMFS zeroes
                // pages with non-temporal stores.
                w.write_nt(
                    m,
                    self.layout.block_addr(ind),
                    &[0u8; BLOCK_SIZE as usize],
                    Category::FsMeta,
                );
                w.ordering_fence(m);
                self.meta_write_u64(m, w, inode + I_INDIRECT, ind);
            }
            self.meta_write_u64(
                m,
                w,
                self.layout.block_addr(ind) + (idx - DIRECT_PTRS) * 8,
                block,
            );
        }
        Ok(block)
    }

    // -----------------------------------------------------------------
    // Path resolution & directories
    // -----------------------------------------------------------------

    fn split_path<'a>(&self, path: &'a str) -> Result<Vec<&'a str>, FsError> {
        if !path.starts_with('/') {
            return Err(FsError::BadPath { path: path.into() });
        }
        let parts: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        for p in &parts {
            if p.len() > MAX_NAME {
                return Err(FsError::NameTooLong { name: (*p).into() });
            }
        }
        Ok(parts)
    }

    fn inode_mode(&self, m: &mut Machine, tid: Tid, ino: u32) -> u32 {
        let addr = self.layout.inode_addr(ino);
        m.load_u32(tid, addr + I_MODE)
    }

    /// Scan a directory for `name`. Returns `(child ino, dent addr)`.
    fn lookup(&self, m: &mut Machine, tid: Tid, dir: u32, name: &str) -> Option<(u32, Addr)> {
        let inode = self.layout.inode_addr(dir);
        let size = m.load_u64(tid, inode + I_SIZE);
        let nblocks = size.div_ceil(BLOCK_SIZE);
        for b in 0..nblocks {
            let block = self.get_block(m, tid, dir, b);
            if block == 0 {
                continue;
            }
            let base = self.layout.block_addr(block);
            for slot in 0..BLOCK_SIZE / DENT_SIZE {
                let at = base + slot * DENT_SIZE;
                let child = m.load_u32(tid, at);
                if child == 0 {
                    continue;
                }
                let nlen = m.load_u32(tid, at + 4) as usize;
                let n = m.load_vec(tid, at + 8, nlen);
                if n == name.as_bytes() {
                    return Some((child, at));
                }
            }
        }
        None
    }

    /// Resolve a path to `(inode, parent inode)`. Root has parent root.
    fn resolve(&self, m: &mut Machine, tid: Tid, path: &str) -> Result<(u32, u32), FsError> {
        let parts = self.split_path(path)?;
        let mut cur = ROOT_INO;
        let mut parent = ROOT_INO;
        for (i, part) in parts.iter().enumerate() {
            if self.inode_mode(m, tid, cur) != MODE_DIR {
                return Err(FsError::NotDir {
                    path: parts[..i].join("/"),
                });
            }
            match self.lookup(m, tid, cur, part) {
                Some((child, _)) => {
                    parent = cur;
                    cur = child;
                }
                None => {
                    return Err(FsError::NotFound { path: path.into() });
                }
            }
        }
        Ok((cur, parent))
    }

    fn dir_add(
        &mut self,
        m: &mut Machine,
        w: &mut PmWriter,
        dir: u32,
        name: &str,
        child: u32,
    ) -> Result<(), FsError> {
        let tid = w.tid();
        let inode = self.layout.inode_addr(dir);
        let size = m.load_u64(tid, inode + I_SIZE);
        let nblocks = size.div_ceil(BLOCK_SIZE);
        // Look for a free slot in existing blocks.
        for b in 0..nblocks {
            let block = self.get_block(m, tid, dir, b);
            if block == 0 {
                continue;
            }
            let base = self.layout.block_addr(block);
            for slot in 0..BLOCK_SIZE / DENT_SIZE {
                let at = base + slot * DENT_SIZE;
                if m.load_u32(tid, at) == 0 {
                    return self.write_dent(m, w, at, name, child);
                }
            }
        }
        // Grow the directory by one block.
        if nblocks >= DIRECT_PTRS + INDIRECT_PTRS {
            return Err(FsError::NoSpace);
        }
        let block = self.ensure_block(m, w, dir, nblocks)?;
        // Zero the new directory block so stale entries cannot appear.
        w.write_nt(
            m,
            self.layout.block_addr(block),
            &[0u8; BLOCK_SIZE as usize],
            Category::FsMeta,
        );
        w.ordering_fence(m);
        self.meta_write_u64(m, w, inode + I_SIZE, (nblocks + 1) * BLOCK_SIZE);
        let at = self.layout.block_addr(block);
        self.write_dent(m, w, at, name, child)
    }

    fn write_dent(
        &mut self,
        m: &mut Machine,
        w: &mut PmWriter,
        at: Addr,
        name: &str,
        child: u32,
    ) -> Result<(), FsError> {
        let mut dent = [0u8; DENT_SIZE as usize];
        dent[0..4].copy_from_slice(&child.to_le_bytes());
        dent[4..8].copy_from_slice(&(name.len() as u32).to_le_bytes());
        dent[8..8 + name.len()].copy_from_slice(name.as_bytes());
        self.meta_write(m, w, at, &dent);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Public operations
    // -----------------------------------------------------------------

    /// Create an empty regular file.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`], [`FsError::NotFound`] (missing parent),
    /// [`FsError::NoInodes`], path errors.
    pub fn create(&mut self, m: &mut Machine, tid: Tid, path: &str) -> Result<u32, FsError> {
        self.create_node(m, tid, path, MODE_FILE)
    }

    /// Create a directory.
    ///
    /// # Errors
    ///
    /// As for [`Pmfs::create`].
    pub fn mkdir(&mut self, m: &mut Machine, tid: Tid, path: &str) -> Result<u32, FsError> {
        self.create_node(m, tid, path, MODE_DIR)
    }

    fn create_node(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        path: &str,
        mode: u32,
    ) -> Result<u32, FsError> {
        let parts = self.split_path(path)?;
        let Some((name, parent_parts)) = parts.split_last() else {
            return Err(FsError::Exists { path: path.into() });
        };
        let parent_path = format!("/{}", parent_parts.join("/"));
        let (dir, _) = self.resolve(m, tid, &parent_path)?;
        if self.inode_mode(m, tid, dir) != MODE_DIR {
            return Err(FsError::NotDir { path: parent_path });
        }
        if self.lookup(m, tid, dir, name).is_some() {
            return Err(FsError::Exists { path: path.into() });
        }
        let mut w = PmWriter::new(tid);
        self.journal.begin_op(m, &mut w);
        let ino = self.alloc_inode(m, &mut w, mode)?;
        self.dir_add(m, &mut w, dir, name, ino)?;
        self.journal.end_op(m, &mut w);
        Ok(ino)
    }

    /// Write `data` at byte offset `off`, extending the file as needed.
    /// Data goes to PM with non-temporal stores, synchronously.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsDir`],
    /// [`FsError::FileTooBig`], [`FsError::NoSpace`].
    pub fn write(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        path: &str,
        off: u64,
        data: &[u8],
    ) -> Result<(), FsError> {
        let (ino, _) = self.resolve(m, tid, path)?;
        if self.inode_mode(m, tid, ino) == MODE_DIR {
            return Err(FsError::IsDir { path: path.into() });
        }
        let end = off + data.len() as u64;
        if end > MAX_FILE {
            return Err(FsError::FileTooBig { size: end });
        }
        let mut w = PmWriter::new(tid);
        self.journal.begin_op(m, &mut w);
        // Map and write each affected block. User data is written with
        // NTIs and is not journaled (PMFS does not log user data).
        let mut cursor = off;
        let mut src = 0usize;
        while cursor < end {
            let bidx = cursor / BLOCK_SIZE;
            let boff = cursor % BLOCK_SIZE;
            let chunk = ((BLOCK_SIZE - boff) as usize).min(data.len() - src);
            let block = self.ensure_block(m, &mut w, ino, bidx)?;
            let at = self.layout.block_addr(block) + boff;
            w.write_nt(m, at, &data[src..src + chunk], Category::UserData);
            // One epoch per block write: a 4 KB block is 64 lines.
            w.ordering_fence(m);
            cursor += chunk as u64;
            src += chunk;
        }
        // Update size and mtime under the journal.
        let inode = self.layout.inode_addr(ino);
        let old_size = m.load_u64(tid, inode + I_SIZE);
        if end > old_size {
            self.meta_write_u64(m, &mut w, inode + I_SIZE, end);
        }
        let now = m.now_ns();
        self.meta_write_u64(m, &mut w, inode + I_MTIME, now);
        self.journal.end_op(m, &mut w);
        Ok(())
    }

    /// Append `data` at the end of the file.
    ///
    /// # Errors
    ///
    /// As for [`Pmfs::write`].
    pub fn append(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        path: &str,
        data: &[u8],
    ) -> Result<(), FsError> {
        let (ino, _) = self.resolve(m, tid, path)?;
        let size = m.load_u64(tid, self.layout.inode_addr(ino) + I_SIZE);
        self.write(m, tid, path, size, data)
    }

    /// Read `len` bytes from byte offset `off` (short reads at EOF).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsDir`].
    pub fn read(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        path: &str,
        off: u64,
        len: usize,
    ) -> Result<Vec<u8>, FsError> {
        let (ino, _) = self.resolve(m, tid, path)?;
        if self.inode_mode(m, tid, ino) == MODE_DIR {
            return Err(FsError::IsDir { path: path.into() });
        }
        let size = m.load_u64(tid, self.layout.inode_addr(ino) + I_SIZE);
        let end = (off + len as u64).min(size);
        let mut out = Vec::with_capacity(len);
        let mut cursor = off;
        while cursor < end {
            let bidx = cursor / BLOCK_SIZE;
            let boff = cursor % BLOCK_SIZE;
            let chunk = (BLOCK_SIZE - boff).min(end - cursor) as usize;
            let block = self.get_block(m, tid, ino, bidx);
            if block == 0 {
                out.extend(std::iter::repeat_n(0u8, chunk)); // hole
            } else {
                out.extend(m.load_vec(tid, self.layout.block_addr(block) + boff, chunk));
            }
            cursor += chunk as u64;
        }
        Ok(out)
    }

    /// Read a whole file.
    ///
    /// # Errors
    ///
    /// As for [`Pmfs::read`].
    pub fn read_file(&mut self, m: &mut Machine, tid: Tid, path: &str) -> Result<Vec<u8>, FsError> {
        let (ino, _) = self.resolve(m, tid, path)?;
        let size = m.load_u64(tid, self.layout.inode_addr(ino) + I_SIZE);
        self.read(m, tid, path, 0, size as usize)
    }

    /// File metadata.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], path errors.
    pub fn stat(&mut self, m: &mut Machine, tid: Tid, path: &str) -> Result<FileStat, FsError> {
        let (ino, _) = self.resolve(m, tid, path)?;
        let inode = self.layout.inode_addr(ino);
        Ok(FileStat {
            ino,
            size: m.load_u64(tid, inode + I_SIZE),
            is_dir: m.load_u32(tid, inode + I_MODE) == MODE_DIR,
            mtime_ns: m.load_u64(tid, inode + I_MTIME),
        })
    }

    /// Delete a file, freeing its blocks and inode.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsDir`] (directories are never
    /// removed).
    pub fn unlink(&mut self, m: &mut Machine, tid: Tid, path: &str) -> Result<(), FsError> {
        let parts = self.split_path(path)?;
        let Some((name, parent_parts)) = parts.split_last() else {
            return Err(FsError::IsDir { path: path.into() });
        };
        let parent_path = format!("/{}", parent_parts.join("/"));
        let (dir, _) = self.resolve(m, tid, &parent_path)?;
        let Some((ino, dent)) = self.lookup(m, tid, dir, name) else {
            return Err(FsError::NotFound { path: path.into() });
        };
        if self.inode_mode(m, tid, ino) == MODE_DIR {
            return Err(FsError::IsDir { path: path.into() });
        }
        let mut w = PmWriter::new(tid);
        self.journal.begin_op(m, &mut w);
        self.meta_write_u32(m, &mut w, dent, 0); // clear dent
        let inode = self.layout.inode_addr(ino);
        let size = m.load_u64(tid, inode + I_SIZE);
        for bidx in 0..size.div_ceil(BLOCK_SIZE) {
            let block = self.get_block(m, tid, ino, bidx);
            if block != 0 {
                self.free_block(m, &mut w, block);
            }
        }
        let ind = m.load_u64(tid, inode + I_INDIRECT);
        if ind != 0 {
            self.free_block(m, &mut w, ind);
        }
        // Clear the inode (mode, size, pointers).
        self.meta_write_u32(m, &mut w, inode + I_MODE, MODE_FREE);
        self.meta_write_u64(m, &mut w, inode + I_SIZE, 0);
        self.meta_write(
            m,
            &mut w,
            inode + I_DIRECT,
            &[0u8; (DIRECT_PTRS as usize + 1) * 8],
        );
        self.journal.end_op(m, &mut w);
        Ok(())
    }

    /// List the names in a directory.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::NotDir`].
    pub fn readdir(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        path: &str,
    ) -> Result<Vec<String>, FsError> {
        let (ino, _) = self.resolve(m, tid, path)?;
        if self.inode_mode(m, tid, ino) != MODE_DIR {
            return Err(FsError::NotDir { path: path.into() });
        }
        let inode = self.layout.inode_addr(ino);
        let size = m.load_u64(tid, inode + I_SIZE);
        let mut names = Vec::new();
        for b in 0..size.div_ceil(BLOCK_SIZE) {
            let block = self.get_block(m, tid, ino, b);
            if block == 0 {
                continue;
            }
            let base = self.layout.block_addr(block);
            for slot in 0..BLOCK_SIZE / DENT_SIZE {
                let at = base + slot * DENT_SIZE;
                let child = m.load_u32(tid, at);
                if child != 0 {
                    let nlen = m.load_u32(tid, at + 4) as usize;
                    let n = m.load_vec(tid, at + 8, nlen);
                    names.push(String::from_utf8_lossy(&n).into_owned());
                }
            }
        }
        Ok(names)
    }

    /// Shrink a file to `new_size` (which must not exceed the current
    /// size), freeing whole blocks past the new end.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsDir`],
    /// [`FsError::FileTooBig`] if `new_size` is larger than the file.
    pub fn truncate(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        path: &str,
        new_size: u64,
    ) -> Result<(), FsError> {
        let (ino, _) = self.resolve(m, tid, path)?;
        if self.inode_mode(m, tid, ino) == MODE_DIR {
            return Err(FsError::IsDir { path: path.into() });
        }
        let inode = self.layout.inode_addr(ino);
        let size = m.load_u64(tid, inode + I_SIZE);
        if new_size > size {
            return Err(FsError::FileTooBig { size: new_size });
        }
        let mut w = PmWriter::new(tid);
        self.journal.begin_op(m, &mut w);
        let keep = new_size.div_ceil(BLOCK_SIZE);
        for bidx in keep..size.div_ceil(BLOCK_SIZE) {
            let block = self.get_block(m, tid, ino, bidx);
            if block != 0 {
                self.free_block(m, &mut w, block);
                if bidx < DIRECT_PTRS {
                    self.meta_write_u64(m, &mut w, inode + I_DIRECT + bidx * 8, 0);
                } else {
                    let ind = m.load_u64(tid, inode + I_INDIRECT);
                    self.meta_write_u64(
                        m,
                        &mut w,
                        self.layout.block_addr(ind) + (bidx - DIRECT_PTRS) * 8,
                        0,
                    );
                }
            }
        }
        self.meta_write_u64(m, &mut w, inode + I_SIZE, new_size);
        let now = m.now_ns();
        self.meta_write_u64(m, &mut w, inode + I_MTIME, now);
        self.journal.end_op(m, &mut w);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{CrashSpec, MachineConfig};

    const TID: Tid = Tid(0);

    fn setup() -> (Machine, Pmfs, AddrRange) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let region = AddrRange::new(m.config().map.pm.base, 64 << 20);
        let fs = Pmfs::mkfs(&mut m, TID, region, PmfsConfig::default()).unwrap();
        (m, fs, region)
    }

    #[test]
    fn create_write_read() {
        let (mut m, mut fs, _) = setup();
        fs.create(&mut m, TID, "/a.txt").unwrap();
        fs.write(&mut m, TID, "/a.txt", 0, b"hello pmfs").unwrap();
        assert_eq!(fs.read_file(&mut m, TID, "/a.txt").unwrap(), b"hello pmfs");
        let st = fs.stat(&mut m, TID, "/a.txt").unwrap();
        assert_eq!(st.size, 10);
        assert!(!st.is_dir);
    }

    #[test]
    fn nested_directories() {
        let (mut m, mut fs, _) = setup();
        fs.mkdir(&mut m, TID, "/d1").unwrap();
        fs.mkdir(&mut m, TID, "/d1/d2").unwrap();
        fs.create(&mut m, TID, "/d1/d2/f").unwrap();
        fs.append(&mut m, TID, "/d1/d2/f", b"deep").unwrap();
        assert_eq!(fs.read_file(&mut m, TID, "/d1/d2/f").unwrap(), b"deep");
        assert_eq!(fs.readdir(&mut m, TID, "/d1").unwrap(), vec!["d2"]);
        assert!(fs.stat(&mut m, TID, "/d1").unwrap().is_dir);
    }

    #[test]
    fn errors_surface_correctly() {
        let (mut m, mut fs, _) = setup();
        fs.create(&mut m, TID, "/f").unwrap();
        assert!(matches!(
            fs.create(&mut m, TID, "/f"),
            Err(FsError::Exists { .. })
        ));
        assert!(matches!(
            fs.read_file(&mut m, TID, "/missing"),
            Err(FsError::NotFound { .. })
        ));
        assert!(matches!(
            fs.create(&mut m, TID, "/f/child"),
            Err(FsError::NotDir { .. })
        ));
        assert!(matches!(
            fs.write(&mut m, TID, "/", 0, b"x"),
            Err(FsError::IsDir { .. })
        ));
        assert!(matches!(
            fs.create(&mut m, TID, "no-slash"),
            Err(FsError::BadPath { .. })
        ));
        let long = format!("/{}", "n".repeat(100));
        assert!(matches!(
            fs.create(&mut m, TID, &long),
            Err(FsError::NameTooLong { .. })
        ));
    }

    #[test]
    fn multi_block_files_and_offsets() {
        let (mut m, mut fs, _) = setup();
        fs.create(&mut m, TID, "/big").unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        fs.write(&mut m, TID, "/big", 0, &data).unwrap();
        assert_eq!(fs.read_file(&mut m, TID, "/big").unwrap(), data);
        // Overwrite in the middle, spanning a block boundary.
        fs.write(&mut m, TID, "/big", 4090, &[0xFF; 20]).unwrap();
        let r = fs.read(&mut m, TID, "/big", 4090, 20).unwrap();
        assert_eq!(r, vec![0xFF; 20]);
        assert_eq!(fs.stat(&mut m, TID, "/big").unwrap().size, 10_000);
    }

    #[test]
    fn indirect_blocks_for_large_files() {
        let (mut m, mut fs, _) = setup();
        fs.create(&mut m, TID, "/huge").unwrap();
        // Past the direct range: 12 * 4096 = 49152.
        let off = 13 * 4096;
        fs.write(&mut m, TID, "/huge", off, b"indirect-data")
            .unwrap();
        assert_eq!(
            fs.read(&mut m, TID, "/huge", off, 13).unwrap(),
            b"indirect-data"
        );
        // The hole before it reads as zeros.
        assert_eq!(fs.read(&mut m, TID, "/huge", 0, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn file_too_big_rejected() {
        let (mut m, mut fs, _) = setup();
        fs.create(&mut m, TID, "/f").unwrap();
        assert!(matches!(
            fs.write(&mut m, TID, "/f", MAX_FILE, b"x"),
            Err(FsError::FileTooBig { .. })
        ));
    }

    #[test]
    fn unlink_frees_space_for_reuse() {
        let (mut m, mut fs, _) = setup();
        fs.create(&mut m, TID, "/a").unwrap();
        fs.write(&mut m, TID, "/a", 0, &[1; 8192]).unwrap();
        fs.unlink(&mut m, TID, "/a").unwrap();
        assert!(matches!(
            fs.read_file(&mut m, TID, "/a"),
            Err(FsError::NotFound { .. })
        ));
        // Name and space reusable.
        fs.create(&mut m, TID, "/a").unwrap();
        fs.write(&mut m, TID, "/a", 0, b"new").unwrap();
        assert_eq!(fs.read_file(&mut m, TID, "/a").unwrap(), b"new");
    }

    #[test]
    fn truncate_shrinks() {
        let (mut m, mut fs, _) = setup();
        fs.create(&mut m, TID, "/t").unwrap();
        fs.write(&mut m, TID, "/t", 0, &[7; 9000]).unwrap();
        fs.truncate(&mut m, TID, "/t", 100).unwrap();
        assert_eq!(fs.stat(&mut m, TID, "/t").unwrap().size, 100);
        assert_eq!(fs.read_file(&mut m, TID, "/t").unwrap(), vec![7; 100]);
        assert!(matches!(
            fs.truncate(&mut m, TID, "/t", 200),
            Err(FsError::FileTooBig { .. })
        ));
    }

    #[test]
    fn data_durable_after_write_returns() {
        let (mut m, mut fs, region) = setup();
        fs.create(&mut m, TID, "/d").unwrap();
        fs.write(&mut m, TID, "/d", 0, b"synchronous").unwrap();
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let (mut fs2, rolled_back) = Pmfs::mount(&mut m2, TID, region).unwrap();
        assert!(!rolled_back);
        assert_eq!(fs2.read_file(&mut m2, TID, "/d").unwrap(), b"synchronous");
    }

    #[test]
    fn crash_mid_op_rolls_back_metadata() {
        for seed in 0..20 {
            let (mut m, mut fs, region) = setup();
            fs.create(&mut m, TID, "/keep").unwrap();
            fs.write(&mut m, TID, "/keep", 0, b"safe").unwrap();
            // Start an op and crash before its journal commit: emulate
            // by doing the journaled pieces by hand.
            let mut w = PmWriter::new(TID);
            fs.journal.begin_op(&mut m, &mut w);
            let ino = fs.alloc_inode(&mut m, &mut w, MODE_FILE).unwrap();
            fs.dir_add(&mut m, &mut w, ROOT_INO, "torn", ino).unwrap();
            // No end_op: crash.
            let img = m.crash(CrashSpec::Adversarial { seed });
            let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
            let (mut fs2, _) = Pmfs::mount(&mut m2, TID, region).unwrap();
            assert_eq!(
                fs2.read_file(&mut m2, TID, "/keep").unwrap(),
                b"safe",
                "seed {seed}"
            );
            assert!(
                matches!(
                    fs2.stat(&mut m2, TID, "/torn"),
                    Err(FsError::NotFound { .. })
                ),
                "seed {seed}: torn create must roll back"
            );
            // The filesystem still works after recovery.
            fs2.create(&mut m2, TID, "/after").unwrap();
            fs2.append(&mut m2, TID, "/after", b"ok").unwrap();
            assert_eq!(fs2.read_file(&mut m2, TID, "/after").unwrap(), b"ok");
        }
    }

    #[test]
    fn mount_rejects_unformatted_region() {
        let m = Machine::new(MachineConfig::asplos17());
        let mut m = m;
        let region = AddrRange::new(m.config().map.pm.base + (128 << 20), 64 << 20);
        assert!(matches!(
            Pmfs::mount(&mut m, TID, region),
            Err(FsError::NotFound { .. })
        ));
    }

    #[test]
    fn nt_fraction_is_high_for_block_writes() {
        // Consequence 10: PMFS writes ~96% of bytes with NTIs.
        let (mut m, mut fs, _) = setup();
        fs.create(&mut m, TID, "/data").unwrap();
        for i in 0..8u64 {
            fs.write(&mut m, TID, "/data", i * 4096, &[i as u8; 4096])
                .unwrap();
        }
        let epochs = pmtrace::analysis::split_epochs(m.trace().events());
        let nt = pmtrace::analysis::nt_fraction(&epochs).unwrap();
        assert!(nt > 0.8, "NT fraction {nt} too low");
    }

    #[test]
    fn write_amplification_near_ten_percent() {
        // Section 5.2: ~400 extra bytes per 4096-byte append.
        let (mut m, mut fs, _) = setup();
        fs.create(&mut m, TID, "/amp").unwrap();
        m.trace_mut().clear();
        for i in 0..16u64 {
            fs.append(&mut m, TID, "/amp", &[i as u8; 4096]).unwrap();
        }
        let amp = pmtrace::analysis::Analyzer::analyze_events(m.trace().events())
            .amplification
            .amplification()
            .unwrap();
        assert!(
            amp > 0.02 && amp < 0.5,
            "amplification {amp} out of PMFS range"
        );
    }

    #[test]
    fn many_files_in_directory() {
        let (mut m, mut fs, _) = setup();
        // More files than fit in one 4 KB dir block (64 dents).
        for i in 0..100 {
            fs.create(&mut m, TID, &format!("/f{i}")).unwrap();
        }
        let names = fs.readdir(&mut m, TID, "/").unwrap();
        assert_eq!(names.len(), 100);
        fs.unlink(&mut m, TID, "/f50").unwrap();
        assert_eq!(fs.readdir(&mut m, TID, "/").unwrap().len(), 99);
        // The freed slot is reused.
        fs.create(&mut m, TID, "/reused").unwrap();
        assert_eq!(fs.readdir(&mut m, TID, "/").unwrap().len(), 100);
    }
}
