//! A PMFS-style persistent-memory filesystem.
//!
//! WHISPER's filesystem applications (NFS, Exim, MySQL) run over PMFS,
//! "a Linux filesystem for x86-64 that provides access to PM via system
//! calls ... It exposes PM using files, and persists user data and
//! filesystem metadata synchronously" (Section 3.1). This crate
//! implements the same design points the paper measures:
//!
//! * **4 KB data blocks written with non-temporal stores** — "PMFS
//!   avoids cache pollution when writing user data and for zeroing
//!   pages with NTIs"; a full block write touches 64 cache lines, the
//!   source of Figure 4's large-epoch mode for PMFS applications, and
//!   "about 96% of writes in PMFS use NTIs" (Section 5.2).
//! * **An undo journal for metadata only** — "It employs an undo log to
//!   ensure metadata consistency and uses cacheable stores for metadata
//!   related updates ... It does not guarantee consistency of user
//!   data." Journal status flips (UNCOMMITTED → COMMITTED) and
//!   per-entry clears produce the singleton `LogMeta` epochs and
//!   self-dependencies the paper traces to PMFS. The journal is a
//!   [`pmtx::LogRing`] — the same persistent log the NVML- and
//!   Mnemosyne-style engines use, with 160-byte records — and this
//!   crate keeps only its protocol: the lazy clear at the next
//!   operation, the status flips and the mount-time rollback.
//! * **Synchronous persistence** — every operation is durable when it
//!   returns; there is no write-back cache to flush, so there is no
//!   `fsync`.
//!
//! The operations are the ones the filesystem applications issue
//! (`create`, `mkdir`, `write`, `append`, `read`, `read_file`, `stat`,
//! `truncate`, and `unlink` of a file), plus `readdir`, the listing the
//! tests check. There is no rename, and a directory is never removed.
//!
//! Write amplification lands near the paper's ~10 % figure: a 4096-byte
//! append writes a few hundred bytes of inode, bitmap, and journal
//! traffic.
//!
//! # Example
//!
//! ```
//! use memsim::{Machine, MachineConfig};
//! use pmem::AddrRange;
//! use pmfs::{Pmfs, PmfsConfig};
//! use pmtrace::Tid;
//!
//! let mut m = Machine::new(MachineConfig::asplos17());
//! let region = AddrRange::new(m.config().map.pm.base, 64 << 20);
//! let mut fs = Pmfs::mkfs(&mut m, Tid(0), region, PmfsConfig::default())?;
//! let tid = Tid(0);
//! fs.create(&mut m, tid, "/hello.txt")?;
//! fs.append(&mut m, tid, "/hello.txt", b"persistent!")?;
//! assert_eq!(fs.read_file(&mut m, tid, "/hello.txt")?, b"persistent!");
//! # Ok::<(), pmfs::FsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fs;
mod journal;
mod layout;

pub use fs::{FileStat, Pmfs};
pub use layout::PmfsConfig;

/// Filesystem errors (the `errno`s of the simulated syscall layer):
/// one per way the operations [`Pmfs`] has can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound {
        /// The missing path or component.
        path: String,
    },
    /// Path already exists (create/mkdir collision).
    Exists {
        /// The colliding path.
        path: String,
    },
    /// A path component is a file, not a directory.
    NotDir {
        /// The offending component.
        path: String,
    },
    /// The operation needs a file but found a directory.
    IsDir {
        /// The offending path.
        path: String,
    },
    /// No free data blocks.
    NoSpace,
    /// No free inodes.
    NoInodes,
    /// File would exceed the maximum supported size.
    FileTooBig {
        /// Requested size.
        size: u64,
    },
    /// A path component exceeds 55 bytes.
    NameTooLong {
        /// The offending component.
        name: String,
    },
    /// Malformed path (empty, or not starting with `/`).
    BadPath {
        /// The offending path.
        path: String,
    },
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound { path } => write!(f, "no such file or directory: {path}"),
            FsError::Exists { path } => write!(f, "file exists: {path}"),
            FsError::NotDir { path } => write!(f, "not a directory: {path}"),
            FsError::IsDir { path } => write!(f, "is a directory: {path}"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::NoInodes => write!(f, "no free inodes"),
            FsError::FileTooBig { size } => write!(f, "file too large: {size} bytes"),
            FsError::NameTooLong { name } => write!(f, "file name too long: {name}"),
            FsError::BadPath { path } => write!(f, "invalid path: {path}"),
        }
    }
}

impl std::error::Error for FsError {}
