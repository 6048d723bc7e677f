//! Property tests: the filesystem against an in-memory model, across
//! crashes.

use memsim::{CrashSpec, Machine, MachineConfig};
use miniprop::prelude::*;
use pmem::AddrRange;
use pmfs::{FsError, Pmfs, PmfsConfig};
use pmtrace::Tid;
use std::collections::BTreeMap;

const TID: Tid = Tid(0);

#[derive(Debug, Clone)]
enum FsOp {
    Create { f: u8 },
    Append { f: u8, len: u16 },
    Overwrite { f: u8, off: u16, len: u16 },
    Truncate { f: u8, keep: u16 },
    Unlink { f: u8 },
}

fn ops() -> impl Strategy<Value = Vec<FsOp>> {
    collection::vec(
        prop_oneof![
            (0u8..8).prop_map(|f| FsOp::Create { f }),
            (0u8..8, 1u16..5000).prop_map(|(f, len)| FsOp::Append { f, len }),
            (0u8..8, 0u16..4000, 1u16..2000).prop_map(|(f, off, len)| FsOp::Overwrite {
                f,
                off,
                len
            }),
            (0u8..8, 0u16..3000).prop_map(|(f, keep)| FsOp::Truncate { f, keep }),
            (0u8..8).prop_map(|f| FsOp::Unlink { f }),
        ],
        1..30,
    )
}

fn path(f: u8) -> String {
    format!("/f{f}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every completed operation is durable (PMFS is synchronous):
    /// after a crash, the filesystem matches a byte-level model of the
    /// completed operations exactly.
    #[test]
    fn synchronous_semantics_survive_crash(script in ops(), fill in any::<u8>()) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let region = AddrRange::new(m.config().map.pm.base, 64 << 20);
        let mut fs = Pmfs::mkfs(&mut m, TID, region, PmfsConfig::default()).unwrap();
        let mut model: BTreeMap<u8, Vec<u8>> = BTreeMap::new();

        for (i, op) in script.iter().enumerate() {
            let byte = fill.wrapping_add(i as u8);
            match op {
                FsOp::Create { f } => {
                    let r = fs.create(&mut m, TID, &path(*f));
                    if model.contains_key(f) {
                        { let matched = matches!(r, Err(FsError::Exists { .. })); prop_assert!(matched); }
                    } else {
                        r.unwrap();
                        model.insert(*f, Vec::new());
                    }
                }
                FsOp::Append { f, len } => {
                    let r = fs.append(&mut m, TID, &path(*f), &vec![byte; *len as usize]);
                    match model.get_mut(f) {
                        Some(content) => {
                            r.unwrap();
                            content.extend(std::iter::repeat_n(byte, *len as usize));
                        }
                        None => {
                            let matched = matches!(r, Err(FsError::NotFound { .. }));
                            prop_assert!(matched);
                        }
                    }
                }
                FsOp::Overwrite { f, off, len } => {
                    let r = fs.write(&mut m, TID, &path(*f), *off as u64, &vec![byte; *len as usize]);
                    match model.get_mut(f) {
                        Some(content) => {
                            r.unwrap();
                            let end = *off as usize + *len as usize;
                            if content.len() < end {
                                content.resize(end, 0);
                            }
                            content[*off as usize..end].fill(byte);
                        }
                        None => {
                            let matched = matches!(r, Err(FsError::NotFound { .. }));
                            prop_assert!(matched);
                        }
                    }
                }
                FsOp::Truncate { f, keep } => {
                    let r = fs.truncate(&mut m, TID, &path(*f), *keep as u64);
                    match model.get_mut(f) {
                        Some(content) if content.len() >= *keep as usize => {
                            r.unwrap();
                            content.truncate(*keep as usize);
                        }
                        Some(_) => {
                            let matched = matches!(r, Err(FsError::FileTooBig { .. }));
                            prop_assert!(matched);
                        }
                        None => {
                            let matched = matches!(r, Err(FsError::NotFound { .. }));
                            prop_assert!(matched);
                        }
                    }
                }
                FsOp::Unlink { f } => {
                    let r = fs.unlink(&mut m, TID, &path(*f));
                    if model.remove(f).is_some() {
                        r.unwrap();
                    } else {
                        { let matched = matches!(r, Err(FsError::NotFound { .. })); prop_assert!(matched); }
                    }
                }
            }
        }

        // Crash losing everything volatile; remount.
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let (mut fs2, rolled_back) = Pmfs::mount(&mut m2, TID, region).unwrap();
        prop_assert!(!rolled_back, "no op was in flight");

        // Byte-exact equivalence with the model.
        for f in 0u8..8 {
            match model.get(&f) {
                Some(content) => {
                    let got = fs2.read_file(&mut m2, TID, &path(f)).unwrap();
                    prop_assert_eq!(&got, content, "file {} content mismatch", f);
                }
                None => {
                    let gone =
                        matches!(fs2.read_file(&mut m2, TID, &path(f)), Err(FsError::NotFound { .. }));
                    prop_assert!(gone, "file {} should not exist", f);
                }
            }
        }
        // Directory listing matches too.
        let mut names = fs2.readdir(&mut m2, TID, "/").unwrap();
        names.sort();
        let mut expect: Vec<String> = model.keys().map(|f| format!("f{f}")).collect();
        expect.sort();
        prop_assert_eq!(names, expect);
    }
}
