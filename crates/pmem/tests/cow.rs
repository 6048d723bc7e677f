//! Copy-on-write pages, checked against deep copies: random sequences
//! of writes, forks, snapshots, boots and drops over `LineMap`s, both
//! devices and `PmImage`s, where every holder's model is an
//! independent `BTreeMap` copied wholesale at each fork. No write may
//! reach any holder but its writer, and an image keeps the `BTreeMap`
//! semantics of `lines()`, `line`, `line_count` and `==` — lines
//! written with zeros included.

use miniprop::prelude::*;
use pmem::{AddrRange, DramDevice, Line, LineMap, PmDevice, PmImage};
use std::collections::BTreeMap;

const BASE: u64 = 4 << 30;
/// Four 64 KiB pages.
const LEN: u64 = 4 * 65_536;

fn range() -> AddrRange {
    AddrRange::new(BASE, LEN)
}

/// Lines on both sides of every page boundary, plus the range's ends.
fn line(k: u8) -> Line {
    const AT: [u64; 10] = [0, 1, 1023, 1024, 1025, 2047, 2048, 3071, 3072, 4095];
    Line(Line::containing(BASE).0 + AT[k as usize % AT.len()])
}

/// One line's contents for value `v`; value 0 writes zeros.
fn data(v: u8) -> [u8; 64] {
    let mut d = [v; 64];
    if v != 0 {
        d[63] = v.wrapping_mul(31);
    }
    d
}

type Lines = BTreeMap<Line, [u8; 64]>;

enum Holder {
    Pm(PmDevice, Lines),
    Dram(DramDevice, Lines),
    Image(PmImage, Lines),
    Map(LineMap<u64>, BTreeMap<Line, u64>),
}

fn check(h: &Holder) -> Result<(), String> {
    let zeros = [0u8; 64];
    match h {
        Holder::Pm(dev, lines) => {
            if dev.lines_in_use() != lines.len() {
                return Err(format!(
                    "pm lines {} != {}",
                    dev.lines_in_use(),
                    lines.len()
                ));
            }
            for k in 0..10 {
                let l = line(k);
                if dev.line_view(l) != lines.get(&l).unwrap_or(&zeros) {
                    return Err(format!("pm line {k} differs"));
                }
            }
        }
        Holder::Dram(dev, lines) => {
            for k in 0..10 {
                let l = line(k);
                if dev.read_vec(l.base(), 64) != lines.get(&l).unwrap_or(&zeros) {
                    return Err(format!("dram line {k} differs"));
                }
            }
        }
        Holder::Image(img, lines) => {
            let got: Vec<(Line, [u8; 64])> = img.lines().map(|(l, d)| (l, *d)).collect();
            let want: Vec<(Line, [u8; 64])> = lines.iter().map(|(l, d)| (*l, *d)).collect();
            if got != want {
                return Err(format!("image lines {} != {}", got.len(), want.len()));
            }
            if img.line_count() != lines.len() {
                return Err("image line_count differs".into());
            }
            for k in 0..10 {
                let l = line(k);
                if img.line(l) != lines.get(&l) {
                    return Err(format!("image line {k} differs"));
                }
                if img.read_vec(l.base() + 60, 8)
                    != [
                        &lines.get(&l).unwrap_or(&zeros)[60..],
                        &lines.get(&Line(l.0 + 1)).unwrap_or(&zeros)[..4],
                    ]
                    .concat()
                {
                    return Err(format!("image read across line {k} differs"));
                }
            }
            let mut rebuilt = PmImage::empty(range());
            for (l, d) in lines {
                rebuilt.set_line(*l, *d);
            }
            if *img != rebuilt {
                return Err("image != the image of its lines".into());
            }
        }
        Holder::Map(map, values) => {
            for k in 0..10 {
                let l = line(k);
                if map.get(l) != values.get(&l).copied().unwrap_or(0) {
                    return Err(format!("map line {k} differs"));
                }
            }
        }
    }
    Ok(())
}

/// Apply one op; `kind` picks write / fork / snapshot / boot / drop.
/// DRAM has no images, so a DRAM holder is only ever made new or
/// forked.
fn step(holders: &mut Vec<Holder>, (kind, who, k, v): (u8, u8, u8, u8)) {
    if holders.is_empty() {
        holders.push(Holder::Pm(PmDevice::new(range()), Lines::new()));
        holders.push(Holder::Dram(DramDevice::new(range()), Lines::new()));
        holders.push(Holder::Map(LineMap::new(range()), BTreeMap::new()));
    }
    let i = who as usize % holders.len();
    // Drops (never the last holder standing).
    if kind % 8 == 6 {
        if holders.len() > 1 {
            holders.swap_remove(i);
        }
        return;
    }
    let (l, d) = (line(k), data(v));
    let new = match (&mut holders[i], kind % 8) {
        // Writes (half of all ops).
        (Holder::Pm(dev, lines), 0..=3) => {
            dev.write(l.base(), &d);
            lines.insert(l, d);
            None
        }
        (Holder::Dram(dev, lines), 0..=3) => {
            dev.write(l.base(), &d);
            lines.insert(l, d);
            None
        }
        (Holder::Image(img, lines), 0..=3) => {
            img.set_line(l, d);
            lines.insert(l, d);
            None
        }
        (Holder::Map(map, values), 0..=3) => {
            *map.slot(l) = u64::from(v);
            values.insert(l, u64::from(v));
            None
        }
        // Forks: the copy's model is a deep copy.
        (Holder::Pm(dev, lines), 4) => Some(Holder::Pm(dev.fork(), lines.clone())),
        (Holder::Dram(dev, lines), 4) => Some(Holder::Dram(dev.fork(), lines.clone())),
        (Holder::Image(img, lines), 4) => Some(Holder::Image(img.clone(), lines.clone())),
        (Holder::Map(map, values), 4) => Some(Holder::Map(map.fork(), values.clone())),
        // Snapshots of a device, boots from an image.
        (Holder::Pm(dev, lines), 5) => Some(Holder::Image(dev.image(), lines.clone())),
        (Holder::Image(img, lines), 5) => {
            Some(Holder::Pm(PmDevice::from_image(img), lines.clone()))
        }
        _ => None,
    };
    holders.extend(new);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn forks_snapshots_and_boots_never_share_a_write(
        ops in collection::vec((0u8..8, any::<u8>(), 0u8..10, 0u8..4), 1..120),
    ) {
        let mut holders = Vec::new();
        for (n, op) in ops.into_iter().enumerate() {
            step(&mut holders, op);
            for (i, h) in holders.iter().enumerate() {
                if let Err(e) = check(h) {
                    prop_assert!(false, "after op {} {:?}, holder {}: {}", n, op, i, e);
                }
            }
        }
    }
}

/// A device keeps writing after its snapshot; the snapshot does not
/// move, and a device booted from it starts from the snapshot.
#[test]
fn a_snapshot_is_frozen_while_its_device_writes_on() {
    let mut dev = PmDevice::new(range());
    dev.write(BASE, &[1; 64]);
    dev.write(BASE + 1094 * 64, &[0; 64]);
    let img = dev.image();
    dev.write(BASE, &[2; 64]);
    dev.write(BASE + 64, &[3; 64]);
    assert_eq!(
        img.line_count(),
        2,
        "a line written with zeros is in the image"
    );
    assert_eq!(img.read_vec(BASE, 1), [1]);
    assert_eq!(img.line(Line::containing(BASE + 64)), None);
    let mut booted = PmDevice::from_image(&img);
    booted.write(BASE, &[4; 64]);
    assert_eq!(
        img.read_vec(BASE, 1),
        [1],
        "a boot's writes stay in the boot"
    );
    assert_eq!(dev.read_vec(BASE, 1), [2]);
    assert_eq!(booted.lines_in_use(), 2);
}
