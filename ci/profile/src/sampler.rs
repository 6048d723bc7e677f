//! The sampler: a `SIGPROF` interval timer whose handler walks the
//! interrupted thread's frame-pointer chain into a fixed buffer.
//!
//! This is the only `unsafe` code in the repository, and it stays in
//! this file. It declares the three libc entry points it needs
//! (`sigaction`, `setitimer`, both from the C library the standard
//! library already links) with their x86-64 Linux glibc layouts, and
//! the handler reads the interrupted registers out of the signal's
//! `ucontext_t` and the saved `(frame pointer, return address)` pairs
//! off the stack. The handler is async-signal-safe: it allocates
//! nothing, takes no lock, and writes only atomics.
//!
//! Frames are walked only while the frame pointer stays inside the
//! sampled thread's stack — above the handler's own frame, below the
//! top of the main thread's `[stack]` mapping — and strictly climbs, so
//! a chain broken by code built without frame pointers (the prebuilt
//! standard library, libc) ends the walk instead of faulting. Samples
//! taken on any other thread keep their leaf address only.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Frames kept per sample, leaf first.
pub const DEPTH: usize = 48;
/// Samples kept; later ones are counted as dropped.
const CAPACITY: usize = 1 << 15;

static FRAMES: [AtomicU64; CAPACITY * DEPTH] = [const { AtomicU64::new(0) }; CAPACITY * DEPTH];
static TAKEN: AtomicUsize = AtomicUsize::new(0);
/// The end of the main thread's stack mapping: frame pointers at or
/// above it are not frames.
static STACK_TOP: AtomicU64 = AtomicU64::new(0);

#[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
compile_error!("the sampler reads x86-64 Linux glibc signal frames");

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;
/// `uc_mcontext.gregs` starts at byte 40 of `ucontext_t`; `REG_RBP` is
/// register 10 and `REG_RIP` register 16.
const RBP_AT: usize = 40 + 10 * 8;
const RIP_AT: usize = 40 + 16 * 8;

#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct ITimerVal {
    interval: TimeVal,
    value: TimeVal,
}

extern "C" {
    fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
}

extern "C" fn on_sigprof(_sig: i32, _info: *mut u8, context: *mut u8) {
    let slot = TAKEN.fetch_add(1, Relaxed);
    if slot >= CAPACITY {
        return;
    }
    // SAFETY: the kernel hands a SA_SIGINFO handler a valid
    // `ucontext_t` for the interrupted thread; the offsets are glibc's
    // x86-64 layout (checked at compile time above).
    let (rip, mut rbp) = unsafe {
        (
            context.add(RIP_AT).cast::<u64>().read_unaligned(),
            context.add(RBP_AT).cast::<u64>().read_unaligned(),
        )
    };
    let out = &FRAMES[slot * DEPTH..(slot + 1) * DEPTH];
    out[0].store(rip, Relaxed);
    let floor = std::ptr::addr_of!(rip) as u64;
    let top = STACK_TOP.load(Relaxed);
    let mut n = 1;
    while n < DEPTH && rbp > floor && rbp.saturating_add(16) <= top && rbp % 8 == 0 {
        // SAFETY: `rbp` lies between this handler's frame and the top
        // of the same stack mapping, so both words are mapped stack.
        let (next, ret) = unsafe {
            let frame = rbp as *const u64;
            (frame.read(), frame.add(1).read())
        };
        if ret == 0 {
            break;
        }
        out[n].store(ret, Relaxed);
        n += 1;
        if next <= rbp {
            break;
        }
        rbp = next;
    }
    if n < DEPTH {
        out[n].store(0, Relaxed);
    }
}

/// Start sampling every `period_us` microseconds of process CPU time.
/// `stack_top` is the end of the main thread's stack mapping.
pub fn start(period_us: i64, stack_top: u64) {
    STACK_TOP.store(stack_top, Relaxed);
    TAKEN.store(0, Relaxed);
    let act = SigAction {
        handler: on_sigprof as extern "C" fn(i32, *mut u8, *mut u8) as usize,
        mask: [0; 16],
        flags: SA_SIGINFO | SA_RESTART,
        restorer: 0,
    };
    let every = || TimeVal {
        sec: period_us / 1_000_000,
        usec: period_us % 1_000_000,
    };
    let timer = ITimerVal {
        interval: every(),
        value: every(),
    };
    // SAFETY: both structs are the C layouts the calls expect, live for
    // the calls, and the handler above is async-signal-safe.
    let ok = unsafe {
        sigaction(SIGPROF, &act, std::ptr::null_mut()) == 0
            && setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) == 0
    };
    assert!(ok, "could not arm the SIGPROF timer");
}

/// Stop the timer and return the samples, each a leaf-first list of
/// code addresses, plus how many were dropped for want of room.
pub fn stop() -> (Vec<Vec<u64>>, usize) {
    let zero = ITimerVal {
        interval: TimeVal { sec: 0, usec: 0 },
        value: TimeVal { sec: 0, usec: 0 },
    };
    // SAFETY: as in `start`; a zero timer disarms it.
    unsafe { setitimer(ITIMER_PROF, &zero, std::ptr::null_mut()) };
    let taken = TAKEN.load(Relaxed);
    let kept = taken.min(CAPACITY);
    let samples = (0..kept)
        .map(|s| {
            FRAMES[s * DEPTH..(s + 1) * DEPTH]
                .iter()
                .map(|f| f.load(Relaxed))
                .take_while(|&a| a != 0)
                .collect()
        })
        .collect();
    (samples, taken - kept)
}
